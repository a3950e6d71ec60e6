package fleet

import (
	"context"
	"fmt"

	"repro/internal/charger"
	"repro/internal/drivecycle"
	"repro/internal/sim"
	"repro/internal/vehicle"
)

// The per-vehicle reference rollout: every vehicle simulated alone, start
// to finish, before the next one starts. The lockstep rollout must
// reproduce its fleet result bit for bit at any lane width and worker
// count; the identity tests and the fleet benchmark's speedup gate compare
// against it.

// runReference rolls the fleet one vehicle at a time on the calling
// goroutine, chunked and merged exactly like runWith so the sketches fill
// in the same order.
func runReference(ctx context.Context, spec Spec) (*Result, error) {
	spec = spec.Resolved()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	chunks := numChunks(spec.Vehicles)
	final := newAccumulator(spec)
	final.Days = spec.Days
	for c := 0; c < chunks; c++ {
		lo, hi := chunkBounds(spec.Vehicles, chunks, c)
		acc := newAccumulator(spec)
		for i := lo; i < hi; i++ {
			o, err := rollVehicle(ctx, spec, i)
			if err != nil {
				return nil, err
			}
			acc.add(o)
		}
		final.merge(acc)
	}
	return final, nil
}

// rollVehicle simulates one vehicle's whole horizon on its own, one
// sim.RunContext route per day. It is a pure function of (spec, index).
func rollVehicle(ctx context.Context, spec Spec, index int) (vehicleOutcome, error) {
	sc := drawScenario(spec, index)
	out := vehicleOutcome{family: familyIndex(&sc)}

	cycle, err := drivecycle.Synthesize(sc.synth)
	if err != nil {
		return out, fmt.Errorf("fleet: vehicle %d synth: %w", index, err)
	}
	requests := vehicle.MidSizeEV().PowerSeriesAt(cycle, sc.ambientK)

	plant, err := sim.NewPlant(sim.PlantConfig{UltracapF: spec.UltracapF, Ambient: sc.ambientK})
	if err != nil {
		return out, fmt.Errorf("fleet: vehicle %d plant: %w", index, err)
	}
	out.peakTempK = plant.Loop.BatteryTemp
	chg := charger.Default()

	for _, kind := range sc.days {
		if kind == dayVacation {
			continue
		}
		ctrl, err := newController(spec.Method, spec.Horizon)
		if err != nil {
			return out, fmt.Errorf("fleet: vehicle %d controller: %w", index, err)
		}
		startSoC := plant.HEES.Battery.SoC
		res, err := sim.RunContext(ctx, plant, ctrl, requests, sim.Config{Horizon: spec.Horizon})
		if err != nil {
			return out, fmt.Errorf("fleet: vehicle %d route: %w", index, err)
		}
		out.steps += res.Steps
		out.fallbackSteps += res.FallbackSteps
		out.thermalViolationSec += res.ThermalViolationSec
		out.qlossPct += res.QlossPct
		out.energyJ += res.HEESEnergyJ
		if res.MaxBatteryTemp > out.peakTempK {
			out.peakTempK = res.MaxBatteryTemp
		}

		// Overnight charging per the plug state: plugged days restore the
		// morning state of charge, pre-vacation days fill the pack, and an
		// unplugged day still charges when the guard trips.
		target := 0.0
		switch kind {
		case dayPlugged:
			target = startSoC
		case dayPreVacation:
			target = 1.0
		case dayUnplugged:
			if plant.HEES.Battery.SoC < lowSoCGuard {
				target = startSoC
			}
		}
		if target > plant.HEES.Battery.SoC {
			cr, err := charger.Charge(plant.HEES.Battery, plant.Loop, chg, target, sc.ambientK)
			if err != nil {
				return out, fmt.Errorf("fleet: vehicle %d charge: %w", index, err)
			}
			out.qlossPct += cr.AgingPct
			out.energyJ += cr.WallEnergyJ
			if cr.PeakTempK > out.peakTempK {
				out.peakTempK = cr.PeakTempK
			}
		}
	}
	return out, nil
}
