package fleet

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/battery"
	"repro/internal/charger"
	"repro/internal/cooling"
	"repro/internal/drivecycle"
	"repro/internal/hees"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/ultracap"
	"repro/internal/vehicle"
)

// DefaultBatch is the auto-tuned lockstep lane width: large enough that the
// batched bus bisection hides divide latency across lanes and the per-step
// bookkeeping amortises, small enough that a batch's hot state (a few
// hundred bytes per lane) stays cache-resident on one worker.
const DefaultBatch = 64

// Options configures a fleet run beyond the Spec. The zero value runs on a
// private pool without progress reporting. Every run steps its vehicles
// through the lockstep rollout (sim.RunBatch) in groups of DefaultBatch;
// the outcome is a pure function of the Spec, independent of the lane
// width, which the package tests pin against a per-vehicle reference.
type Options struct {
	// Pool supplies the workers; nil uses a fresh default pool.
	Pool *runner.Pool
	// Progress, when non-nil, is called after each finished chunk with the
	// cumulative number of completed vehicles; calls are serialized.
	Progress func(vehiclesDone, vehiclesTotal int)
}

// Run executes the fleet on the pool and returns the merged result.
// progress, when non-nil, is called after each finished chunk with the
// cumulative number of completed vehicles; calls are serialized.
func Run(ctx context.Context, spec Spec, pool *runner.Pool, progress func(vehiclesDone, vehiclesTotal int)) (*Result, error) {
	return RunWith(ctx, spec, Options{Pool: pool, Progress: progress})
}

// RunWith is Run with the options in a struct.
func RunWith(ctx context.Context, spec Spec, opts Options) (*Result, error) {
	return runWith(ctx, spec, opts, DefaultBatch)
}

// runWith rolls the fleet in lockstep groups of width vehicles.
func runWith(ctx context.Context, spec Spec, opts Options, width int) (*Result, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	pool := opts.Pool
	if pool == nil {
		pool = runner.New()
	}

	chunks := numChunks(spec.Vehicles)
	var mu sync.Mutex
	done := 0
	report := func(n int) {
		if opts.Progress == nil {
			return
		}
		mu.Lock()
		done += n
		opts.Progress(done, spec.Vehicles)
		mu.Unlock()
	}

	parts, err := runner.Map(ctx, pool, chunks, func(ctx context.Context, c int) (*Result, error) {
		lo, hi := chunkBounds(spec.Vehicles, chunks, c)
		acc := newAccumulator(spec)
		var ws batchWorkspace
		for b := lo; b < hi; b += width {
			if err := rollBatch(ctx, spec, b, min(b+width, hi), &ws, acc); err != nil {
				return nil, err
			}
		}
		report(hi - lo)
		return acc, nil
	})
	if err != nil {
		return nil, err
	}

	final := newAccumulator(spec)
	final.Days = spec.Days
	for _, p := range parts {
		final.merge(p)
	}
	return final, nil
}

// batchWorkspace is one worker's reusable structure-of-arrays storage for
// batched rollouts: the plant components of all lanes live in contiguous
// per-type slices (battery packs together, banks together, thermal loops
// together), so a lockstep pass over the batch walks arrays instead of
// pointer-chasing per-vehicle heap islands. Everything here is
// result-neutral; vehicle outcomes remain pure functions of (spec, index).
type batchWorkspace struct {
	scratch sim.BatchScratch

	packs   []battery.Pack
	banks   []ultracap.Bank
	loops   []cooling.Loop
	systems []hees.System
	plants  []sim.Plant

	scens    []scenario
	requests [][]float64
	outs     []vehicleOutcome
	startSoC []float64
	order    []int // lane order, grouped by scenario family
	lanes    []sim.BatchVehicle
	laneIdx  []int // workspace index per lane

	template     *sim.Plant
	haveTemplate bool
}

// ensure sizes the workspace for n vehicles.
func (ws *batchWorkspace) ensure(n int) {
	if cap(ws.packs) < n {
		ws.packs = make([]battery.Pack, n)
		ws.banks = make([]ultracap.Bank, n)
		ws.loops = make([]cooling.Loop, n)
		ws.systems = make([]hees.System, n)
		ws.plants = make([]sim.Plant, n)
		ws.scens = make([]scenario, n)
		ws.requests = make([][]float64, n)
		ws.outs = make([]vehicleOutcome, n)
		ws.startSoC = make([]float64, n)
		ws.order = make([]int, n)
		ws.lanes = make([]sim.BatchVehicle, n)
		ws.laneIdx = make([]int, n)
	}
}

// rollBatch simulates vehicles [lo, hi) in lockstep and folds their
// outcomes into acc in vehicle-index order, so the sketches fill
// identically at any lane width.
func rollBatch(ctx context.Context, spec Spec, lo, hi int, ws *batchWorkspace, acc *Result) error {
	n := hi - lo
	ws.ensure(n)

	// The fleet shares one parameter set: every plant differs from the
	// template only by its ambient, which NewPlant stores verbatim. Build
	// the template once and stamp per-lane copies into the contiguous
	// component arrays.
	if !ws.haveTemplate {
		tpl, err := sim.NewPlant(sim.PlantConfig{UltracapF: spec.UltracapF})
		if err != nil {
			return fmt.Errorf("fleet: plant template: %w", err)
		}
		ws.template = tpl
		ws.haveTemplate = true
	}

	// Per-vehicle setup: scenario, route, plant — each a pure function of
	// the vehicle index.
	ev := vehicle.MidSizeEV()
	for k := 0; k < n; k++ {
		i := lo + k
		ws.scens[k] = drawScenario(spec, i)
		sc := &ws.scens[k]
		cycle, err := drivecycle.Synthesize(sc.synth)
		if err != nil {
			return fmt.Errorf("fleet: vehicle %d synth: %w", i, err)
		}
		ws.requests[k] = ev.PowerSeriesAt(cycle, sc.ambientK)

		ws.packs[k] = *ws.template.HEES.Battery
		ws.banks[k] = *ws.template.HEES.Cap
		ws.loops[k] = *ws.template.Loop
		ws.systems[k] = hees.System{
			Battery:  &ws.packs[k],
			Cap:      &ws.banks[k],
			BattConv: ws.template.HEES.BattConv,
			CapConv:  ws.template.HEES.CapConv,
		}
		ws.plants[k] = sim.Plant{
			HEES:    &ws.systems[k],
			Loop:    &ws.loops[k],
			Ambient: sc.ambientK,
			DT:      ws.template.DT,
		}
		ws.outs[k] = vehicleOutcome{family: familyIndex(sc), peakTempK: ws.loops[k].BatteryTemp}
		ws.order[k] = k
	}

	// Group lanes by scenario family: vehicles of one usage class draw
	// routes of similar length, so family-sorted lanes retire from the
	// lockstep batch together and late steps keep full lanes. Pure
	// reordering of independent lanes — outcomes cannot change.
	scens := ws.scens
	sort.SliceStable(ws.order[:n], func(a, b int) bool {
		return familyIndex(&scens[ws.order[a]]) < familyIndex(&scens[ws.order[b]])
	})

	chg := charger.Default()
	for d := 0; d < spec.Days; d++ {
		// Assemble the day's lanes in grouped order, skipping vacationers.
		nl := 0
		for _, k := range ws.order[:n] {
			if ws.scens[k].days[d] == dayVacation {
				continue
			}
			ctrl, err := newController(spec.Method, spec.Horizon)
			if err != nil {
				return fmt.Errorf("fleet: vehicle %d controller: %w", lo+k, err)
			}
			ws.lanes[nl] = sim.BatchVehicle{Plant: &ws.plants[k], Ctrl: ctrl, Requests: ws.requests[k]}
			ws.laneIdx[nl] = k
			ws.startSoC[k] = ws.packs[k].SoC
			nl++
		}
		if nl == 0 {
			continue
		}
		results, err := sim.RunBatch(ctx, ws.lanes[:nl], sim.Config{Horizon: spec.Horizon}, &ws.scratch)
		if err != nil {
			return fmt.Errorf("fleet: batch [%d,%d) day %d: %w", lo, hi, d, err)
		}
		for l := 0; l < nl; l++ {
			k := ws.laneIdx[l]
			res := &results[l]
			out := &ws.outs[k]
			out.steps += res.Steps
			out.fallbackSteps += res.FallbackSteps
			out.thermalViolationSec += res.ThermalViolationSec
			out.qlossPct += res.QlossPct
			out.energyJ += res.HEESEnergyJ
			if res.MaxBatteryTemp > out.peakTempK {
				out.peakTempK = res.MaxBatteryTemp
			}

			// Overnight charging per the plug state: plugged days restore
			// the morning state of charge, pre-vacation days fill the
			// pack, and an unplugged day still charges when the guard
			// trips.
			target := 0.0
			switch ws.scens[k].days[d] {
			case dayPlugged:
				target = ws.startSoC[k]
			case dayPreVacation:
				target = 1.0
			case dayUnplugged:
				if ws.packs[k].SoC < lowSoCGuard {
					target = ws.startSoC[k]
				}
			}
			if target > ws.packs[k].SoC {
				cr, err := charger.Charge(&ws.packs[k], &ws.loops[k], chg, target, ws.scens[k].ambientK)
				if err != nil {
					return fmt.Errorf("fleet: vehicle %d charge: %w", lo+k, err)
				}
				out.qlossPct += cr.AgingPct
				out.energyJ += cr.WallEnergyJ
				if cr.PeakTempK > out.peakTempK {
					out.peakTempK = cr.PeakTempK
				}
			}
		}
	}

	// Fold in vehicle-index order, independent of lane grouping.
	for k := 0; k < n; k++ {
		acc.add(ws.outs[k])
	}
	return nil
}
