package sim_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/drivecycle"
	"repro/internal/fleet"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/vehicle"
)

// TestPlantInvariantsAcrossSeededRoutes drives synthesized commuter,
// delivery and highway routes at seeded ambients under all four
// methodologies, each plant over two routes back to back, and checks the
// plant's physical invariants at every traced step:
//
//   - SoC and SoE stay in [0, 1];
//   - the battery and coolant temperatures are finite and stay inside the
//     bounds the two-node network allows. Its Crank–Nicolson step is
//     monotone, the cooler never supplies coolant above T_c and the
//     passive loop couples to ambient, so beyond the initial, ambient and
//     minimum-inlet temperatures only the battery's own heat moves the
//     pack: by at most ∫Q_b⁺dt / C_b up and ∫Q_b⁻dt / C_b down;
//   - each route's QlossPct is finite and ≥ 0, and the pack's capacity
//     loss does not decrease from one route to the next.
//
// Energy balance is left out: the trace records the storages' terminal
// powers, not the converter losses between them and the bus.
func TestPlantInvariantsAcrossSeededRoutes(t *testing.T) {
	const routeSeconds = 300
	usages := []fleet.UsageClass{fleet.UsageCommuter, fleet.UsageDelivery, fleet.UsageHighway}
	methods := []policy.Methodology{policy.MethodologyParallel, policy.MethodologyCooling, policy.MethodologyDual, policy.MethodologyOTEM}
	newCtrl := func(m policy.Methodology) sim.Controller {
		t.Helper()
		var (
			c   sim.Controller
			err error
		)
		if m == policy.MethodologyOTEM {
			c, err = core.New(core.DefaultConfig())
		} else {
			c, err = policy.ByMethodology(m)
		}
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	// One vehicle per seed and methodology: the seed picks the usage
	// class, the ambient (−10 to 45 °C) and both routes.
	type vehicleRoutes struct {
		name           string
		method         policy.Methodology
		ambient        float64
		routes         [2][]float64
		plant          *sim.Plant
		heatUp, heatDn float64 // ∫Q_b⁺dt and ∫Q_b⁻dt so far, J
		lossAfter      float64 // pack capacity loss after the last route, %
	}
	var vs []*vehicleRoutes
	for seed := int64(1); seed <= 9; seed++ {
		rng := rand.New(rand.NewSource(seed))
		usage := usages[int(seed)%len(usages)]
		ambient := 263.15 + 55*rng.Float64()
		var routes [2][]float64
		for r := range routes {
			cyc, err := drivecycle.Synthesize(fleet.SynthConfigFor(usage, routeSeconds, rng.Int63()))
			if err != nil {
				t.Fatal(err)
			}
			routes[r] = vehicle.MidSizeEV().PowerSeriesAt(cyc, ambient)
		}
		for _, m := range methods {
			plant, err := sim.NewPlant(sim.PlantConfig{Ambient: ambient, InitialTemp: ambient})
			if err != nil {
				t.Fatal(err)
			}
			vs = append(vs, &vehicleRoutes{
				name: string(usage) + "/" + string(m), method: m, ambient: ambient,
				routes: routes, plant: plant,
			})
		}
	}

	var sc sim.BatchScratch
	cfg := sim.Config{RecordTrace: true, Horizon: core.DefaultConfig().Horizon}
	for r := 0; r < 2; r++ {
		lanes := make([]sim.BatchVehicle, len(vs))
		for k, v := range vs {
			lanes[k] = sim.BatchVehicle{Plant: v.plant, Ctrl: newCtrl(v.method), Requests: v.routes[r]}
		}
		results, err := sim.RunBatch(context.Background(), lanes, cfg, &sc)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range vs {
			res := results[k]
			params := v.plant.Loop.Params
			lo := math.Min(v.ambient, params.MinInletTemp)
			hi := v.ambient
			tr := res.Trace
			for i := range tr.Time {
				if soc, soe := tr.SoC[i], tr.SoE[i]; !(soc >= 0 && soc <= 1 && soe >= 0 && soe <= 1) {
					t.Fatalf("%s route %d step %d: SoC %v, SoE %v outside [0, 1]", v.name, r, i, soc, soe)
				}
				q := tr.BatteryHeat[i] * v.plant.DT
				v.heatUp += math.Max(q, 0)
				v.heatDn += math.Max(-q, 0)
				tmin := lo - v.heatDn/params.BatteryHeatCapacity
				tmax := hi + v.heatUp/params.BatteryHeatCapacity
				for _, temp := range []float64{tr.BatteryTemp[i], tr.CoolantTemp[i]} {
					if !(temp >= tmin && temp <= tmax) {
						t.Fatalf("%s route %d step %d: temperature %v K outside [%v, %v]", v.name, r, i, temp, tmin, tmax)
					}
				}
			}
			if math.IsNaN(res.QlossPct) || math.IsInf(res.QlossPct, 0) || res.QlossPct < 0 {
				t.Errorf("%s route %d: QlossPct = %v, want finite and >= 0", v.name, r, res.QlossPct)
			}
			loss := v.plant.HEES.Battery.CapacityLossPct
			if !(loss >= v.lossAfter) {
				t.Errorf("%s route %d: capacity loss fell from %v to %v %%", v.name, r, v.lossAfter, loss)
			}
			v.lossAfter = loss
		}
	}
}
