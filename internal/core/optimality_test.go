package core

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/units"
)

// TestPlannerBeatsExhaustiveGrid validates the inner solver end to end: on
// a realistic snapshot, the continuous optimiser's plan must cost no more
// than the best point of an exhaustive grid over the same blocked decision
// space (the grid is a lower-resolution search of the identical objective,
// so the continuous solution should match or beat it).
func TestPlannerBeatsExhaustiveGrid(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Horizon = 15
	cfg.BlockSize = 5 // 3 blocks × 2 inputs = 6 decision variables
	cfg.ReplanInterval = 5
	o, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plant, err := sim.NewPlant(sim.PlantConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// A demanding snapshot: warm battery, half-charged capacitor, burst in
	// the forecast.
	plant.Loop.BatteryTemp = units.CToK(34)
	plant.Loop.CoolantTemp = units.CToK(33)
	plant.HEES.Battery.SoC = 0.7
	plant.HEES.Cap.SoE = 0.5
	o.roll.capture(plant, o.cfg)
	for k := range o.fc {
		if k >= 5 && k < 10 {
			o.fc[k] = 70e3
		} else {
			o.fc[k] = 5e3
		}
	}

	// One plan on finite-difference gradients, one trial per Ask.
	if err := o.planner.Start(o.objective, fdGrad(o.objective, o.planner.Spec().Dim())); err != nil {
		t.Fatal(err)
	}
	var f [1]float64
	for pts := o.planner.Ask(1); len(pts) > 0; pts = o.planner.Ask(1) {
		f[0] = o.objective(pts[0])
		o.planner.Tell(f[:])
	}
	plan, _ := o.planner.Finish()
	planCost := o.objective(plan)

	// Exhaustive grid: 7 capU levels × 5 coolU levels per block = 35³
	// combinations.
	capLevels := []float64{-1, -0.5, -0.2, 0, 0.2, 0.5, 1}
	coolLevels := []float64{0, 0.25, 0.5, 0.75, 1}
	z := make([]float64, 6)
	best := planCost + 1e18
	for _, c0 := range capLevels {
		for _, k0 := range coolLevels {
			for _, c1 := range capLevels {
				for _, k1 := range coolLevels {
					for _, c2 := range capLevels {
						for _, k2 := range coolLevels {
							z[0], z[1] = c0, k0
							z[2], z[3] = c1, k1
							z[4], z[5] = c2, k2
							if f := o.objective(z); f < best {
								best = f
							}
						}
					}
				}
			}
		}
	}
	// Allow a hair of slack for line-search termination.
	if planCost > best*1.0005 {
		t.Errorf("planner cost %.0f exceeds exhaustive grid best %.0f", planCost, best)
	}
}
