package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/sim"
	"repro/internal/units"
)

// randomizedOTEM builds a controller with a captured random-but-physical
// plant state and forecast.
func randomizedOTEM(t *testing.T, rng *rand.Rand) *OTEM {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Horizon = 20
	cfg.BlockSize = 5
	o, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plant, err := sim.NewPlant(sim.PlantConfig{})
	if err != nil {
		t.Fatal(err)
	}
	plant.HEES.Battery.SoC = 0.3 + 0.65*rng.Float64()
	plant.HEES.Cap.SoE = 0.15 + 0.8*rng.Float64()
	plant.Loop.BatteryTemp = units.CToK(20 + 20*rng.Float64())
	plant.Loop.CoolantTemp = plant.Loop.BatteryTemp - 2*rng.Float64()
	o.roll.capture(plant, o.cfg)
	for k := range o.fc {
		o.fc[k] = -30e3 + 110e3*rng.Float64()
	}
	return o
}

// replayTape runs a one-lane forward pass at z and returns a copy of the
// recorded tape and the cost.
func replayTape(o *OTEM, z []float64) ([]stepTape, float64) {
	cost := o.objective(z)
	return append([]stepTape(nil), o.tapes[0][:o.cfg.Horizon]...), cost
}

func TestObjectiveFwdMatchesObjective(t *testing.T) {
	// The taped forward pass must be bit-identical to the plain objective.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		o := randomizedOTEM(t, rng)
		z := make([]float64, o.planner.Spec().Dim())
		for i := range z {
			if i%2 == 0 {
				z[i] = -1 + 2*rng.Float64()
			} else {
				z[i] = rng.Float64()
			}
		}
		plain := o.objective(z)
		_, taped := replayTape(o, z)
		if plain != taped {
			t.Fatalf("trial %d: taped forward %v != plain %v", trial, taped, plain)
		}
	}
}

// numericGradient writes a central-difference approximation of the
// gradient of f at x into grad. x is used as scratch but restored before
// returning.
func numericGradient(f func([]float64) float64, x, grad []float64) {
	const hBase = 6.055454452393343e-06 // cbrt(2^-52)
	for i := range x {
		xi := x[i]
		h := hBase * (1 + math.Abs(xi))
		x[i] = xi + h
		fp := f(x)
		x[i] = xi - h
		fm := f(x)
		x[i] = xi
		grad[i] = (fp - fm) / (2 * h)
	}
}

// fdGrad is a gradient of central differences of f over its own scratch.
func fdGrad(f func([]float64) float64, dim int) func(z, g []float64) {
	scratch := make([]float64, dim)
	return func(z, g []float64) {
		copy(scratch, z)
		numericGradient(f, scratch, g)
	}
}

func TestAnalyticGradientMatchesNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	worstRel := 0.0
	for trial := 0; trial < 40; trial++ {
		o := randomizedOTEM(t, rng)
		dim := o.planner.Spec().Dim()
		z := make([]float64, dim)
		for i := range z {
			if i%2 == 0 {
				z[i] = -0.9 + 1.8*rng.Float64()
			} else {
				z[i] = 0.05 + 0.9*rng.Float64()
			}
		}
		analytic := make([]float64, dim)
		costA := o.objectiveGrad(z, analytic)
		costF := o.objective(z)
		if math.Abs(costA-costF) > 1e-9*math.Abs(costF) {
			t.Fatalf("trial %d: gradient forward cost %v != objective %v", trial, costA, costF)
		}
		numeric := make([]float64, dim)
		zCopy := append([]float64(nil), z...)
		numericGradient(o.objective, zCopy, numeric)

		scale := 0.0
		for i := range numeric {
			scale = math.Max(scale, math.Abs(numeric[i]))
		}
		if scale == 0 {
			continue
		}
		for i := range numeric {
			rel := math.Abs(analytic[i]-numeric[i]) / scale
			if rel > worstRel {
				worstRel = rel
			}
			// Finite differences near clamp kinks legitimately disagree;
			// the tolerance below is loose enough for smooth regions and a
			// few trials crossing kinks still pass on the max-scale metric.
			if rel > 2e-3 {
				t.Fatalf("trial %d dim %d: analytic %v vs numeric %v (rel %.2e, scale %.3g)",
					trial, i, analytic[i], numeric[i], rel, scale)
			}
		}
	}
	t.Logf("worst relative gradient deviation: %.3e", worstRel)
}

func TestAnalyticGradientMatchesOnRegenAndSaturation(t *testing.T) {
	// Exercise the regen (negative request) and saturated-control corners.
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		o := randomizedOTEM(t, rng)
		for k := range o.fc {
			o.fc[k] = -40e3 // heavy regen throughout
		}
		dim := o.planner.Spec().Dim()
		z := make([]float64, dim)
		for i := range z {
			if i%2 == 0 {
				z[i] = -0.8 // charging the capacitor hard
			} else {
				z[i] = 0.9
			}
		}
		analytic := make([]float64, dim)
		o.objectiveGrad(z, analytic)
		numeric := make([]float64, dim)
		numericGradient(o.objective, z, numeric)
		scale := 0.0
		for i := range numeric {
			scale = math.Max(scale, math.Abs(numeric[i]))
		}
		for i := range numeric {
			if math.Abs(analytic[i]-numeric[i]) > 2e-3*scale+1e-9 {
				t.Fatalf("regen trial %d dim %d: %v vs %v", trial, i, analytic[i], numeric[i])
			}
		}
	}
}

func TestAnalyticGradientProducesSameControl(t *testing.T) {
	// End to end: an OTEM run with the adjoint must match the headline
	// metrics of a numeric-gradient run closely (they may differ slightly
	// because optimizer paths diverge at round-off, but the physics must
	// agree).
	requests := make([]float64, 200)
	for i := range requests {
		requests[i] = 20e3 + 15e3*math.Sin(float64(i)/20)
	}
	run := func(numeric bool) sim.Result {
		cfg := DefaultConfig()
		cfg.Horizon = 20
		cfg.BlockSize = 5
		cfg.ReplanInterval = 5
		plant, err := sim.NewPlant(sim.PlantConfig{})
		if err != nil {
			t.Fatal(err)
		}
		ctrl, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if numeric {
			ctrl.gradFn = fdGrad(ctrl.objective, ctrl.planner.Spec().Dim())
		}
		res, err := sim.Run(plant, ctrl, requests, sim.Config{Horizon: 20})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run(false)
	n := run(true)
	if math.Abs(a.QlossPct-n.QlossPct) > 0.03*n.QlossPct {
		t.Errorf("adjoint run qloss %v deviates from numeric %v", a.QlossPct, n.QlossPct)
	}
	if math.Abs(a.HEESEnergyJ-n.HEESEnergyJ) > 0.03*n.HEESEnergyJ {
		t.Errorf("adjoint run energy %v deviates from numeric %v", a.HEESEnergyJ, n.HEESEnergyJ)
	}
}
