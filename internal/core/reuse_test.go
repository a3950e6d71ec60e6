package core

import (
	"testing"

	"repro/internal/sim"
)

// warmOTEM builds a plant and a controller and runs enough warm replans that
// every internal buffer has reached its steady-state size.
func warmOTEM(tb testing.TB) (*OTEM, *sim.Plant, []float64) {
	tb.Helper()
	plant, err := sim.NewPlant(sim.PlantConfig{})
	if err != nil {
		tb.Fatal(err)
	}
	o, err := New(DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	forecast := make([]float64, o.cfg.Horizon)
	for k := range forecast {
		forecast[k] = 30e3
	}
	for i := 0; i < 3; i++ {
		o.replan(plant, forecast)
	}
	return o, plant, forecast
}

// TestReplanReusesBuffers pins the tentpole invariant behind the zero-alloc
// numbers: once warm, successive replans write into the same backing arrays —
// the tape, the plan, the forecast pad and the tape key are never reallocated.
// Identity is checked by element address, which is stable exactly when the
// backing array is reused (no unsafe needed).
func TestReplanReusesBuffers(t *testing.T) {
	o, plant, forecast := warmOTEM(t)

	tape0 := &o.tape[0]
	var tapeZ0 [maxSpec]*float64
	for j := range o.tapeZ {
		if o.tapeZ[j] != nil {
			tapeZ0[j] = &o.tapeZ[j][0]
		}
	}
	plan0 := &o.plan[0]
	fc0 := &o.fc[0]
	planCap := cap(o.plan)

	for i := 0; i < 2; i++ {
		o.replan(plant, forecast)
		if &o.tape[0] != tape0 {
			t.Fatalf("replan %d reallocated the tape", i)
		}
		for j := range o.tapeZ {
			if tapeZ0[j] != nil && &o.tapeZ[j][0] != tapeZ0[j] {
				t.Fatalf("replan %d reallocated slot %d's tape key", i, j)
			}
		}
		if &o.plan[0] != plan0 || cap(o.plan) != planCap {
			t.Fatalf("replan %d reallocated the plan buffer", i)
		}
		if &o.fc[0] != fc0 {
			t.Fatalf("replan %d reallocated the forecast pad", i)
		}
	}
}

// TestReplanSteadyStateAllocsZero is the headline acceptance check: a warm
// replan — rollout capture, forecast pad, warm-started L-BFGS solve with
// adjoint gradients, plan copy-out — performs zero heap allocations.
func TestReplanSteadyStateAllocsZero(t *testing.T) {
	o, plant, forecast := warmOTEM(t)
	allocs := testing.AllocsPerRun(10, func() {
		o.replan(plant, forecast)
	})
	if allocs > 0 {
		t.Errorf("warm replan allocated %.1f times per run, want 0", allocs)
	}
}

// TestTapeReuseSkipsForwardPass verifies the tape cache is both hit and
// correct: a gradient request at the decision vector the objective last
// evaluated must produce exactly the gradient of a cold evaluation.
func TestTapeReuseSkipsForwardPass(t *testing.T) {
	o, _, _ := warmOTEM(t)

	z := make([]float64, o.prob.Dim)
	for i := range z {
		z[i] = 0.25
	}
	// Objective records the tape at z; the gradient call should reuse it.
	cost := o.objective(z)
	if o.tapeLane(z) != 0 {
		t.Fatal("tape not recorded by objective evaluation")
	}
	gWarm := make([]float64, len(z))
	if got := o.objectiveGrad(z, gWarm); got != cost {
		t.Fatalf("cached forward cost = %v, want %v", got, cost)
	}

	// Invalidate the cache and recompute from scratch.
	o.tapeLanes = 0
	gCold := make([]float64, len(z))
	costCold := o.objectiveGrad(z, gCold)
	if costCold != cost {
		t.Fatalf("cold forward cost = %v, want %v", costCold, cost)
	}
	for i := range gCold {
		if gWarm[i] != gCold[i] {
			t.Fatalf("grad[%d]: cached %v != cold %v", i, gWarm[i], gCold[i])
		}
	}
}
