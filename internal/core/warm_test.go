package core

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/units"
)

// shortOTEM is a shortConfig controller: horizon 20 in blocks of 5, so 4
// blocks × 2 inputs = 8 decision variables.
func shortOTEM(t *testing.T) *OTEM {
	t.Helper()
	o, err := New(shortConfig())
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// setWarm writes block b's inputs as (10(b+1), 10(b+1)+1), so every entry
// of the warm start names its block and input.
func setWarm(o *OTEM) {
	for b := 0; b < o.blocks; b++ {
		o.warm[b*inputs] = float64(10 * (b + 1))
		o.warm[b*inputs+1] = float64(10*(b+1) + 1)
	}
}

func TestDecisionGeometry(t *testing.T) {
	o := shortOTEM(t)
	if o.blocks != 4 || o.prob.Dim != 8 || len(o.warm) != 8 {
		t.Errorf("blocks %d, dim %d, warm %d; want 4, 8, 8", o.blocks, o.prob.Dim, len(o.warm))
	}
	// An uneven horizon rounds up.
	cfg := shortConfig()
	cfg.Horizon = 21
	o, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if o.blocks != 5 || o.prob.Dim != 10 {
		t.Errorf("horizon 21 / block 5: blocks %d, dim %d; want 5, 10", o.blocks, o.prob.Dim)
	}
}

func TestBlockOf(t *testing.T) {
	o := shortOTEM(t)
	for _, tc := range []struct{ step, want int }{
		{0, 0},
		{4, 0},  // last step of block 0
		{5, 1},  // first step of block 1
		{19, 3}, // last step of the horizon
		{25, 3}, // beyond the horizon clamps to the last block
	} {
		if got := o.blockOf(tc.step); got != tc.want {
			t.Errorf("blockOf(%d) = %d, want %d", tc.step, got, tc.want)
		}
	}
}

func TestColdStartAtMidpoint(t *testing.T) {
	o := shortOTEM(t)
	// The bounds are [-1, 1] × [0, 1]: the midpoint is (0, 0.5).
	check := func(when string) {
		t.Helper()
		for b := 0; b < o.blocks; b++ {
			if o.warm[2*b] != 0 || o.warm[2*b+1] != 0.5 {
				t.Errorf("%s: warm block %d = (%v, %v), want (0, 0.5)", when, b, o.warm[2*b], o.warm[2*b+1])
			}
		}
	}
	check("cold")
	// Shifting the cold start before any plan leaves it as it is.
	o.AdvanceWarmStart(10)
	check("after AdvanceWarmStart(10)")
}

func TestAdvanceWarmShiftsBlocks(t *testing.T) {
	o := shortOTEM(t)
	setWarm(o)
	// One whole block (5 steps): block 1 moves to block 0 and so on, and
	// the last block is repeated into the tail.
	o.AdvanceWarmStart(5)
	want := []float64{20, 21, 30, 31, 40, 41, 40, 41}
	for i, w := range want {
		if o.warm[i] != w {
			t.Fatalf("warm after AdvanceWarmStart(5) = %v, want %v", o.warm, want)
		}
	}
	// Two blocks and a part (12 steps) shift by two.
	setWarm(o)
	o.AdvanceWarmStart(12)
	want = []float64{30, 31, 40, 41, 40, 41, 40, 41}
	for i, w := range want {
		if o.warm[i] != w {
			t.Fatalf("warm after AdvanceWarmStart(12) = %v, want %v", o.warm, want)
		}
	}
}

func TestAdvanceWarmPartialBlockNoop(t *testing.T) {
	o := shortOTEM(t)
	setWarm(o)
	before := append([]float64(nil), o.warm...)
	for _, steps := range []int{-3, 0, 3} { // less than BlockSize 5
		o.AdvanceWarmStart(steps)
		for i := range before {
			if o.warm[i] != before[i] {
				t.Fatalf("AdvanceWarmStart(%d) mutated the warm start: %v, was %v", steps, o.warm, before)
			}
		}
	}
}

func TestAdvanceWarmBeyondHorizon(t *testing.T) {
	o := shortOTEM(t)
	for _, steps := range []int{20, 100} {
		setWarm(o)
		// The whole plan executed: every block holds the old last block.
		o.AdvanceWarmStart(steps)
		for b := 0; b < o.blocks; b++ {
			if o.warm[2*b] != 40 || o.warm[2*b+1] != 41 {
				t.Errorf("advance %d: block %d = (%v, %v), want (40, 41)", steps, b, o.warm[2*b], o.warm[2*b+1])
			}
		}
	}
}

// TestPlansRespectBounds replans from states and forecasts that pull the
// inputs against their boxes — a hot battery under a burst (full
// ultracapacitor discharge, full cooling) and a cold one in steady regen
// (no cooling) — and checks every plan stays inside [-1, 1] × [0, 1] and
// some input of it sits on a bound.
func TestPlansRespectBounds(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tempC  float64
		demand float64
	}{
		{"hot burst", 45, 120e3},
		{"cold regen", 10, -60e3},
	} {
		plant, err := sim.NewPlant(sim.PlantConfig{InitialTemp: units.CToK(tc.tempC)})
		if err != nil {
			t.Fatal(err)
		}
		o := shortOTEM(t)
		forecast := fill(o.cfg.Horizon, tc.demand)
		for i := 0; i < 3; i++ {
			o.replan(plant, forecast)
			onBound := false
			for b := 0; b < o.blocks; b++ {
				capU, coolU := o.plan[2*b], o.plan[2*b+1]
				if capU < -1 || capU > 1 || coolU < 0 || coolU > 1 {
					t.Errorf("%s replan %d: block %d = (%v, %v) outside [-1, 1] × [0, 1]", tc.name, i, b, capU, coolU)
				}
				onBound = onBound || capU == -1 || capU == 1 || coolU == 0 || coolU == 1
			}
			if !onBound {
				t.Errorf("%s replan %d: plan %v touches no bound", tc.name, i, o.plan)
			}
		}
	}
}
