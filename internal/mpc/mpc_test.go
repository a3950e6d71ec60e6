package mpc

import (
	"math"
	"testing"

	"repro/internal/optimize"
)

func spec2() Spec {
	return Spec{
		Horizon:       20,
		BlockSize:     5,
		InputsPerStep: 2,
		Lower:         []float64{-1, 0},
		Upper:         []float64{1, 10},
	}
}

// plan minimises Σ (z_i − target_i)² the way a caller that evaluates one
// point at a time drives it: Start, then Ask and Tell until Done, then
// Finish.
func plan(p *Planner, target []float64) ([]float64, *optimize.Result, error) {
	objective := func(z []float64) float64 {
		var f float64
		for i := range z {
			f += (z[i] - target[i]) * (z[i] - target[i])
		}
		return f
	}
	grad := func(z, g []float64) {
		for i := range z {
			g[i] = 2 * (z[i] - target[i])
		}
	}
	if err := p.Start(objective, grad); err != nil {
		return nil, nil, err
	}
	var f [1]float64
	for pts := p.Ask(1); len(pts) > 0; pts = p.Ask(1) {
		f[0] = objective(pts[0])
		p.Tell(f[:])
	}
	z, res := p.Finish()
	return z, res, nil
}

func TestSpecValidate(t *testing.T) {
	if err := spec2().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := spec2()
	bad.Horizon = 0
	if bad.Validate() == nil {
		t.Error("zero horizon accepted")
	}
	bad = spec2()
	bad.BlockSize = -1
	if bad.Validate() == nil {
		t.Error("negative block accepted")
	}
	bad = spec2()
	bad.Lower = []float64{0}
	if bad.Validate() == nil {
		t.Error("bounds length mismatch accepted")
	}
	bad = spec2()
	bad.Lower = []float64{2, 0}
	if bad.Validate() == nil {
		t.Error("inverted bounds accepted")
	}
	bad = spec2()
	bad.InputsPerStep = 0
	if bad.Validate() == nil {
		t.Error("zero inputs accepted")
	}
}

func TestSpecGeometry(t *testing.T) {
	s := spec2()
	if s.Blocks() != 4 {
		t.Errorf("Blocks = %d, want 4", s.Blocks())
	}
	if s.Dim() != 8 {
		t.Errorf("Dim = %d, want 8", s.Dim())
	}
	// Uneven horizon rounds up.
	s.Horizon = 21
	if s.Blocks() != 5 {
		t.Errorf("Blocks(21/5) = %d, want 5", s.Blocks())
	}
}

func TestInputAt(t *testing.T) {
	s := spec2()
	z := []float64{
		10, 11, // block 0
		20, 21, // block 1
		30, 31, // block 2
		40, 41, // block 3
	}
	cases := []struct {
		step, input int
		want        float64
	}{
		{0, 0, 10}, {0, 1, 11},
		{4, 0, 10},  // last step of block 0
		{5, 1, 21},  // first step of block 1
		{19, 0, 40}, // last step
		{25, 1, 41}, // beyond horizon clamps to last block
	}
	for _, tc := range cases {
		if got := s.InputAt(z, tc.step, tc.input); got != tc.want {
			t.Errorf("InputAt(step=%d,input=%d) = %v, want %v", tc.step, tc.input, got, tc.want)
		}
	}
}

func TestPlannerRejectsBadSpec(t *testing.T) {
	bad := spec2()
	bad.Horizon = -1
	if _, err := NewPlanner(bad); err == nil {
		t.Error("invalid spec accepted")
	}
}

func TestPlannerSolvesSeparableQuadratic(t *testing.T) {
	p, err := NewPlanner(spec2())
	if err != nil {
		t.Fatal(err)
	}
	// Optimal: input0 = 0.5 in every block, input1 = 3.
	z, res, err := plan(p, []float64{0.5, 3, 0.5, 3, 0.5, 3, 0.5, 3})
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 4; b++ {
		if math.Abs(z[2*b]-0.5) > 1e-4 || math.Abs(z[2*b+1]-3) > 1e-4 {
			t.Errorf("block %d = (%v, %v), want (0.5, 3); status %v", b, z[2*b], z[2*b+1], res.Status)
		}
	}
}

func TestPlannerRespectsBounds(t *testing.T) {
	p, _ := NewPlanner(spec2())
	// Unconstrained optimum outside the box at (5, -5).
	z, _, err := plan(p, []float64{5, -5, 5, -5, 5, -5, 5, -5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(z); i += 2 {
		if z[i] > 1+1e-9 || z[i+1] < -1e-9 {
			t.Errorf("bounds violated at %d: (%v, %v)", i, z[i], z[i+1])
		}
	}
}

func TestPlannerWarmStartSpeedsReplan(t *testing.T) {
	p, _ := NewPlanner(spec2())
	target := []float64{0.25, 0.25, 0.25, 0.25, 0.25, 0.25, 0.25, 0.25}
	_, first, err := plan(p, target)
	if err != nil {
		t.Fatal(err)
	}
	_, second, err := plan(p, target)
	if err != nil {
		t.Fatal(err)
	}
	if second.FuncEvals > first.FuncEvals {
		t.Errorf("warm-started replan used %d evals, cold used %d", second.FuncEvals, first.FuncEvals)
	}
}

func TestPlannerAdvanceShiftsBlocks(t *testing.T) {
	p, _ := NewPlanner(spec2())
	z, _, err := plan(p, []float64{1, 1, -1, 2, 0.5, 3, -0.5, 4})
	if err != nil {
		t.Fatal(err)
	}
	before := append([]float64(nil), z...)
	// Advance one full block (5 steps): block1 moves to block0 etc.,
	// last block repeated.
	p.Advance(5)
	if math.Abs(p.warm[0]-before[2]) > 1e-12 || math.Abs(p.warm[1]-before[3]) > 1e-12 {
		t.Errorf("block 0 after Advance = (%v,%v), want old block 1 (%v,%v)",
			p.warm[0], p.warm[1], before[2], before[3])
	}
	if math.Abs(p.warm[6]-before[6]) > 1e-12 || math.Abs(p.warm[7]-before[7]) > 1e-12 {
		t.Errorf("tail should repeat last block")
	}
}

func TestPlannerAdvancePartialBlockNoop(t *testing.T) {
	p, _ := NewPlanner(spec2())
	if _, _, err := plan(p, make([]float64, 8)); err != nil {
		t.Fatal(err)
	}
	before := append([]float64(nil), p.warm...)
	p.Advance(3) // less than BlockSize 5
	for i := range before {
		if p.warm[i] != before[i] {
			t.Fatal("partial-block Advance mutated warm start")
		}
	}
}

func TestPlannerAdvanceBeyondHorizon(t *testing.T) {
	p, _ := NewPlanner(spec2())
	if _, _, err := plan(p, []float64{0, 0, 0, 0, 0, 0, 0.9, 7}); err != nil {
		t.Fatal(err)
	}
	p.Advance(100)
	// Whole plan executed: every block should now equal the old last block.
	for b := 0; b < 4; b++ {
		if math.Abs(p.warm[2*b]-0.9) > 1e-4 || math.Abs(p.warm[2*b+1]-7) > 1e-4 {
			t.Errorf("block %d = (%v,%v), want (0.9,7)", b, p.warm[2*b], p.warm[2*b+1])
		}
	}
}

func TestPlannerColdStartAtMidpoint(t *testing.T) {
	p, _ := NewPlanner(spec2())
	// Midpoint of bounds: (0, 5) in every block.
	for b := 0; b < 4; b++ {
		if p.warm[2*b] != 0 || p.warm[2*b+1] != 5 {
			t.Errorf("cold warm start block %d = (%v, %v), want (0, 5)", b, p.warm[2*b], p.warm[2*b+1])
		}
	}
	// Advance before any plan must be a no-op (no plan to shift).
	p.Advance(10)
	if p.warm[0] != 0 || p.warm[1] != 5 {
		t.Error("Advance before a plan mutated the default warm start")
	}
}

func TestPlanNilObjective(t *testing.T) {
	p, _ := NewPlanner(spec2())
	if err := p.Start(nil, nil); err == nil {
		t.Error("nil objective accepted")
	}
	if err := p.Start(func([]float64) float64 { return 0 }, nil); err == nil {
		t.Error("nil gradient accepted")
	}
}
