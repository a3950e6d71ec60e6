package dse

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/runner"
)

func TestCostModel(t *testing.T) {
	c := DefaultCostModel()
	d := Design{UltracapF: 20000, CoolerMaxPower: 8000}
	want := 0.6*20000 + 0.25*8000
	if got := c.Price(d); got != want {
		t.Errorf("Price = %v, want %v", got, want)
	}
}

func TestParetoFrontDominance(t *testing.T) {
	evals := []Evaluation{
		{Design: Design{UltracapF: 1}, CostDollars: 100, QlossPct: 1.0},                  // 0: dominated by 2
		{Design: Design{UltracapF: 2}, CostDollars: 200, QlossPct: 0.5},                  // 1: on front
		{Design: Design{UltracapF: 3}, CostDollars: 100, QlossPct: 0.8},                  // 2: on front (cheapest)
		{Design: Design{UltracapF: 4}, CostDollars: 300, QlossPct: 0.4},                  // 3: on front (best loss)
		{Design: Design{UltracapF: 5}, CostDollars: 50, QlossPct: 0.3, ViolationSec: 10}, // 4: infeasible
		{Design: Design{UltracapF: 6}, CostDollars: 400, QlossPct: 0.6},                  // 5: dominated by 1 and 3
	}
	front := paretoFront(evals)
	want := []int{2, 1, 3} // sorted by cost
	if len(front) != len(want) {
		t.Fatalf("front = %v, want %v", front, want)
	}
	for i := range want {
		if front[i] != want[i] {
			t.Fatalf("front = %v, want %v", front, want)
		}
	}
}

func TestParetoFrontAllInfeasible(t *testing.T) {
	evals := []Evaluation{
		{CostDollars: 1, QlossPct: 1, ViolationSec: 5},
	}
	if front := paretoFront(evals); len(front) != 0 {
		t.Errorf("front = %v, want empty", front)
	}
	r := &Result{Evaluations: evals}
	if _, err := r.Best(1.1); err != ErrEmptyFront {
		t.Errorf("Best on empty front: %v", err)
	}
}

func TestBestPicksCheapWithinSlack(t *testing.T) {
	evals := []Evaluation{
		{CostDollars: 100, QlossPct: 0.50},
		{CostDollars: 200, QlossPct: 0.46},
		{CostDollars: 400, QlossPct: 0.44},
	}
	r := &Result{Evaluations: evals, ParetoIdx: []int{0, 1, 2}}
	// Within 15 % of the best loss (0.44·1.15 = 0.506): the $100 design
	// qualifies.
	best, err := r.Best(1.15)
	if err != nil {
		t.Fatal(err)
	}
	if best.CostDollars != 100 {
		t.Errorf("Best = %+v, want the $100 design", best)
	}
	// Tight slack: only the $400 design qualifies.
	best, err = r.Best(1.001)
	if err != nil {
		t.Fatal(err)
	}
	if best.CostDollars != 400 {
		t.Errorf("tight Best = %+v, want the $400 design", best)
	}
}

func TestExploreSmallGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("MPC grid; skipped in -short")
	}
	res, err := ExploreContext(context.Background(), Config{
		UltracapSizesF: []float64{5000, 25000},
		CoolerPowersW:  []float64{4e3, 8e3},
		Cycle:          "US06",
		Repeats:        2,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Evaluations) != 4 {
		t.Fatalf("evaluations = %d", len(res.Evaluations))
	}
	for _, e := range res.Evaluations {
		if e.QlossPct <= 0 || e.CostDollars <= 0 {
			t.Errorf("degenerate evaluation: %+v", e)
		}
	}
	if len(res.ParetoIdx) == 0 {
		t.Fatal("empty Pareto front")
	}
	// The frontier must be sorted by cost with non-increasing loss.
	for k := 1; k < len(res.ParetoIdx); k++ {
		a := res.Evaluations[res.ParetoIdx[k-1]]
		b := res.Evaluations[res.ParetoIdx[k]]
		if b.CostDollars < a.CostDollars {
			t.Error("frontier not sorted by cost")
		}
		if b.QlossPct >= a.QlossPct {
			t.Error("frontier loss should strictly improve with cost")
		}
	}
	var sb strings.Builder
	res.Write(&sb)
	if !strings.Contains(sb.String(), "Design-space exploration") {
		t.Error("Write output malformed")
	}
}

func TestExploreUnknownCycle(t *testing.T) {
	if _, err := ExploreContext(context.Background(), Config{Cycle: "MOON"}, nil); err == nil {
		t.Error("unknown cycle accepted")
	}
}

// TestRepeatCount pins the repeat-count rule: zero asks for the default
// (and shares its canonical key), a negative count is an error. The
// context is already canceled, so a spec that gets past validation fails
// with runner.ErrCanceled before simulating anything.
func TestRepeatCount(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	key := func(c Config) string { return string(c.AppendCanonical(nil)) }
	if key(Config{}) != key(Config{Repeats: 3}) {
		t.Errorf("zero repeats keyed %q, want the default's %q", key(Config{}), key(Config{Repeats: 3}))
	}
	if _, err := ExploreContext(ctx, Config{}, nil); !errors.Is(err, runner.ErrCanceled) {
		t.Errorf("zero repeats: err = %v, want runner.ErrCanceled", err)
	}
	bad := Config{Repeats: -2}
	if key(bad) == key(Config{}) {
		t.Errorf("repeats -2 shares the default's key %q", key(bad))
	}
	if _, err := ExploreContext(ctx, bad, nil); err == nil || errors.Is(err, runner.ErrCanceled) {
		t.Errorf("repeats -2: err = %v, want a validation error", err)
	}
}
