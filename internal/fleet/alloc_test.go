package fleet

import (
	"context"
	"testing"

	"repro/internal/policy"
	"repro/internal/runner"
)

// TestFleetAllocBudget holds a whole fleet run to fleetBenchAllocBudget
// heap allocations per vehicle-step on the benchmark's 600 s routes: an
// OTEM fleet, whose due lanes replan together through the packed rollout
// and its shared tapes, and a Parallel fleet, whose bus solves run
// batched. A run pays each vehicle's setup (route synthesis, plant,
// controller) and steps without allocating, so the count per step stays
// well below the budget; a hot path that started allocating per step or
// per replan would cross it.
func TestFleetAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec Spec
	}{
		{"OTEM", Spec{Vehicles: 6, Days: 1, Seed: 5, Method: policy.MethodologyOTEM, RouteSeconds: 600}},
		{"Parallel", Spec{Vehicles: 200, Days: 1, Seed: 5, Method: policy.MethodologyParallel, RouteSeconds: 600}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pool := runner.New(runner.Workers(1))
			var steps uint64
			allocs := testing.AllocsPerRun(2, func() {
				res, err := RunWith(context.Background(), tc.spec, Options{Pool: pool})
				if err != nil {
					t.Fatal(err)
				}
				steps = res.Steps
			})
			if steps == 0 {
				t.Fatal("fleet simulated zero steps")
			}
			perStep := allocs / float64(steps)
			t.Logf("%d vehicles, %d steps: %.0f allocs a run, %.4f per vehicle-step (budget %.2f)",
				tc.spec.Vehicles, steps, allocs, perStep, fleetBenchAllocBudget)
			if perStep > fleetBenchAllocBudget {
				t.Errorf("%.4f allocs per vehicle-step, budget %.2f", perStep, fleetBenchAllocBudget)
			}
		})
	}
}
