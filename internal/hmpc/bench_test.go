package hmpc

import (
	"testing"

	"repro/internal/sim"
)

// BenchmarkPlanRoute measures the cold outer solve: route synthesis,
// preview, planner construction and the route-start plan — the latency a
// POST /v1/plan cache miss pays.
func BenchmarkPlanRoute(b *testing.B) {
	spec := Spec{Cycle: "UDDS", AmbientK: 308}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PlanRoute(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWarmOuterReplan measures the steady-state outer replan on a
// drifting plant — the per-block cost the hierarchical controller pays
// mid-route. The warm path must not allocate.
func BenchmarkWarmOuterReplan(b *testing.B) {
	pl, plant := buildBenchPlanner(b, Spec{Usage: "commuter", RouteSeconds: 600, AmbientK: 305})
	if err := pl.Replan(plant, 0); err != nil {
		b.Fatal(err)
	}
	step := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step += pl.blockSteps
		plant.HEES.Battery.SoC -= 1e-5
		plant.Loop.BatteryTemp += 0.002
		if err := pl.Replan(plant, step); err != nil {
			b.Fatal(err)
		}
	}
}

// buildBenchPlanner mirrors buildPlanner for benchmarks.
func buildBenchPlanner(tb testing.TB, spec Spec) (*Planner, *sim.Plant) {
	tb.Helper()
	ctrl, plant, _, err := Build(spec)
	if err != nil {
		tb.Fatal(err)
	}
	return ctrl.planner, plant
}
