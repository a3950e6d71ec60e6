package core

import (
	"testing"

	"repro/internal/drivecycle"
	"repro/internal/sim"
	"repro/internal/vehicle"
)

// uddsRequests returns the bus-power series of one UDDS repetition — the
// canonical workload for the simulation benchmarks (mild urban cycle, so the
// run exercises both battery-only cruising and capacitor-assisted bursts).
func uddsRequests(tb testing.TB) []float64 {
	tb.Helper()
	return vehicle.MidSizeEV().PowerSeries(drivecycle.UDDS())
}

// benchPlant builds the default paper plant.
func benchPlant(tb testing.TB) *sim.Plant {
	tb.Helper()
	plant, err := sim.NewPlant(sim.PlantConfig{})
	if err != nil {
		tb.Fatal(err)
	}
	return plant
}

// BenchmarkSimStep measures the steady-state cost of one simulated second
// under the OTEM controller: each outer iteration runs a 600-step UDDS
// window on a fresh plant, so ns/op ÷ 600 is the per-step cost including
// every 4th-step replan.
func BenchmarkSimStep(b *testing.B) {
	requests := uddsRequests(b)[:600]
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plant := benchPlant(b)
		o, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.Run(plant, o, requests, sim.Config{Horizon: cfg.Horizon})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.Steps), "steps/op")
		}
	}
}

const (
	// driveAllocsPerStep is the ceiling on steady-state heap allocations
	// per simulated step. The hot path (replan + plant step) allocates
	// nothing once warm, so per-run allocations are dominated by the fixed
	// plant/controller construction; 0.05 allocs/step leaves room for
	// measurement noise while still failing on a single stray per-replan
	// allocation (≈0.25/step at ReplanInterval 4).
	driveAllocsPerStep = 0.05
	// driveSetupAllocs covers the one-time construction cost per run
	// (plant, controller, solver buffers) that is independent of the step
	// count.
	driveSetupAllocs = 120
)

// TestDriveCycleAllocBudget is the end-to-end zero-allocation contract of
// the OTEM hot path: a full UDDS route under OTEM, plant and controller
// built fresh each run, allocates at most driveSetupAllocs plus
// driveAllocsPerStep per step. allocflow proves the replan and step loops
// allocation-free at compile time; this counts what a whole run really
// allocates.
func TestDriveCycleAllocBudget(t *testing.T) {
	requests := uddsRequests(t)
	cfg := DefaultConfig()
	steps := 0
	allocs := testing.AllocsPerRun(1, func() {
		o, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := sim.Run(benchPlant(t), o, requests, sim.Config{Horizon: cfg.Horizon})
		if err != nil {
			t.Fatal(err)
		}
		steps = r.Steps
	})
	limit := driveSetupAllocs + driveAllocsPerStep*float64(steps)
	t.Logf("UDDS under OTEM: %d steps, %.0f allocs/run (%.3f/step), limit %.1f", steps, allocs, allocs/float64(steps), limit)
	if allocs > limit {
		t.Errorf("allocation regression: %.0f allocs/run over %d steps, limit %.1f (%.2f allocs/step + %d setup)",
			allocs, steps, limit, driveAllocsPerStep, driveSetupAllocs)
	}
}

// BenchmarkDriveCycle measures a full UDDS route under OTEM, the route
// TestDriveCycleAllocBudget counts allocations on; ns/op ÷ steps/op is the
// per-step cost.
func BenchmarkDriveCycle(b *testing.B) {
	requests := uddsRequests(b)
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plant := benchPlant(b)
		o, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.Run(plant, o, requests, sim.Config{Horizon: cfg.Horizon})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.Steps), "steps/op")
		}
	}
}
