package fleet

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/runner"
)

const (
	// fleetBenchVehicles is the `make fleet-bench` fleet size; the smoke
	// mode (plain `go test`) shrinks it so the suite stays fast.
	fleetBenchVehicles = 10000
	// fleetBenchTrials is how many alternating (per-vehicle, batched)
	// timing pairs the full bench runs; each path's committed time is the
	// minimum across trials, so a frequency dip during one trial cannot
	// fake a regression or a speedup.
	fleetBenchTrials = 3
	// fleetBenchAllocBudget is the committed ceiling on heap allocations
	// per vehicle-step. Unlike the core hot path, a fleet vehicle pays
	// per-vehicle setup (route synthesis, plant, one controller per day)
	// that amortizes over its route; the budget covers that amortized cost
	// plus the steady-state stepping, which allocates nothing.
	fleetBenchAllocBudget = 0.5
	// fleetBenchMinVehiclesPerSec is the committed throughput floor for
	// the batched serial rollout. Deliberately ~10× below the measured
	// rate so the gate catches order-of-magnitude regressions (an
	// accidental O(fleet) buffer, a controller rebuilt per step) without
	// flaking on slow CI machines.
	fleetBenchMinVehiclesPerSec = 300
	// fleetBenchMinBatchSpeedup is the committed floor on the batched
	// rollout's serial advantage over the per-vehicle reference path. The
	// structure-of-arrays rollout (shared forecast windows, lockstep AVX
	// bus solves) measures ≥1.7× here; the gate is set at 1.5× to catch a
	// batched path that quietly degrades to per-vehicle speed.
	fleetBenchMinBatchSpeedup = 1.5
)

// fleetBenchWorkerRun is one worker-count scaling measurement of the
// batched rollout, run on a fresh pool.
type fleetBenchWorkerRun struct {
	Workers int     `json:"workers"`
	Seconds float64 `json:"seconds"`
	Rate    float64 `json:"vehicles_per_sec"`
	Speedup float64 `json:"speedup_vs_serial_batched"`
}

// fleetBenchReport is the BENCH_fleet.json schema produced by
// `make fleet-bench`.
type fleetBenchReport struct {
	Benchmark       string                `json:"benchmark"`
	GOMAXPROCS      int                   `json:"gomaxprocs"`
	NumCPU          int                   `json:"num_cpu"`
	Vehicles        int                   `json:"vehicles"`
	Days            int                   `json:"days"`
	RouteSeconds    float64               `json:"route_seconds"`
	Method          string                `json:"method"`
	StepsPerRun     uint64                `json:"steps_per_run"`
	Digest          string                `json:"digest"`
	Trials          int                   `json:"trials_per_path"`
	PerVehicleSec   float64               `json:"per_vehicle_seconds"`
	PerVehicleRate  float64               `json:"per_vehicle_vehicles_per_sec"`
	BatchedSec      float64               `json:"batched_seconds"`
	BatchedRate     float64               `json:"batched_vehicles_per_sec"`
	BatchSpeedup    float64               `json:"batch_speedup"`
	MinBatchSpeedup float64               `json:"min_batch_speedup"`
	WorkerRuns      []fleetBenchWorkerRun `json:"worker_runs"`
	ScalingNote     string                `json:"scaling_note,omitempty"`
	AllocsPerStep   float64               `json:"allocs_per_vehicle_step"`
	AllocBudget     float64               `json:"alloc_budget_allocs_per_vehicle_step"`
	RateBudget      float64               `json:"min_vehicles_per_sec"`
}

// TestFleetBenchJSON is the `make fleet-bench` harness: a Monte Carlo
// fleet under the Parallel baseline, timed over alternating per-vehicle
// and batched serial rollouts (min across trials for each path), plus
// batched scaling runs at 1 and NumCPU workers on a fresh pool per
// setting. Vehicles/sec, the batched speedup and allocs per vehicle-step
// are written to the path in FLEET_BENCH_JSON. Without the environment
// variable the test runs a small smoke fleet (nothing written, no timing
// gates) so plain `go test ./...` stays fast. In both modes it fails when
// the per-vehicle-step allocation count exceeds the committed budget, and
// it re-checks the determinism contract: every run, at any batch width
// and worker count, must produce the same digest.
func TestFleetBenchJSON(t *testing.T) {
	out := os.Getenv("FLEET_BENCH_JSON")
	spec := Spec{
		Vehicles:     fleetBenchVehicles,
		Days:         1,
		Seed:         1,
		Method:       policy.MethodologyParallel,
		RouteSeconds: 600,
	}
	name := "FleetParallelBaseline"
	trials := fleetBenchTrials
	if out == "" {
		spec.Vehicles = 300
		spec.RouteSeconds = 120
		name = "FleetParallelBaseline/smoke"
		trials = 1
	}
	ctx := context.Background()

	// run rolls the fleet once on a fresh pool and reports elapsed time
	// and heap allocations. batch < 0 selects the per-vehicle reference
	// (serial, on the calling goroutine), 0 the DefaultBatch rollout.
	run := func(workers, batch int) (*Result, time.Duration, uint64) {
		pool := runner.New(runner.Workers(workers))
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		start := time.Now()
		var res *Result
		var err error
		if batch < 0 {
			res, err = runReference(ctx, spec)
		} else {
			res, err = RunWith(ctx, spec, Options{Pool: pool})
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		return res, elapsed, m1.Mallocs - m0.Mallocs
	}

	// Serial timing, per-vehicle vs batched, alternating so a machine
	// frequency shift hits both paths alike.
	var refRes, batRes *Result
	var batAllocs uint64
	minRef, minBat := time.Duration(1<<62), time.Duration(1<<62)
	for i := 0; i < trials; i++ {
		res, d, _ := run(1, -1)
		if d < minRef {
			minRef = d
		}
		refRes = res
		res, d, allocs := run(1, 0)
		if d < minBat {
			minBat = d
		}
		batRes, batAllocs = res, allocs
	}
	steps := refRes.Steps
	if steps == 0 {
		t.Fatal("fleet simulated zero steps")
	}
	if r, b := refRes.Digest(), batRes.Digest(); r != b {
		t.Fatalf("determinism violated: per-vehicle digest %s, batched digest %s", r, b)
	}

	// Batched scaling runs at distinct worker counts, fresh pool each. On
	// a single-CPU host GOMAXPROCS == 1 and the "parallel" run is a
	// second serial run — worker fan-out only helps with real cores, so
	// the report carries the core count alongside the rates.
	workerCounts := []int{1, runtime.NumCPU()}
	if workerCounts[1] == 1 {
		workerCounts = workerCounts[:1]
	}
	runs := make([]fleetBenchWorkerRun, 0, len(workerCounts))
	for _, w := range workerCounts {
		res, d, _ := run(w, 0)
		if g := res.Digest(); g != refRes.Digest() {
			t.Fatalf("determinism violated at %d workers: digest %s, want %s", w, g, refRes.Digest())
		}
		runs = append(runs, fleetBenchWorkerRun{
			Workers: w,
			Seconds: d.Seconds(),
			Rate:    float64(spec.Vehicles) / d.Seconds(),
			Speedup: minBat.Seconds() / d.Seconds(),
		})
	}

	allocsPerStep := float64(batAllocs) / float64(steps)
	report := fleetBenchReport{
		Benchmark:       name,
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		NumCPU:          runtime.NumCPU(),
		Vehicles:        spec.Vehicles,
		Days:            1,
		RouteSeconds:    spec.RouteSeconds,
		Method:          string(spec.Method),
		StepsPerRun:     steps,
		Digest:          refRes.Digest(),
		Trials:          trials,
		PerVehicleSec:   minRef.Seconds(),
		PerVehicleRate:  float64(spec.Vehicles) / minRef.Seconds(),
		BatchedSec:      minBat.Seconds(),
		BatchedRate:     float64(spec.Vehicles) / minBat.Seconds(),
		BatchSpeedup:    minRef.Seconds() / minBat.Seconds(),
		MinBatchSpeedup: fleetBenchMinBatchSpeedup,
		WorkerRuns:      runs,
		AllocsPerStep:   allocsPerStep,
		AllocBudget:     fleetBenchAllocBudget,
		RateBudget:      fleetBenchMinVehiclesPerSec,
	}
	if runtime.NumCPU() == 1 {
		report.ScalingNote = "single-CPU host: worker fan-out cannot exceed serial throughput"
	}
	t.Logf("%s: %d vehicles, %d steps, per-vehicle %.1f veh/s, batched %.1f veh/s (×%.2f), %.3f allocs/vehicle-step",
		name, spec.Vehicles, steps, report.PerVehicleRate, report.BatchedRate, report.BatchSpeedup, allocsPerStep)
	for _, r := range runs {
		t.Logf("  batched @ %d workers: %.1f veh/s", r.Workers, r.Rate)
	}

	if allocsPerStep > fleetBenchAllocBudget {
		t.Errorf("allocation regression: %.3f allocs/vehicle-step, budget %.2f", allocsPerStep, fleetBenchAllocBudget)
	}
	if out == "" {
		return
	}
	if report.BatchedRate < fleetBenchMinVehiclesPerSec {
		t.Errorf("throughput regression: batched %.1f vehicles/sec, committed floor %d",
			report.BatchedRate, fleetBenchMinVehiclesPerSec)
	}
	if report.BatchSpeedup < fleetBenchMinBatchSpeedup {
		t.Errorf("batched rollout regression: ×%.2f vs per-vehicle, committed floor ×%.1f",
			report.BatchSpeedup, fleetBenchMinBatchSpeedup)
	}
	raw, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", out)
}
