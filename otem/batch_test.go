package otem_test

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/otem"
)

// cheapSpecs returns a small batch of non-MPC runs (NYCC is the shortest
// cycle) so the batch tests stay fast.
func cheapSpecs() []otem.RunSpec {
	return []otem.RunSpec{
		{Method: otem.MethodologyParallel, Cycle: "NYCC"},
		{Method: otem.MethodologyCooling, Cycle: "NYCC"},
		{Method: otem.MethodologyDual, Cycle: "NYCC"},
		{Method: otem.MethodologyParallel, Cycle: "SC03"},
	}
}

func TestRunBatchDeterministicAcrossParallelism(t *testing.T) {
	specs := cheapSpecs()
	seq, err := otem.RunBatch(context.Background(), specs, otem.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := otem.RunBatch(context.Background(), specs, otem.WithParallelism(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(specs) || len(par) != len(specs) {
		t.Fatalf("lengths: %d, %d, want %d", len(seq), len(par), len(specs))
	}
	for i := range seq {
		if seq[i].Spec != specs[i] {
			t.Errorf("result %d: spec %+v out of order", i, seq[i].Spec)
		}
		if seq[i].Err != nil || par[i].Err != nil {
			t.Fatalf("result %d: errs %v, %v", i, seq[i].Err, par[i].Err)
		}
		a, b := seq[i].Result, par[i].Result
		a.Trace, b.Trace = nil, nil
		if !reflect.DeepEqual(a, b) {
			t.Errorf("result %d differs between parallelism 1 and 8:\n%+v\n%+v", i, a, b)
		}
	}
}

func TestRunBatchPerSpecErrors(t *testing.T) {
	specs := []otem.RunSpec{
		{Method: otem.MethodologyParallel, Cycle: "NYCC"},
		{Method: otem.MethodologyParallel, Cycle: "NOPE"},
		{Method: "Bogus", Cycle: "NYCC"},
	}
	batch, err := otem.RunBatch(context.Background(), specs, otem.WithParallelism(2))
	if err != nil {
		t.Fatalf("batch-level error for per-spec failures: %v", err)
	}
	if batch[0].Err != nil {
		t.Errorf("good spec failed: %v", batch[0].Err)
	}
	if !errors.Is(batch[1].Err, otem.ErrUnknownCycle) {
		t.Errorf("bad cycle: got %v, want ErrUnknownCycle", batch[1].Err)
	}
	if !errors.Is(batch[2].Err, otem.ErrUnknownBaseline) {
		t.Errorf("bad method: got %v, want ErrUnknownBaseline", batch[2].Err)
	}
}

func TestRunBatchCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already canceled: nothing should complete
	batch, err := otem.RunBatch(ctx, cheapSpecs())
	if batch != nil {
		t.Errorf("got %d results from canceled batch", len(batch))
	}
	if !errors.Is(err, otem.ErrCanceled) {
		t.Errorf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled wrapped", err)
	}
}

func TestRunBatchProgress(t *testing.T) {
	specs := cheapSpecs()
	var calls atomic.Int64
	last := 0
	_, err := otem.RunBatch(context.Background(), specs,
		otem.WithParallelism(4),
		otem.WithProgress(func(done, total int) {
			calls.Add(1)
			if done != last+1 || total != len(specs) {
				t.Errorf("progress(%d, %d) after done=%d", done, total, last)
			}
			last = done
		}))
	if err != nil {
		t.Fatal(err)
	}
	if int(calls.Load()) != len(specs) {
		t.Errorf("progress called %d times, want %d", calls.Load(), len(specs))
	}
}

func TestRunBatchEmpty(t *testing.T) {
	batch, err := otem.RunBatch(context.Background(), nil)
	if err != nil || len(batch) != 0 {
		t.Fatalf("empty batch: %v, %v", batch, err)
	}
}

func TestSimulateContextCancel(t *testing.T) {
	plant, err := otem.NewPlant(otem.PlantConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := otem.Baseline("parallel")
	if err != nil {
		t.Fatal(err)
	}
	requests, err := otem.PowerSeries("NYCC", 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := otem.SimulateContext(ctx, plant, ctrl, requests); !errors.Is(err, otem.ErrCanceled) {
		t.Errorf("err = %v, want ErrCanceled", err)
	}
}

func TestSentinelRoundTrips(t *testing.T) {
	if _, err := otem.CycleByName("NOPE"); !errors.Is(err, otem.ErrUnknownCycle) {
		t.Errorf("CycleByName: %v", err)
	}
	if _, err := otem.PowerSeries("NOPE", 1); !errors.Is(err, otem.ErrUnknownCycle) {
		t.Errorf("PowerSeries: %v", err)
	}
	if _, err := otem.Baseline("NOPE"); !errors.Is(err, otem.ErrUnknownBaseline) {
		t.Errorf("Baseline: %v", err)
	}
	if _, err := otem.ControllerFor("NOPE"); !errors.Is(err, otem.ErrUnknownBaseline) {
		t.Errorf("ControllerFor: %v", err)
	}
	if _, err := otem.RunContext(context.Background(), otem.RunSpec{Cycle: "NOPE"}); !errors.Is(err, otem.ErrUnknownCycle) {
		t.Errorf("RunContext: %v", err)
	}
}

func TestControllerFor(t *testing.T) {
	for _, m := range otem.Methodologies() {
		ctrl, err := otem.ControllerFor(m)
		if err != nil || ctrl == nil {
			t.Errorf("ControllerFor(%s): %v", m, err)
			continue
		}
		if ctrl.Name() != string(m) {
			t.Errorf("ControllerFor(%s).Name() = %q", m, ctrl.Name())
		}
	}
}

func TestFunctionalOptions(t *testing.T) {
	plant, err := otem.NewPlant(otem.PlantConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := otem.ControllerFor(otem.MethodologyParallel)
	if err != nil {
		t.Fatal(err)
	}
	requests, err := otem.PowerSeries("NYCC", 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := otem.Simulate(plant, ctrl, requests, otem.WithTrace(), otem.WithHorizon(16))
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Error("WithTrace: trace missing")
	}

	// Option order must not matter: the same options reversed on a fresh
	// plant reproduce the run.
	plant2, err := otem.NewPlant(otem.PlantConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ctrl2, err := otem.ControllerFor(otem.MethodologyParallel)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := otem.Simulate(plant2, ctrl2, requests, otem.WithHorizon(16), otem.WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	if res2.Trace == nil {
		t.Error("reordered options: trace missing")
	}
	if res.QlossPct != res2.QlossPct || res.Steps != res2.Steps {
		t.Errorf("reordered options diverged: %+v vs %+v", res.QlossPct, res2.QlossPct)
	}
}

func TestExploreDesignsContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := otem.ExploreDesignsContext(ctx, otem.DSEConfig{
		UltracapSizesF: []float64{10000},
		CoolerPowersW:  []float64{4e3},
		Cycle:          "NYCC",
		Repeats:        1,
	})
	if !errors.Is(err, otem.ErrCanceled) {
		t.Errorf("err = %v, want ErrCanceled", err)
	}
}
