package sim_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/runner"
	"repro/internal/sim"
)

// batchTestRoute synthesises a deterministic mixed route: discharge ramps,
// regen dips, idle stretches and an infeasible spike that exercises the
// battery fallback.
func batchTestRoute(seed int64, steps int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, steps)
	for i := range out {
		switch rng.Intn(6) {
		case 0:
			out[i] = -15e3 * rng.Float64() // regen
		case 1:
			out[i] = 0 // idle
		default:
			out[i] = 45e3 * rng.Float64() // drive
		}
	}
	return out
}

// newOTEM returns a short-horizon OTEM controller: the group decider
// whose lanes RunBatch decides in one call.
func newOTEM(t testing.TB) sim.Controller {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Horizon, cfg.BlockSize = 12, 4
	o, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// TestRunBatchMatchesRunContext is the kernel-level bit-identity gate:
// lanes of different lengths, stepped in lockstep, must produce exactly
// the sim.Result of the scalar reference loop for the same vehicle — every
// field, compared with == (no tolerances) — and so must the one-lane batch
// behind sim.RunContext. The traced variants mix Parallel, Dual and
// ActiveCooling lanes in one batch, or OTEM lanes (decided together
// through sim.GroupDecider, their replans packed, dropping out as their
// staggered routes end) between Parallel and Dual lanes, and compare every
// trace series element by element.
func TestRunBatchMatchesRunContext(t *testing.T) {
	mixed := []func() sim.Controller{
		func() sim.Controller { return policy.Parallel{} },
		func() sim.Controller { return policy.NewDual() },
		func() sim.Controller { return policy.NewActiveCooling() },
	}
	otemMixed := func(k int) sim.Controller {
		switch k % 4 {
		case 1:
			return policy.Parallel{}
		case 3:
			return policy.NewDual()
		}
		return newOTEM(t)
	}
	for _, tc := range []struct {
		name  string
		mk    func(lane int) sim.Controller
		trace bool
	}{
		{"parallel", func(int) sim.Controller { return policy.Parallel{} }, false},
		{"dual", func(int) sim.Controller { return policy.NewDual() }, false},
		{"cooling", func(int) sim.Controller { return policy.NewActiveCooling() }, false},
		{"mixed/traced", func(k int) sim.Controller { return mixed[k%len(mixed)]() }, true},
		{"otem-mixed/traced", otemMixed, true},
	} {
		const lanes = 9
		cfg := sim.Config{Horizon: 5, RecordTrace: tc.trace}
		batch := make([]sim.BatchVehicle, lanes)
		want := make([]sim.Result, lanes)
		for k := 0; k < lanes; k++ {
			route := batchTestRoute(int64(100+k), 80+13*k) // staggered lengths
			w, err := sim.ReferenceRun(context.Background(), newPlant(t), tc.mk(k), route, cfg)
			if err != nil {
				t.Fatalf("%s lane %d reference: %v", tc.name, k, err)
			}
			want[k] = w

			one, err := sim.RunContext(context.Background(), newPlant(t), tc.mk(k), route, cfg)
			if err != nil {
				t.Fatalf("%s lane %d RunContext: %v", tc.name, k, err)
			}
			assertSameResult(t, fmt.Sprintf("%s lane %d RunContext", tc.name, k), one, w)

			batch[k] = sim.BatchVehicle{Plant: newPlant(t), Ctrl: tc.mk(k), Requests: route}
		}
		var sc sim.BatchScratch
		got, err := sim.RunBatch(context.Background(), batch, cfg, &sc)
		if err != nil {
			t.Fatalf("%s batch: %v", tc.name, err)
		}
		for k := 0; k < lanes; k++ {
			assertSameResult(t, fmt.Sprintf("%s lane %d batch", tc.name, k), got[k], want[k])
		}
	}
}

// assertSameResult compares two results with == on every field and, when
// traced, on every element of every trace series.
func assertSameResult(t *testing.T, label string, got, want sim.Result) {
	t.Helper()
	gotTr, wantTr := got.Trace, want.Trace
	got.Trace, want.Trace = nil, nil
	if got != want {
		t.Errorf("%s: result %+v != reference %+v", label, got, want)
	}
	if (gotTr == nil) != (wantTr == nil) {
		t.Fatalf("%s: trace presence %v, reference %v", label, gotTr != nil, wantTr != nil)
	}
	if gotTr == nil {
		return
	}
	series := func(tr *sim.Trace) [][]float64 {
		return [][]float64{tr.Time, tr.PowerRequest, tr.BatteryTemp, tr.CoolantTemp, tr.SoC,
			tr.SoE, tr.CoolerPower, tr.BatteryPower, tr.CapPower, tr.BatteryHeat}
	}
	g, w := series(gotTr), series(wantTr)
	for i := range w {
		if len(g[i]) != len(w[i]) {
			t.Errorf("%s: trace series %d has %d entries, reference %d", label, i, len(g[i]), len(w[i]))
			continue
		}
		for j := range w[i] {
			if g[i][j] != w[i][j] {
				t.Errorf("%s: trace series %d step %d = %v, reference %v", label, i, j, g[i][j], w[i][j])
				break
			}
		}
	}
}

func newPlant(t *testing.T) *sim.Plant {
	t.Helper()
	p, err := sim.NewPlant(sim.PlantConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestRunBatchForecastDepthInvariance pins that the depth-limited forecast
// fill cannot change outcomes: a controller reading the full window must
// see identical results batched and in the scalar reference beside a lane
// whose window is never filled.
func TestRunBatchForecastDepthInvariance(t *testing.T) {
	route := batchTestRoute(7, 96)
	ref, err := sim.NewPlant(sim.PlantConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.ReferenceRun(context.Background(), ref, policy.NewDual(), route, sim.Config{Horizon: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Lane 0 (depth 0) dirties the window before lane 1 reads it.
	p0, _ := sim.NewPlant(sim.PlantConfig{})
	p1, _ := sim.NewPlant(sim.PlantConfig{})
	var sc sim.BatchScratch
	got, err := sim.RunBatch(context.Background(), []sim.BatchVehicle{
		{Plant: p0, Ctrl: policy.Parallel{}, Requests: batchTestRoute(8, 96)},
		{Plant: p1, Ctrl: policy.NewDual(), Requests: route},
	}, sim.Config{Horizon: 8}, &sc)
	if err != nil {
		t.Fatal(err)
	}
	if got[1] != want {
		t.Fatalf("dual lane diverged behind a depth-0 lane: %+v != %+v", got[1], want)
	}
}

// TestRunBatchWarmNoAlloc proves the batched step loop is allocation-free
// once the scratch is warm — the allocflow gate's runtime counterpart —
// with and without per-lane traces, and with OTEM lanes whose replans are
// packed together through sim.GroupDecider.
func TestRunBatchWarmNoAlloc(t *testing.T) {
	const lanes = 16
	batch := make([]sim.BatchVehicle, lanes)
	for k := range batch {
		var ctrl sim.Controller = policy.Parallel{}
		if k%3 == 0 {
			ctrl = newOTEM(t)
		}
		batch[k] = sim.BatchVehicle{Plant: newPlant(t), Ctrl: ctrl, Requests: batchTestRoute(int64(k), 64)}
	}
	for _, cfg := range []sim.Config{{Horizon: 5}, {Horizon: 5, RecordTrace: true}} {
		var sc sim.BatchScratch
		if _, err := sim.RunBatch(context.Background(), batch, cfg, &sc); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := sim.RunBatch(context.Background(), batch, cfg, &sc); err != nil {
				t.Fatal(err)
			}
		})
		// Plant construction is outside the measured closure; the warm
		// batch loop itself must not allocate at all.
		if allocs != 0 {
			t.Fatalf("warm sim.RunBatch (trace %v) allocates %.2f per run, want 0", cfg.RecordTrace, allocs)
		}
	}
}

// cancelAfter is a controller that cancels its context on its n-th
// decision, so the engine sees the cancellation mid-route.
type cancelAfter struct {
	n      int
	cancel context.CancelFunc
}

func (c *cancelAfter) Name() string { return "cancel-after" }

func (c *cancelAfter) Decide(*sim.Plant, []float64) sim.Action {
	if c.n--; c.n == 0 {
		c.cancel()
	}
	return sim.Action{Arch: sim.ArchParallel}
}

// TestRunCancellation covers cooperative cancellation of the scalar entry
// point and of a multi-lane batch, before the first step and mid-route:
// the error must match both runner.ErrCanceled and context.Canceled, and
// no partial result escapes.
func TestRunCancellation(t *testing.T) {
	route := batchTestRoute(3, 40)
	for _, tc := range []struct {
		name   string
		midway bool
		batch  bool
	}{
		{"RunContext/pre-canceled", false, false},
		{"RunContext/mid-route", true, false},
		{"RunBatch/pre-canceled", false, true},
		{"RunBatch/mid-route", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			ctrl := func() sim.Controller { return policy.Parallel{} }
			if tc.midway {
				ctrl = func() sim.Controller { return &cancelAfter{n: 10, cancel: cancel} }
			} else {
				cancel()
			}
			var err error
			if tc.batch {
				lanes := make([]sim.BatchVehicle, 3)
				for k := range lanes {
					lanes[k] = sim.BatchVehicle{Plant: newPlant(t), Ctrl: ctrl(), Requests: route}
				}
				var sc sim.BatchScratch
				var res []sim.Result
				res, err = sim.RunBatch(ctx, lanes, sim.Config{Horizon: 4}, &sc)
				if res != nil {
					t.Errorf("canceled batch returned %d results, want nil", len(res))
				}
			} else {
				var res sim.Result
				res, err = sim.RunContext(ctx, newPlant(t), ctrl(), route, sim.Config{Horizon: 4, RecordTrace: true})
				if res != (sim.Result{}) {
					t.Errorf("canceled run returned %+v, want the zero Result", res)
				}
			}
			if !errors.Is(err, runner.ErrCanceled) || !errors.Is(err, context.Canceled) {
				t.Fatalf("error %v does not match both runner.ErrCanceled and context.Canceled", err)
			}
		})
	}
}
