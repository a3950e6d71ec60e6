package fleet

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/canon"
	"repro/internal/policy"
	"repro/internal/runner"
)

// testSpec is a fleet small enough for the unit tests but big enough to
// span every chunk-boundary case (multiple chunks, uneven sizes).
func testSpec() Spec {
	return Spec{
		Vehicles:     50,
		Days:         3,
		Seed:         1234,
		Method:       policy.MethodologyParallel,
		RouteSeconds: 120,
	}
}

// TestRunParallelIdentity is the determinism gate of the issue: the same
// spec must produce a byte-identical result (digest over complete sketch
// state) at one worker and at NumCPU workers.
func TestRunParallelIdentity(t *testing.T) {
	spec := testSpec()
	seq, err := RunWith(context.Background(), spec, Options{Pool: runner.New(runner.Workers(1))})
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunWith(context.Background(), spec, Options{Pool: runner.New(runner.Workers(runtime.NumCPU()))})
	if err != nil {
		t.Fatal(err)
	}
	if s, p := seq.Digest(), par.Digest(); s != p {
		t.Fatalf("digest differs across worker counts: seq=%s par=%s", s, p)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("results differ structurally across worker counts despite equal digests")
	}
}

// TestRunAggregates sanity-checks the merged result: every vehicle is
// accounted for, family counts partition the fleet, and the physical
// metrics land in plausible ranges.
func TestRunAggregates(t *testing.T) {
	spec := testSpec()
	r, err := RunWith(context.Background(), spec, Options{Pool: runner.New()})
	if err != nil {
		t.Fatal(err)
	}
	if r.Vehicles != spec.Vehicles {
		t.Fatalf("Vehicles = %d, want %d", r.Vehicles, spec.Vehicles)
	}
	if r.Days != spec.Days {
		t.Fatalf("Days = %d, want %d", r.Days, spec.Days)
	}
	if r.Qloss.Count() != uint64(spec.Vehicles) ||
		r.EnergyJ.Count() != uint64(spec.Vehicles) ||
		r.PeakTempK.Count() != uint64(spec.Vehicles) {
		t.Fatalf("sketch counts %d/%d/%d, want %d each",
			r.Qloss.Count(), r.EnergyJ.Count(), r.PeakTempK.Count(), spec.Vehicles)
	}
	var famTotal uint64
	var famQloss uint64
	for _, f := range r.Families {
		famTotal += f.Vehicles
		famQloss += f.Qloss.Count()
		if f.Vehicles != f.Qloss.Count() {
			t.Fatalf("family %s: count %d != sketch count %d", f.Name, f.Vehicles, f.Qloss.Count())
		}
	}
	if famTotal != uint64(spec.Vehicles) || famQloss != uint64(spec.Vehicles) {
		t.Fatalf("family counts sum to %d/%d, want %d", famTotal, famQloss, spec.Vehicles)
	}
	if got, want := len(r.Families), len(FamilyNames()); got != want {
		t.Fatalf("families = %d, want %d", got, want)
	}
	if r.Steps == 0 {
		t.Fatal("no steps simulated")
	}
	if q := r.Qloss.Quantile(0.5); q <= 0 || q > 1 {
		t.Fatalf("median Qloss %g%% implausible", q)
	}
	if p := r.PeakTempK.Quantile(0.5); p < 260 || p > 340 {
		t.Fatalf("median peak temperature %g K implausible", p)
	}
	if e := r.EnergyJ.Min(); e <= 0 {
		t.Fatalf("minimum per-vehicle energy %g J implausible", e)
	}
}

// TestRunMemoryBound gates the O(workers)-not-O(fleet) contract at the
// data-structure level: the retained sample count of every sketch must be
// a function of k, not of the fleet size.
func TestRunMemoryBound(t *testing.T) {
	spec := testSpec()
	spec.Vehicles = 600
	spec.Days = 1
	spec.SketchK = 16
	r, err := RunWith(context.Background(), spec, Options{Pool: runner.New()})
	if err != nil {
		t.Fatal(err)
	}
	limit := spec.SketchK * 10 // k × generous level count
	for name, s := range map[string]*Sketch{"qloss": r.Qloss, "energy": r.EnergyJ, "peaktemp": r.PeakTempK} {
		if s.Size() > limit {
			t.Fatalf("%s sketch retains %d values for %d vehicles, want <= %d",
				name, s.Size(), spec.Vehicles, limit)
		}
	}
}

func TestRunCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunWith(ctx, testSpec(), Options{Pool: runner.New()})
	if !errors.Is(err, runner.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

func TestRunProgress(t *testing.T) {
	spec := testSpec()
	spec.Vehicles = 33
	var dones []int
	_, err := RunWith(context.Background(), spec, Options{Pool: runner.New(runner.Workers(1)), Progress: func(done, total int) {
		if total != spec.Vehicles {
			t.Fatalf("progress total = %d, want %d", total, spec.Vehicles)
		}
		dones = append(dones, done)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(dones) != numChunks(spec.Vehicles) {
		t.Fatalf("progress called %d times, want %d", len(dones), numChunks(spec.Vehicles))
	}
	for i := 1; i < len(dones); i++ {
		if dones[i] <= dones[i-1] {
			t.Fatalf("progress not monotone: %v", dones)
		}
	}
	if dones[len(dones)-1] != spec.Vehicles {
		t.Fatalf("final progress %d, want %d", dones[len(dones)-1], spec.Vehicles)
	}
}

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		ok   bool
	}{
		{"default-ok", func(s *Spec) {}, true},
		{"no-vehicles", func(s *Spec) { s.Vehicles = 0 }, false},
		{"negative-days", func(s *Spec) { s.Days = -1 }, false},
		{"bad-ucap", func(s *Spec) { s.UltracapF = -5 }, false},
		{"short-route", func(s *Spec) { s.RouteSeconds = 10 }, false},
		{"nan-ucap", func(s *Spec) { s.UltracapF = math.NaN() }, false},
		// A negative value within floats.Eps of zero is not a request for
		// the default.
		{"tiny-negative-ucap", func(s *Spec) { s.UltracapF = -5e-10 }, false},
		{"tiny-negative-route", func(s *Spec) { s.RouteSeconds = -5e-10 }, false},
		{"inf-ucap", func(s *Spec) { s.UltracapF = math.Inf(1) }, false},
		{"longest-route-ok", func(s *Spec) { s.RouteSeconds = 7200 }, true},
		{"long-route", func(s *Spec) { s.RouteSeconds = 7201 }, false},
		{"huge-route", func(s *Spec) { s.RouteSeconds = 1e12 }, false},
		{"inf-route", func(s *Spec) { s.RouteSeconds = math.Inf(1) }, false},
		{"nan-route", func(s *Spec) { s.RouteSeconds = math.NaN() }, false},
		{"bad-horizon", func(s *Spec) { s.Horizon = -2 }, false},
		{"bad-method", func(s *Spec) { s.Method = "Nonsense" }, false},
	}
	for _, tc := range cases {
		spec := testSpec()
		tc.mut(&spec)
		err := spec.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: expected error, got nil", tc.name)
		}
	}
}

// TestSpecCanonical pins the canonical encoding: it is the serve cache key
// and part of the result digest, so its exact form is a compatibility
// surface.
func TestSpecCanonical(t *testing.T) {
	spec := testSpec()
	got := canon.String(spec)
	want := "otem.fleet|n=50|d=3|s=1234|m=Parallel|u=25000|r=120|h=40|k=256"
	if got != want {
		t.Fatalf("canonical encoding:\n got %s\nwant %s", got, want)
	}
	// Distinct seeds must produce distinct keys.
	spec.Seed++
	if canon.String(spec) == want {
		t.Fatal("seed change did not change the canonical encoding")
	}
}

// TestDrawScenarioDeterministic: the scenario is a pure function of
// (spec, vehicle), replayable in any order.
func TestDrawScenarioDeterministic(t *testing.T) {
	spec := testSpec().Resolved()
	for i := 0; i < 20; i++ {
		a, b := drawScenario(spec, i), drawScenario(spec, i)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("vehicle %d: scenario draw not deterministic", i)
		}
	}
	// Different vehicles must decorrelate (at least some field differs
	// across a window).
	same := 0
	base := drawScenario(spec, 0)
	for i := 1; i < 20; i++ {
		sc := drawScenario(spec, i)
		if sc.ambientK == base.ambientK {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("%d of 19 vehicles drew the identical ambient — seeds are correlated", same)
	}
}

// TestChunkingInvariants: the partition covers [0, n) exactly once and
// depends only on n.
func TestChunkingInvariants(t *testing.T) {
	for _, n := range []int{1, 7, 8, 9, 100, 1023, 1024, 1025, 100000} {
		chunks := numChunks(n)
		if chunks < 1 || chunks > maxChunks {
			t.Fatalf("n=%d: numChunks=%d out of range", n, chunks)
		}
		next := 0
		for c := 0; c < chunks; c++ {
			lo, hi := chunkBounds(n, chunks, c)
			if lo != next || hi < lo {
				t.Fatalf("n=%d chunk %d: bounds [%d,%d) not contiguous from %d", n, c, lo, hi, next)
			}
			next = hi
		}
		if next != n {
			t.Fatalf("n=%d: chunks cover [0,%d), want [0,%d)", n, next, n)
		}
	}
}

// TestVehicleSeedDecorrelated: neighbouring vehicle indices must map to
// well-separated seeds (the SplitMix64 finalizer property).
func TestVehicleSeedDecorrelated(t *testing.T) {
	seen := make(map[int64]bool)
	for i := 0; i < 10000; i++ {
		s := vehicleSeed(42, i)
		if seen[s] {
			t.Fatalf("duplicate seed at vehicle %d", i)
		}
		seen[s] = true
	}
}
