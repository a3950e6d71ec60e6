package otem_test

import (
	"context"
	"strings"
	"testing"

	"repro/otem"
)

// The canonical-encoding contract is shared by all four public spec
// types — a compile-time fact this block pins.
var (
	_ otem.CanonicalSpec = otem.RunSpec{}
	_ otem.CanonicalSpec = otem.DSEConfig{}
	_ otem.CanonicalSpec = otem.LifetimeConfig{}
	_ otem.CanonicalSpec = otem.FleetSpec{}
)

// TestCanonicalEncodings pins the versioned prefixes and checks that
// defaulting happens inside the encoding (a zero spec and its explicit
// defaults encode identically).
func TestCanonicalEncodings(t *testing.T) {
	cases := []struct {
		spec   otem.CanonicalSpec
		prefix string
	}{
		{otem.RunSpec{Method: otem.MethodologyOTEM, Cycle: "US06"}, "otem.run|"},
		{otem.DSEConfig{}, "otem.dse|"},
		{otem.LifetimeConfig{}, "otem.lifetime|"},
		{otem.FleetSpec{Vehicles: 10}, "otem.fleet|"},
	}
	for _, tc := range cases {
		got := otem.Canonical(tc.spec)
		if !strings.HasPrefix(got, tc.prefix) {
			t.Errorf("Canonical(%T) = %q, want prefix %q", tc.spec, got, tc.prefix)
		}
	}

	zero := otem.Canonical(otem.RunSpec{Method: otem.MethodologyParallel, Cycle: "NYCC"})
	expl := otem.Canonical(otem.RunSpec{Method: otem.MethodologyParallel, Cycle: "NYCC", Repeats: 1, UltracapF: 25000})
	if zero != expl {
		t.Errorf("zero-value defaults not canonicalised: %q vs %q", zero, expl)
	}
}

// TestOptionsComposeAcrossEntryPoints passes one option slice to several
// entry points: each consumes what applies to it and ignores the rest —
// the redesign's core contract.
func TestOptionsComposeAcrossEntryPoints(t *testing.T) {
	var batchTicks, fleetTicks int
	opts := []otem.Option{
		otem.WithTrace(),
		otem.WithHorizon(16),
		otem.WithParallelism(2),
		nil, // nil options are tolerated
	}

	plant, err := otem.NewPlant(otem.PlantConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := otem.Baseline("parallel")
	if err != nil {
		t.Fatal(err)
	}
	res, err := otem.Simulate(plant, ctrl, []float64{10e3, 20e3, 5e3}, opts...)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if res.Trace == nil {
		t.Error("Simulate ignored WithTrace from the shared slice")
	}

	specs := []otem.RunSpec{{Method: otem.MethodologyParallel, Cycle: "NYCC"}}
	batch, err := otem.RunBatch(context.Background(), specs,
		append(opts, otem.WithProgress(func(done, total int) { batchTicks = done }))...)
	if err != nil {
		t.Fatalf("RunBatch: %v", err)
	}
	if len(batch) != 1 || batch[0].Err != nil {
		t.Fatalf("RunBatch result: %+v", batch)
	}
	if batchTicks != 1 {
		t.Errorf("RunBatch progress ticks = %d, want 1", batchTicks)
	}

	fleetSpec := otem.FleetSpec{Vehicles: 9, Seed: 3, Method: otem.MethodologyParallel, RouteSeconds: 120}
	fr, err := otem.RunFleet(context.Background(), fleetSpec,
		append(opts, otem.WithProgress(func(done, total int) { fleetTicks = done }))...)
	if err != nil {
		t.Fatalf("RunFleet: %v", err)
	}
	if fr.Vehicles != 9 {
		t.Errorf("RunFleet vehicles = %d, want 9", fr.Vehicles)
	}
	if fleetTicks != 9 {
		t.Errorf("RunFleet progress reached %d, want 9", fleetTicks)
	}
}

// TestProjectLifetimeOptions: the lifetime entry point consumes context,
// horizon and progress from the same option family.
func TestProjectLifetimeOptions(t *testing.T) {
	requests := []float64{20e3, 40e3, 30e3, 10e3}
	var ticks int
	proj, err := otem.ProjectLifetime(otem.PlantConfig{},
		func() (otem.Controller, error) { return otem.Baseline("parallel") },
		requests,
		otem.LifetimeConfig{MaxRoutes: 500, BlockRoutes: 250},
		otem.WithHorizon(8),
		otem.WithProgress(func(done, total int) {
			ticks++
			if total != 500 {
				t.Errorf("progress total = %d, want 500", total)
			}
		}),
	)
	if err != nil {
		t.Fatalf("ProjectLifetime: %v", err)
	}
	if proj.RoutesToEOL == 0 {
		t.Error("projection did not advance")
	}
	if ticks == 0 {
		t.Error("WithProgress never ticked")
	}
}
