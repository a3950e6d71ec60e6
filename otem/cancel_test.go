package otem_test

import (
	"context"
	"errors"
	"testing"

	"repro/otem"
)

// canceledRun is one facade entry point that runs a simulation, invoked on
// a context that is already canceled.
type canceledRun struct {
	name string
	run  func(ctx context.Context) error
}

// canceledRuns lists every facade entry point that runs a simulation.
func canceledRuns(t *testing.T) []canceledRun {
	t.Helper()
	requests, err := otem.PowerSeries("NYCC", 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel := func() (otem.Controller, error) { return otem.ControllerFor(otem.MethodologyParallel) }
	return []canceledRun{
		{"SimulateContext", func(ctx context.Context) error {
			plant, err := otem.NewPlant(otem.PlantConfig{})
			if err != nil {
				return err
			}
			ctrl, err := parallel()
			if err != nil {
				return err
			}
			_, err = otem.SimulateContext(ctx, plant, ctrl, requests)
			return err
		}},
		{"RunContext", func(ctx context.Context) error {
			_, err := otem.RunContext(ctx, otem.RunSpec{Method: otem.MethodologyParallel, Cycle: "NYCC"})
			return err
		}},
		{"RunBatch", func(ctx context.Context) error { _, err := otem.RunBatch(ctx, cheapSpecs()); return err }},
		{"RunFleet", func(ctx context.Context) error {
			_, err := otem.RunFleet(ctx, otem.FleetSpec{Vehicles: 4, Method: otem.MethodologyParallel, RouteSeconds: 120})
			return err
		}},
		{"SimulateHierarchical", func(ctx context.Context) error {
			_, err := otem.SimulateHierarchical(ctx, otem.PlanSpec{Cycle: "NYCC"})
			return err
		}},
		{"ProjectLifetimeContext", func(ctx context.Context) error {
			_, err := otem.ProjectLifetimeContext(ctx, otem.PlantConfig{}, parallel, requests, otem.LifetimeConfig{})
			return err
		}},
		{"ExploreDesignsContext", func(ctx context.Context) error {
			_, err := otem.ExploreDesignsContext(ctx, otem.DSEConfig{
				UltracapSizesF: []float64{10000},
				CoolerPowersW:  []float64{4e3},
				Cycle:          "NYCC",
				Repeats:        1,
			})
			return err
		}},
	}
}

// checkCanceled runs the named entry points (all of them when names is
// empty) on a canceled context and requires an error matching both
// ErrCanceled and context.Canceled.
func checkCanceled(t *testing.T, names ...string) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	ran := 0
	for _, c := range canceledRuns(t) {
		if len(names) > 0 && !want[c.name] {
			continue
		}
		ran++
		err := c.run(ctx)
		if !errors.Is(err, otem.ErrCanceled) {
			t.Errorf("%s on a canceled context: err = %v, want ErrCanceled", c.name, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s on a canceled context: err = %v, want context.Canceled wrapped", c.name, err)
		}
	}
	if len(names) > 0 && ran != len(names) {
		t.Fatalf("ran %d of the entry points %v", ran, names)
	}
}

// TestRunEntryPointsHonourCancellation pins that every facade entry point
// that runs a simulation stops on its context: with one already canceled,
// each returns an error matching both ErrCanceled and context.Canceled
// instead of running.
func TestRunEntryPointsHonourCancellation(t *testing.T) {
	checkCanceled(t)
}

func TestSimulateContextCancel(t *testing.T) {
	checkCanceled(t, "SimulateContext")
}

func TestExploreDesignsContextCancel(t *testing.T) {
	checkCanceled(t, "ExploreDesignsContext")
}
