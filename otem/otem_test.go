package otem_test

import (
	"context"
	"testing"

	"repro/otem"
)

// TestPowerSeries pins one repeat rule for both series builders: n
// repeats play the cycle n times, zero means one pass and a negative
// count is an error.
func TestPowerSeries(t *testing.T) {
	one, err := otem.PowerSeries("US06", 1)
	if err != nil {
		t.Fatal(err)
	}
	builders := map[string]func(repeats int) ([]float64, error){
		"PowerSeries":   func(r int) ([]float64, error) { return otem.PowerSeries("US06", r) },
		"PowerSeriesAt": func(r int) ([]float64, error) { return otem.PowerSeriesAt("US06", r, 298) },
	}
	for name, build := range builders {
		for _, c := range []struct{ repeats, passes int }{{5, 5}, {0, 1}} {
			if got, err := build(c.repeats); err != nil || len(got) != c.passes*len(one) {
				t.Errorf("%s(US06, %d): %d samples, err %v; want %d samples", name, c.repeats, len(got), err, c.passes*len(one))
			}
		}
		if got, err := build(-3); err == nil {
			t.Errorf("%s(US06, -3): %d samples and no error", name, len(got))
		}
	}
	if _, err := otem.PowerSeries("NOPE", 1); err == nil {
		t.Error("unknown cycle accepted")
	}
}

func TestCycleNames(t *testing.T) {
	names := otem.CycleNames()
	if len(names) != 6 {
		t.Fatalf("CycleNames() = %v", names)
	}
	for _, n := range names {
		if _, err := otem.CycleByName(n); err != nil {
			t.Errorf("CycleByName(%q): %v", n, err)
		}
	}
}

func TestSimulateEndToEnd(t *testing.T) {
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
	res, err := otem.SimulateContext(context.Background(), plant, ctrl, requests, otem.WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != len(requests) {
		t.Errorf("steps = %d, want %d", res.Steps, len(requests))
	}
	if res.Trace == nil {
		t.Error("trace missing despite RecordTrace")
	}
	if res.QlossPct <= 0 {
		t.Error("no aging recorded")
	}
}

func TestOTEMControllerViaFacade(t *testing.T) {
	cfg := otem.DefaultConfig()
	cfg.Horizon = 16
	cfg.BlockSize = 4
	cfg.ReplanInterval = 4
	cfg.Optimizer.MaxIterations = 10
	ctrl, err := otem.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ctrl.Name() != "OTEM" {
		t.Errorf("Name = %q", ctrl.Name())
	}
	plant, err := otem.NewPlant(otem.PlantConfig{UltracapF: 10000})
	if err != nil {
		t.Fatal(err)
	}
	requests := make([]float64, 60)
	for i := range requests {
		requests[i] = 15e3
	}
	res, err := otem.SimulateContext(context.Background(), plant, ctrl, requests, otem.WithHorizon(16))
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalSoC >= 1 {
		t.Error("load not served")
	}
}

func TestSynthesizeViaFacade(t *testing.T) {
	c, err := otem.Synthesize(otem.DefaultSynthConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	series := otem.PowerSeriesFor(c)
	if len(series) != c.Samples() {
		t.Errorf("series length %d vs %d samples", len(series), c.Samples())
	}
}

func TestRunCannedExperiment(t *testing.T) {
	res, err := otem.RunContext(context.Background(), otem.RunSpec{Method: "Dual", Cycle: "SC03"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Controller != "Dual" {
		t.Errorf("controller = %q", res.Controller)
	}
}
