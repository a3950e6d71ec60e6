package otem_test

import (
	"testing"

	"repro/otem"
)

func TestPowerSeries(t *testing.T) {
	one, err := otem.PowerSeries("US06", 1)
	if err != nil {
		t.Fatal(err)
	}
	five, err := otem.PowerSeries("US06", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(five) != 5*len(one) {
		t.Errorf("repeat: %d vs %d", len(five), len(one))
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

func TestBaselines(t *testing.T) {
	for _, n := range []string{"parallel", "cooling", "dual", "battery"} {
		c, err := otem.Baseline(n)
		if err != nil || c == nil {
			t.Errorf("Baseline(%q): %v", n, err)
		}
	}
	if _, err := otem.Baseline("x"); err == nil {
		t.Error("unknown baseline accepted")
	}
}

func TestSimulateEndToEnd(t *testing.T) {
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
	res, err := otem.Simulate(plant, ctrl, requests, otem.WithTrace())
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
	res, err := otem.Simulate(plant, ctrl, requests, otem.WithHorizon(16))
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
	res, err := otem.Run(otem.RunSpec{Method: "Dual", Cycle: "SC03"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Controller != "Dual" {
		t.Errorf("controller = %q", res.Controller)
	}
}
