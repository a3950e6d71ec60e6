package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/policy"
	"repro/internal/sim"
)

func TestNoisyForecastDeterministicAndPresentExact(t *testing.T) {
	var got [][]float64
	inner := probeController{fn: func(fc []float64) {
		got = append(got, append([]float64(nil), fc...))
	}}
	n := NewNoisyForecast(inner, 0.5, 42)
	if !strings.Contains(n.Name(), "noise") {
		t.Errorf("Name = %q", n.Name())
	}
	plant, err := sim.NewPlant(sim.PlantConfig{})
	if err != nil {
		t.Fatal(err)
	}
	fc := []float64{10e3, 20e3, 30e3}
	n.Decide(plant, fc)
	if got[0][0] != 10e3 {
		t.Errorf("present corrupted: %v", got[0][0])
	}
	if got[0][1] == 20e3 && got[0][2] == 30e3 {
		t.Error("future not perturbed")
	}
	// Same seed → same perturbation sequence.
	n2 := NewNoisyForecast(probeController{fn: func(fc []float64) {
		got = append(got, append([]float64(nil), fc...))
	}}, 0.5, 42)
	n2.Decide(plant, fc)
	for i := range got[0] {
		if got[0][i] != got[1][i] {
			t.Fatalf("same seed diverged: %v vs %v", got[0], got[1])
		}
	}
}

type probeController struct {
	fn func([]float64)
}

func (p probeController) Name() string { return "probe" }
func (p probeController) Decide(_ *sim.Plant, fc []float64) sim.Action {
	p.fn(fc)
	return sim.Action{Arch: sim.ArchBatteryDirect}
}

func TestAblationHorizonShape(t *testing.T) {
	if testing.Short() {
		t.Skip("4 MPC runs; skipped in -short")
	}
	r, err := AblationHorizonContext(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// The shortest horizon must be clearly worse than the default (it is
	// too myopic to prepare TEB or justify cooling).
	short := r.Rows[0].Result.QlossPct
	def := r.Rows[2].Result.QlossPct
	if short <= def {
		t.Errorf("8 s horizon loss %v should exceed 40 s default %v", short, def)
	}
	var sb strings.Builder
	r.Write(&sb)
	if !strings.Contains(sb.String(), "horizon=8s") {
		t.Error("Write output malformed")
	}
}

func TestAblationNoiseShape(t *testing.T) {
	if testing.Short() {
		t.Skip("4 MPC runs; skipped in -short")
	}
	r, err := AblationNoiseContext(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	exact := r.Rows[0].Result.QlossPct
	heavy := r.Rows[len(r.Rows)-1].Result.QlossPct
	if heavy <= exact {
		t.Errorf("heavy noise loss %v should exceed exact %v", heavy, exact)
	}
	// Graceful degradation: even ±60 % noise must stay within 2× of exact.
	if heavy > 2*exact {
		t.Errorf("noise degradation too severe: %v vs %v", heavy, exact)
	}
}

func TestAblationPredictorShape(t *testing.T) {
	if testing.Short() {
		t.Skip("4 MPC runs; skipped in -short")
	}
	r, err := AblationPredictorContext(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	oracle := r.Rows[0].Result.QlossPct
	// Every realistic predictor must stay within 25 % of the oracle and
	// still beat the parallel baseline.
	plant, err := sim.NewPlant(sim.PlantConfig{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := sim.Run(plant, policy.Parallel{}, ablationWorkload(), sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows[1:] {
		if row.Result.QlossPct > oracle*1.25 {
			t.Errorf("%s loss %v more than 25%% above oracle %v", row.Label, row.Result.QlossPct, oracle)
		}
		if row.Result.QlossPct >= par.QlossPct {
			t.Errorf("%s loss %v should still beat parallel %v", row.Label, row.Result.QlossPct, par.QlossPct)
		}
	}
}

func TestAblationSensingShape(t *testing.T) {
	if testing.Short() {
		t.Skip("3 MPC runs; skipped in -short")
	}
	r, err := AblationSensingContext(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	oracle := r.Rows[0].Result.QlossPct
	for _, row := range r.Rows[1:] {
		// EKF sensing must be nearly free: within 5 % of oracle loss, no
		// thermal violations.
		if row.Result.QlossPct > oracle*1.05 {
			t.Errorf("%s loss %v more than 5%% above oracle %v", row.Label, row.Result.QlossPct, oracle)
		}
		if row.Result.ThermalViolationSec > 0 {
			t.Errorf("%s violated the safe zone", row.Label)
		}
	}
}

func TestAblationChemistryShape(t *testing.T) {
	if testing.Short() {
		t.Skip("2 MPC runs; skipped in -short")
	}
	r, err := AblationChemistryContext(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	nca, lfp := r.Rows[0].Result, r.Rows[1].Result
	// The methodology holds the safe zone on both chemistries.
	if nca.ThermalViolationSec > 0 || lfp.ThermalViolationSec > 0 {
		t.Error("OTEM violated the safe zone on a chemistry")
	}
	// LFP's higher activation energy and thermal headroom → slower aging.
	if lfp.QlossPct >= nca.QlossPct {
		t.Errorf("LFP loss %v should be below NCA %v", lfp.QlossPct, nca.QlossPct)
	}
}
