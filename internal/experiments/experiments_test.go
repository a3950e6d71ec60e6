package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestMethodsAndControllers(t *testing.T) {
	names := Methods()
	if len(names) != 4 {
		t.Fatalf("Methods() = %v", names)
	}
	for _, m := range names {
		c, err := NewController(m)
		if err != nil {
			t.Errorf("NewController(%q): %v", m, err)
		}
		if c == nil {
			t.Errorf("NewController(%q) returned nil", m)
		}
	}
	if _, err := NewController("nope"); err == nil {
		t.Error("unknown methodology accepted")
	}
}

func TestRunDefaults(t *testing.T) {
	res, err := RunContext(context.Background(), RunSpec{Method: MethodParallel, Cycle: "NYCC"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps == 0 || res.QlossPct <= 0 {
		t.Errorf("empty result: %+v", res)
	}
	if res.Trace != nil {
		t.Error("trace recorded without request")
	}
}

// TestRunRejectsInvalidSpec pins that only a zero field asks for its
// default: -5e-10 F is a bank to reject and -4 repeats a count to reject,
// and neither spec shares its canonical key with the valid one.
func TestRunRejectsInvalidSpec(t *testing.T) {
	valid := string(RunSpec{Method: MethodParallel, Cycle: "NYCC"}.AppendCanonical(nil))
	for _, spec := range []RunSpec{
		{Method: MethodParallel, Cycle: "NYCC", UltracapF: -5e-10},
		{Method: MethodParallel, Cycle: "NYCC", Repeats: -4},
	} {
		if _, err := RunContext(context.Background(), spec); err == nil {
			t.Errorf("%+v accepted", spec)
		}
		if key := string(spec.AppendCanonical(nil)); key == valid {
			t.Errorf("%+v has the valid spec's key %q", spec, key)
		}
	}
}

func TestRunUnknownCycle(t *testing.T) {
	if _, err := RunContext(context.Background(), RunSpec{Method: MethodParallel, Cycle: "MOON"}); err == nil {
		t.Error("unknown cycle accepted")
	}
}

func TestFig1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("MPC-free but multi-run; skipped in -short")
	}
	r, err := Fig1Context(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Results) != 3 {
		t.Fatalf("Fig1 sizes: %v", r.SizesF)
	}
	// Paper Fig. 1: the small bank violates the safe threshold, the large
	// one holds; temperature decreases monotonically with size.
	small, large := r.Results[0], r.Results[len(r.Results)-1]
	if small.ThermalViolationSec == 0 {
		t.Error("5 kF bank should violate the 40 °C threshold")
	}
	if large.ThermalViolationSec != 0 {
		t.Errorf("20 kF bank should hold the threshold, violated %v s", large.ThermalViolationSec)
	}
	for i := 1; i < len(r.Results); i++ {
		if r.Results[i].MaxBatteryTemp >= r.Results[i-1].MaxBatteryTemp {
			t.Errorf("peak temp not decreasing with size: %v then %v",
				r.Results[i-1].MaxBatteryTemp, r.Results[i].MaxBatteryTemp)
		}
	}
	var sb strings.Builder
	r.Write(&sb)
	if !strings.Contains(sb.String(), "Fig. 1") {
		t.Error("Write output malformed")
	}
}

// resultFor returns Fig. 6's run for a methodology, or false.
func resultFor(r *Fig6Result, method Methodology) (sim.Result, bool) {
	for i, m := range r.MethodsList {
		if m == method {
			return r.Results[i], true
		}
	}
	return sim.Result{}, false
}

func TestFig6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the MPC controller; skipped in -short")
	}
	r, err := Fig6Context(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	otem, ok := resultFor(r, MethodOTEM)
	if !ok {
		t.Fatal("OTEM missing from Fig6")
	}
	parallel, _ := resultFor(r, MethodParallel)
	dual, _ := resultFor(r, MethodDual)
	// Paper Fig. 6: OTEM keeps the battery cooler than the unmanaged and
	// dual architectures and inside the safe zone.
	if otem.MaxBatteryTemp >= dual.MaxBatteryTemp {
		t.Errorf("OTEM peak %v should be below dual %v", otem.MaxBatteryTemp, dual.MaxBatteryTemp)
	}
	if otem.MaxBatteryTemp >= parallel.MaxBatteryTemp {
		t.Errorf("OTEM peak %v should be below parallel %v", otem.MaxBatteryTemp, parallel.MaxBatteryTemp)
	}
	if otem.ThermalViolationSec != 0 {
		t.Errorf("OTEM violated the safe zone for %v s", otem.ThermalViolationSec)
	}
	if _, ok := resultFor(r, "nope"); ok {
		t.Error("resultFor accepted unknown name")
	}
	var sb strings.Builder
	r.Write(&sb)
	if !strings.Contains(sb.String(), "OTEM") {
		t.Error("Write output malformed")
	}
}

func TestFig7TEBSignature(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the MPC controller; skipped in -short")
	}
	r, err := Fig7Context(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r.PrechargeEvents == 0 {
		t.Error("no TEB pre-charge events detected — Fig. 7 signature missing")
	}
	if r.Result.ThermalViolationSec > 0 {
		t.Error("OTEM violated the safe zone in the Fig. 7 run")
	}
	var sb strings.Builder
	r.Write(&sb)
	if !strings.Contains(sb.String(), "pre-charge events") {
		t.Error("Write output malformed")
	}
}

func TestCountPrechargeEvents(t *testing.T) {
	// Synthetic trace: SoE rises from 0.5 to 0.8 before a burst at i=10.
	tr := &traceBuilder{}
	for i := 0; i < 10; i++ {
		tr.add(1e3, 0.5+0.03*float64(i))
	}
	for i := 0; i < 5; i++ {
		tr.add(60e3, 0.8-0.1*float64(i))
	}
	if got := countPrechargeEvents(tr.trace(), 50e3, 10); got != 1 {
		t.Errorf("events = %d, want 1", got)
	}
	// No pre-charge: flat SoE.
	tr2 := &traceBuilder{}
	for i := 0; i < 10; i++ {
		tr2.add(1e3, 0.5)
	}
	tr2.add(60e3, 0.5)
	if got := countPrechargeEvents(tr2.trace(), 50e3, 10); got != 0 {
		t.Errorf("events = %d, want 0", got)
	}
}

func TestSweepAndHeadlines(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep; skipped in -short")
	}
	sweep, err := SweepContext(context.Background(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.Results) != 6 || len(sweep.Results[0]) != 4 {
		t.Fatalf("sweep shape %dx%d", len(sweep.Results), len(sweep.Results[0]))
	}
	f8 := Fig8(sweep)
	// Paper headline: OTEM reduces capacity loss on average across cycles.
	if red := f8.OTEMAvgReductionPct(); red <= 5 {
		t.Errorf("OTEM average reduction = %.1f %%, want clearly positive (paper 16.38 %%)", red)
	}
	// OTEM must improve on parallel on the aggressive cycles.
	for i, cyc := range f8.Cycles {
		if cyc == "US06" || cyc == "LA92" {
			o := f8.methodIndex(MethodOTEM)
			if r := f8.Ratio(i, o); r >= 1 {
				t.Errorf("OTEM ratio on %s = %v, want < 1", cyc, r)
			}
		}
	}
	f9 := Fig9(sweep)
	if sav := f9.OTEMSavingVsCoolingPct(); sav <= 0 {
		t.Errorf("OTEM power saving vs cooling = %.1f %%, want positive (paper 12.1 %%)", sav)
	}
	// Cooling must be the most power-hungry methodology wherever its cooler
	// actually engaged (on the mildest cycles the thermostat may never
	// trip, leaving it equivalent to battery-only).
	c := sweep.methodIndex(MethodCooling)
	p := sweep.methodIndex(MethodParallel)
	for i, cyc := range sweep.Cycles {
		res := sweep.Results[i][c]
		if res.CoolingEnergyJ < 0.01*res.HEESEnergyJ {
			continue
		}
		if f9.AvgPower(i, c) <= f9.AvgPower(i, p) {
			t.Errorf("%s: cooling %v not above parallel %v", cyc, f9.AvgPower(i, c), f9.AvgPower(i, p))
		}
	}
	var sb strings.Builder
	f8.Write(&sb)
	f9.Write(&sb)
	if !strings.Contains(sb.String(), "paper: 16.38") || !strings.Contains(sb.String(), "paper: 12.1") {
		t.Error("headline annotations missing")
	}
}

func TestTableIShape(t *testing.T) {
	if testing.Short() {
		t.Skip("12 simulations incl. MPC; skipped in -short")
	}
	r, err := TableIContext(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	last := len(r.SizesF) - 1
	// Normalisation: parallel at 25 kF ≡ 100 %.
	if got := r.LossPct(last, 0); got != 100 {
		t.Errorf("parallel@25kF = %v %%, want 100", got)
	}
	// Parallel loss grows as the bank shrinks (paper: 175 % at 5 kF).
	if r.LossPct(0, 0) <= r.LossPct(last, 0) {
		t.Errorf("parallel loss should grow with smaller banks: %v vs %v",
			r.LossPct(0, 0), r.LossPct(last, 0))
	}
	// OTEM beats dual beats parallel at 25 kF.
	if !(r.LossPct(last, 2) < r.LossPct(last, 1) && r.LossPct(last, 1) < 100) {
		t.Errorf("25 kF ordering broken: OTEM %v, dual %v", r.LossPct(last, 2), r.LossPct(last, 1))
	}
	// Paper's conclusion: OTEM is nearly insensitive to the bank size —
	// the 5 kF → 25 kF spread stays within a handful of points of loss.
	spread := r.LossPct(0, 2) - r.LossPct(last, 2)
	if spread < 0 {
		t.Errorf("OTEM loss should not improve when shrinking the bank (spread %v)", spread)
	}
	if spread > 15 {
		t.Errorf("OTEM spread across sizes = %.1f points, want small (paper ≈6)", spread)
	}
	var sb strings.Builder
	r.Write(&sb)
	if !strings.Contains(sb.String(), "Table I") {
		t.Error("Write output malformed")
	}
}

// traceBuilder assembles minimal traces for unit tests.
type traceBuilder struct {
	power, soe []float64
}

func (b *traceBuilder) add(p, soe float64) {
	b.power = append(b.power, p)
	b.soe = append(b.soe, soe)
}

func (b *traceBuilder) trace() *sim.Trace {
	return &sim.Trace{PowerRequest: b.power, SoE: b.soe}
}
