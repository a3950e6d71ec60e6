package battery

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

// teslaPack returns an NCR18650A pack in the Tesla-Model-S-like 96S74P
// topology the paper references (§II-A).
func teslaPack(soc, temp float64) *Pack {
	p, err := NewPack(NCR18650A(), 96, 74, soc, temp)
	if err != nil {
		panic("battery: Tesla pack defaults invalid: " + err.Error())
	}
	return p
}

// cellHeat is Eq. 4 for one cell, recomputed from scratch: the Joule
// term I·(Voc−Vterm) = I²R plus the entropic term I·T·dVoc/dT.
func cellHeat(p CellParams, i, z, T float64) float64 {
	return i*i*p.Resistance(z, T) + i*T*p.DVocDT
}

func TestNCR18650AValid(t *testing.T) {
	if err := NCR18650A().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*CellParams)
	}{
		{"zero capacity", func(p *CellParams) { p.CapacityAh = 0 }},
		{"negative ref temp", func(p *CellParams) { p.RefTemp = -1 }},
		{"zero heat capacity", func(p *CellParams) { p.HeatCapacity = 0 }},
		{"inverted SoC window", func(p *CellParams) { p.MinSoC = 0.9; p.MaxSoC = 0.2 }},
		{"SoC above 1", func(p *CellParams) { p.MaxSoC = 1.5 }},
		{"zero safe temp", func(p *CellParams) { p.SafeTemp = 0 }},
		{"zero max current", func(p *CellParams) { p.MaxCurrent = 0 }},
		{"negative activation energy", func(p *CellParams) { p.L[1] = -5 }},
	}
	for _, m := range mutations {
		p := NCR18650A()
		m.mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid params", m.name)
		}
	}
}

func TestOCVShape(t *testing.T) {
	p := NCR18650A()
	full := p.OCV(1)
	empty := p.OCV(0)
	if full < 3.9 || full > 4.3 {
		t.Errorf("OCV(1) = %v, want ≈4.1 V", full)
	}
	if empty > 3.0 || empty < 2.0 {
		t.Errorf("OCV(0) = %v, want ≈2.65 V", empty)
	}
	// Monotone increasing over the usable window.
	prev := p.OCV(0.2)
	for z := 0.25; z <= 1.0001; z += 0.05 {
		v := p.OCV(z)
		if v < prev {
			t.Errorf("OCV not monotone at z=%v: %v < %v", z, v, prev)
		}
		prev = v
	}
	// Clamping outside [0,1].
	if p.OCV(1.5) != p.OCV(1) || p.OCV(-0.5) != p.OCV(0) {
		t.Error("OCV does not clamp SoC")
	}
}

func TestResistanceTemperatureEffect(t *testing.T) {
	p := NCR18650A()
	rCold := p.Resistance(0.5, units.CToK(0))
	rRef := p.Resistance(0.5, units.CToK(25))
	rHot := p.Resistance(0.5, units.CToK(40))
	if !(rCold > rRef && rRef > rHot) {
		t.Errorf("resistance not decreasing with T: %v, %v, %v", rCold, rRef, rHot)
	}
	// At the reference temperature the correction must vanish.
	base := p.R[0]*math.Exp(p.R[1]*0.5) + p.R[2]
	if math.Abs(rRef-base) > 1e-12 {
		t.Errorf("Resistance at RefTemp = %v, want %v", rRef, base)
	}
}

func TestResistanceLowSoCHigher(t *testing.T) {
	p := NCR18650A()
	if p.Resistance(0.05, p.RefTemp) <= p.Resistance(0.9, p.RefTemp) {
		t.Error("resistance should rise at low SoC")
	}
}

func TestHeatRateEntropySigns(t *testing.T) {
	p := NCR18650A()
	T := units.CToK(25)
	r := p.Resistance(0.5, T)
	jouleOnly := func(i float64) float64 { return i * i * r }

	// Discharge: exothermic entropy (dVoc/dT > 0) adds to the Joule term.
	qDis := cellHeat(p, 3, 0.5, T)
	if qDis <= jouleOnly(3) {
		t.Errorf("discharge heat %v should exceed pure Joule %v", qDis, jouleOnly(3))
	}
	// Charge: the entropic term is endothermic; at low current the cell
	// cools on net (regenerative braking absorbs heat).
	qChg := cellHeat(p, -1, 0.5, T)
	if qChg >= jouleOnly(1) {
		t.Errorf("charge heat %v should be below pure Joule %v", qChg, jouleOnly(1))
	}
	// At high charge current Joule dominates again.
	if q := cellHeat(p, -10, 0.5, T); q <= 0 {
		t.Errorf("high-rate charge heat %v, want > 0 (Joule dominated)", q)
	}
	if cellHeat(p, 0, 0.5, T) != 0 {
		t.Error("zero current must generate zero heat")
	}
}

func TestAgingRateArrhenius(t *testing.T) {
	p := NCR18650A()
	r25 := p.AgingRate(2, units.CToK(25))
	r40 := p.AgingRate(2, units.CToK(40))
	if r40 <= r25 {
		t.Errorf("aging must accelerate with temperature: %v vs %v", r40, r25)
	}
	// Paper-cited behaviour: roughly 1.5–2.5× per 15 K near room temperature.
	ratio := r40 / r25
	if ratio < 1.3 || ratio > 3.5 {
		t.Errorf("aging ratio over 15 K = %v, want in [1.3, 3.5]", ratio)
	}
	if p.AgingRate(0, units.CToK(25)) != 0 {
		t.Error("zero current must not age the cell")
	}
}

func TestAgingRateSuperlinearInCurrent(t *testing.T) {
	p := NCR18650A()
	T := units.CToK(30)
	// With L[2] > 1, splitting a current in half more than halves the rate:
	// rate(2I) > 2·rate(I).
	if p.AgingRate(4, T) <= 2*p.AgingRate(2, T) {
		t.Error("aging should be super-linear in current (peak shaving must pay off)")
	}
}

func TestAgingRateMonotoneProperty(t *testing.T) {
	p := NCR18650A()
	f := func(a, b float64) bool {
		ia, ib := math.Abs(math.Mod(a, 10)), math.Abs(math.Mod(b, 10))
		if math.IsNaN(ia) || math.IsNaN(ib) {
			return true
		}
		lo, hi := math.Min(ia, ib), math.Max(ia, ib)
		return p.AgingRate(lo, 300) <= p.AgingRate(hi, 300)+1e-15
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewPackValidation(t *testing.T) {
	cell := NCR18650A()
	if _, err := NewPack(cell, 0, 1, 0.5, 300); err == nil {
		t.Error("accepted zero series count")
	}
	if _, err := NewPack(cell, 96, -1, 0.5, 300); err == nil {
		t.Error("accepted negative parallel count")
	}
	if _, err := NewPack(cell, 96, 74, 1.5, 300); err == nil {
		t.Error("accepted SoC > 1")
	}
	if _, err := NewPack(cell, 96, 74, 0.5, -10); err == nil {
		t.Error("accepted negative temperature")
	}
	bad := cell
	bad.CapacityAh = -1
	if _, err := NewPack(bad, 96, 74, 0.5, 300); err == nil {
		t.Error("accepted invalid cell params")
	}
}

func TestTeslaPackAggregates(t *testing.T) {
	b := teslaPack(1.0, units.CToK(25))
	if got := b.CellCount(); got != 96*74 {
		t.Errorf("CellCount = %d", got)
	}
	if got := b.CapacityAh(); math.Abs(got-3.1*74) > 1e-9 {
		t.Errorf("CapacityAh = %v", got)
	}
	voc := b.OCV()
	if voc < 380 || voc > 410 {
		t.Errorf("pack OCV = %v, want ≈ 390 V at full charge", voc)
	}
	r := b.Resistance()
	if r < 0.02 || r > 0.2 {
		t.Errorf("pack resistance = %v Ω, want tens of mΩ", r)
	}
	if b.MaxDischargePower() < 200e3 {
		t.Errorf("MaxDischargePower = %v, want > 200 kW", b.MaxDischargePower())
	}
}

func TestCurrentForPowerRoundTrip(t *testing.T) {
	b := teslaPack(0.8, units.CToK(25))
	for _, p := range []float64{-50e3, -10e3, 0, 5e3, 40e3, 120e3} {
		i, err := currentForPowerPrepared(b.PrepareStep(), p)
		if err != nil {
			t.Fatalf("currentForPowerPrepared(%v): %v", p, err)
		}
		got := (b.OCV() - b.Resistance()*i) * i
		if math.Abs(got-p) > 1e-6*(1+math.Abs(p)) {
			t.Errorf("power round trip: got %v, want %v", got, p)
		}
		if p > 0 && i <= 0 {
			t.Errorf("discharge power %v gave current %v", p, i)
		}
		if p < 0 && i >= 0 {
			t.Errorf("charge power %v gave current %v", p, i)
		}
	}
}

func TestCurrentForPowerInfeasible(t *testing.T) {
	b := teslaPack(0.8, units.CToK(25))
	_, err := currentForPowerPrepared(b.PrepareStep(), b.MaxDischargePower()*1.01)
	if !errors.Is(err, ErrPowerInfeasible) {
		t.Errorf("err = %v, want ErrPowerInfeasible", err)
	}
}

func TestStepDischargeDrainsSoC(t *testing.T) {
	b := teslaPack(0.9, units.CToK(25))
	soc0 := b.SoC
	res, err := b.Step(50e3, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if b.SoC >= soc0 {
		t.Errorf("SoC did not drop: %v -> %v", soc0, b.SoC)
	}
	if res.HeatRate <= 0 {
		t.Errorf("HeatRate = %v, want > 0", res.HeatRate)
	}
	if res.JouleLoss <= 0 {
		t.Errorf("JouleLoss = %v", res.JouleLoss)
	}
	if res.ChemicalEnergy <= 50e3 {
		t.Errorf("ChemicalEnergy = %v, want > delivered 50 kJ (includes losses)", res.ChemicalEnergy)
	}
	if res.AgingPct <= 0 {
		t.Errorf("AgingPct = %v, want > 0", res.AgingPct)
	}
	if b.CapacityLossPct != res.AgingPct {
		t.Errorf("pack loss %v != step loss %v", b.CapacityLossPct, res.AgingPct)
	}
}

func TestStepChargeRaisesSoC(t *testing.T) {
	b := teslaPack(0.5, units.CToK(25))
	soc0 := b.SoC
	res, err := b.Step(-30e3, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if b.SoC <= soc0 {
		t.Errorf("SoC did not rise on charge: %v -> %v", soc0, b.SoC)
	}
	if res.Current >= 0 {
		t.Errorf("charge current = %v, want < 0", res.Current)
	}
	if res.ChemicalEnergy >= 0 {
		t.Errorf("ChemicalEnergy = %v, want < 0 (energy stored)", res.ChemicalEnergy)
	}
	if res.TerminalVoltage <= b.OCV() {
		t.Errorf("charging terminal voltage %v should exceed OCV %v", res.TerminalVoltage, b.OCV())
	}
}

func TestStepRejectsBadDt(t *testing.T) {
	b := teslaPack(0.5, units.CToK(25))
	if _, err := b.Step(1000, 0); err == nil {
		t.Error("dt=0 accepted")
	}
	if _, err := b.StepCurrent(10, -1); err == nil {
		t.Error("dt<0 accepted")
	}
}

func TestStepCoulombCounting(t *testing.T) {
	// Discharging at exactly 1C for one hour should drain 100 % SoC.
	b := teslaPack(1.0, units.CToK(25))
	iC := b.CapacityAh() // amperes for 1C
	dt := 1.0
	for s := 0; s < 3600; s++ {
		if _, err := b.StepCurrent(iC, dt); err != nil {
			t.Fatal(err)
		}
	}
	if b.SoC > 1e-9 {
		t.Errorf("after 1C for 1 h, SoC = %v, want 0", b.SoC)
	}
}

func TestStepEnergyConservation(t *testing.T) {
	// Chemical energy = delivered energy + Joule loss for one step.
	b := teslaPack(0.8, units.CToK(25))
	power := 60e3
	dt := 1.0
	res, err := b.Step(power, dt)
	if err != nil {
		t.Fatal(err)
	}
	delivered := power * dt
	if math.Abs(res.ChemicalEnergy-(delivered+res.JouleLoss*dt)) > 1e-6*res.ChemicalEnergy {
		t.Errorf("energy balance: chem %v, delivered+loss %v",
			res.ChemicalEnergy, delivered+res.JouleLoss*dt)
	}
}

func TestSoCClampAtEmpty(t *testing.T) {
	b := teslaPack(0.001, units.CToK(25))
	for s := 0; s < 100; s++ {
		if _, err := b.StepCurrent(b.MaxCurrent(), 10); err != nil {
			t.Fatal(err)
		}
	}
	if b.SoC < 0 {
		t.Errorf("SoC went negative: %v", b.SoC)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	b := teslaPack(0.7, units.CToK(25))
	c := b.Clone()
	if _, err := c.Step(50e3, 5); err != nil {
		t.Fatal(err)
	}
	if b.SoC != 0.7 || b.CapacityLossPct != 0 {
		t.Error("Clone mutation leaked into original")
	}
}

func TestEffectiveCapacityReflectsAging(t *testing.T) {
	b := teslaPack(0.7, units.CToK(25))
	b.CapacityLossPct = 20
	want := b.CapacityAh() * 0.8
	if got := b.EffectiveCapacityAh(); math.Abs(got-want) > 1e-9 {
		t.Errorf("EffectiveCapacityAh = %v, want %v", got, want)
	}
}

func TestHeatConsistencyStepVsCellModel(t *testing.T) {
	// Pack heat rate must equal cellcount × per-cell heat at the same
	// operating point.
	b := teslaPack(0.6, units.CToK(30))
	res, err := b.StepCurrent(148, 1) // 2 A per string
	if err != nil {
		t.Fatal(err)
	}
	// Recompute from pre-step state: per-cell current 148/74 = 2 A.
	p := NCR18650A()
	want := cellHeat(p, 2, 0.6, units.CToK(30)) * 96 * 74
	if math.Abs(res.HeatRate-want) > 1e-9*math.Abs(want) {
		t.Errorf("HeatRate = %v, want %v", res.HeatRate, want)
	}
}

func TestLFP26650Valid(t *testing.T) {
	if err := LFP26650().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLFPChemistryShape(t *testing.T) {
	lfp := LFP26650()
	nca := NCR18650A()
	// Lower nominal voltage.
	if lfp.OCV(0.5) >= nca.OCV(0.5) {
		t.Errorf("LFP OCV %v should be below NCA %v", lfp.OCV(0.5), nca.OCV(0.5))
	}
	// Much flatter plateau: the 30–90 % swing is a fraction of NCA's.
	lfpSwing := lfp.OCV(0.9) - lfp.OCV(0.3)
	ncaSwing := nca.OCV(0.9) - nca.OCV(0.3)
	if lfpSwing >= ncaSwing/2 {
		t.Errorf("LFP swing %v not flat vs NCA %v", lfpSwing, ncaSwing)
	}
	// OCV still monotone.
	prev := lfp.OCV(0.05)
	for z := 0.1; z <= 1.0001; z += 0.05 {
		v := lfp.OCV(z)
		if v < prev {
			t.Fatalf("LFP OCV not monotone at %v", z)
		}
		prev = v
	}
	// Higher thermal tolerance and slower aging at the same conditions.
	if lfp.SafeTemp <= nca.SafeTemp {
		t.Error("LFP should tolerate higher temperature")
	}
	if lfp.AgingRate(3, units.CToK(35)) >= nca.AgingRate(3, units.CToK(35)) {
		t.Error("LFP should age slower at moderate temperature")
	}
}

func TestLFPPackRuns(t *testing.T) {
	// A 112S30P LFP pack reaches a comparable bus voltage (~360 V).
	p, err := NewPack(LFP26650(), 112, 30, 0.9, units.CToK(25))
	if err != nil {
		t.Fatal(err)
	}
	if v := p.OCV(); v < 330 || v > 400 {
		t.Errorf("LFP pack OCV = %v, want ≈360 V", v)
	}
	if _, err := p.Step(40e3, 1); err != nil {
		t.Fatal(err)
	}
}
