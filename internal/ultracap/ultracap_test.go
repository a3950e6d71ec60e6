package ultracap

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestMaxwellBCValid(t *testing.T) {
	for _, f := range []float64{5000, 10000, 20000, 25000} {
		if err := MaxwellBC(f).Validate(); err != nil {
			t.Errorf("MaxwellBC(%v): %v", f, err)
		}
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*BankParams)
	}{
		{"zero capacitance", func(p *BankParams) { p.NameplateF = 0 }},
		{"zero module voltage", func(p *BankParams) { p.ModuleVoltage = 0 }},
		{"zero bus voltage", func(p *BankParams) { p.BusVoltage = 0 }},
		{"negative ESR", func(p *BankParams) { p.ESR = -0.1 }},
		{"zero max power", func(p *BankParams) { p.MaxPower = 0 }},
		{"inverted SoE window", func(p *BankParams) { p.MinSoE = 0.9; p.MaxSoE = 0.3 }},
		{"NaN capacitance", func(p *BankParams) { p.NameplateF = math.NaN() }},
		{"infinite capacitance", func(p *BankParams) { p.NameplateF = math.Inf(1) }},
		{"NaN module voltage", func(p *BankParams) { p.ModuleVoltage = math.NaN() }},
		{"infinite module voltage", func(p *BankParams) { p.ModuleVoltage = math.Inf(1) }},
		{"NaN bus voltage", func(p *BankParams) { p.BusVoltage = math.NaN() }},
		{"infinite bus voltage", func(p *BankParams) { p.BusVoltage = math.Inf(1) }},
		{"NaN ESR", func(p *BankParams) { p.ESR = math.NaN() }},
		{"infinite ESR", func(p *BankParams) { p.ESR = math.Inf(1) }},
		{"NaN max power", func(p *BankParams) { p.MaxPower = math.NaN() }},
		{"infinite max power", func(p *BankParams) { p.MaxPower = math.Inf(1) }},
		{"NaN SoE floor", func(p *BankParams) { p.MinSoE = math.NaN() }},
		{"NaN SoE ceiling", func(p *BankParams) { p.MaxSoE = math.NaN() }},
	}
	for _, m := range mutations {
		p := MaxwellBC(25000)
		m.mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: accepted", m.name)
		}
	}
}

func TestEnergyCapacityScalesWithSize(t *testing.T) {
	e25 := MaxwellBC(25000).EnergyCapacity()
	e5 := MaxwellBC(5000).EnergyCapacity()
	if math.Abs(e25/e5-5) > 1e-12 {
		t.Errorf("energy ratio = %v, want 5", e25/e5)
	}
	// 25 kF at 15 V: ½·25000·225 = 2.8125 MJ.
	if math.Abs(e25-2.8125e6) > 1 {
		t.Errorf("EnergyCapacity(25kF) = %v, want 2.8125 MJ", e25)
	}
}

func TestNewBankValidation(t *testing.T) {
	if _, err := NewBank(MaxwellBC(25000), 1.2); err == nil {
		t.Error("accepted SoE > 1")
	}
	if _, err := NewBank(MaxwellBC(25000), -0.1); err == nil {
		t.Error("accepted SoE < 0")
	}
	bad := MaxwellBC(25000)
	bad.NameplateF = -1
	if _, err := NewBank(bad, 0.5); err == nil {
		t.Error("accepted invalid params")
	}
}

func TestVoltageSquareRootLaw(t *testing.T) {
	b, err := NewBank(MaxwellBC(25000), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Voltage(); math.Abs(got-390) > 1e-9 {
		t.Errorf("Voltage at full = %v, want 390", got)
	}
	b.SoE = 0.25
	if got := b.Voltage(); math.Abs(got-195) > 1e-9 {
		t.Errorf("Voltage at SoE=0.25 = %v, want 195 (V_r/2)", got)
	}
	b.SoE = 0
	if got := b.Voltage(); got != 0 {
		t.Errorf("Voltage at empty = %v", got)
	}
}

func TestStepDischargeDrainsEnergy(t *testing.T) {
	b, _ := NewBank(MaxwellBC(25000), 1.0)
	e0 := b.StoredEnergy()
	res, err := b.Step(50e3, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Current <= 0 {
		t.Errorf("discharge current = %v", res.Current)
	}
	drained := e0 - b.StoredEnergy()
	// Drain = delivered + ESR loss.
	want := 50e3*1.0 + res.ESRLoss
	if math.Abs(drained-want) > 1e-6*want {
		t.Errorf("drained %v, want %v", drained, want)
	}
	if res.TerminalVoltage >= 390 {
		t.Errorf("terminal voltage under load = %v, want < OCV", res.TerminalVoltage)
	}
}

func TestStepChargeStoresEnergy(t *testing.T) {
	b, _ := NewBank(MaxwellBC(25000), 0.5)
	e0 := b.StoredEnergy()
	res, err := b.Step(-30e3, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Current >= 0 {
		t.Errorf("charge current = %v, want < 0", res.Current)
	}
	gained := b.StoredEnergy() - e0
	// Stored = |delivered| − ESR loss.
	want := 30e3*1.0 - res.ESRLoss
	if math.Abs(gained-want) > 1e-6*want {
		t.Errorf("gained %v, want %v", gained, want)
	}
}

func TestStepDepletionReturnsErrEmpty(t *testing.T) {
	b, _ := NewBank(MaxwellBC(5000), 0.05)
	// 5 kF bank holds 562.5 kJ; at 5 % that's ~28 kJ. Ask for a feasible
	// 500 W (below V²/4R ≈ 845 W at this SoE) for 60 s = 30 kJ > stored.
	_, err := b.Step(500, 60)
	if !errors.Is(err, ErrEmpty) {
		t.Errorf("err = %v, want ErrEmpty", err)
	}
	if b.SoE != 0 {
		t.Errorf("SoE after depletion = %v, want 0", b.SoE)
	}
}

func TestStepOverchargeClamps(t *testing.T) {
	b, _ := NewBank(MaxwellBC(5000), 0.999)
	if _, err := b.Step(-100e3, 10); err != nil {
		t.Fatal(err)
	}
	if b.SoE > 1 {
		t.Errorf("SoE exceeded 1: %v", b.SoE)
	}
}

func TestStepRejectsBadDt(t *testing.T) {
	b, _ := NewBank(MaxwellBC(25000), 0.5)
	if _, err := b.Step(1000, 0); err == nil {
		t.Error("dt=0 accepted")
	}
}

func TestStepZeroPowerIsNoOp(t *testing.T) {
	b, _ := NewBank(MaxwellBC(25000), 0.7)
	res, err := b.Step(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Current != 0 || res.ESRLoss != 0 || b.SoE != 0.7 {
		t.Errorf("zero-power step changed state: %+v SoE=%v", res, b.SoE)
	}
}

func TestMaxDischargePowerMinOfSagAndC7(t *testing.T) {
	b, _ := NewBank(MaxwellBC(25000), 1.0)
	p := b.Params
	// At full charge the binding limit is min(V²/4R, C7).
	want := math.Min(390*390/(4*p.ESR), p.MaxPower)
	if got := b.MaxDischargePower(); math.Abs(got-want) > 1e-9 {
		t.Errorf("MaxDischargePower = %v, want %v", got, want)
	}
	b.SoE = 0.01
	// At 39 V the sag limit V²/4R is far below C7.
	want = 39.0 * 39.0 / (4 * p.ESR)
	if got := b.MaxDischargePower(); math.Abs(got-want) > 1e-9 {
		t.Errorf("MaxDischargePower at low SoE = %v, want %v", got, want)
	}
	// An idealised zero-ESR bank is limited only by C7.
	ideal := p
	ideal.ESR = 0
	bi := &Bank{Params: ideal, SoE: 1}
	if got := bi.MaxDischargePower(); got != p.MaxPower {
		t.Errorf("ideal bank MaxDischargePower = %v, want C7 %v", got, p.MaxPower)
	}
}

func TestESRScalesInverselyWithSize(t *testing.T) {
	if MaxwellBC(5000).ESR <= MaxwellBC(25000).ESR {
		t.Error("smaller banks must have higher referred ESR")
	}
	ratio := MaxwellBC(5000).ESR / MaxwellBC(25000).ESR
	if math.Abs(ratio-5) > 1e-9 {
		t.Errorf("ESR ratio 5k/25k = %v, want 5", ratio)
	}
}

func TestHeadroomAndAvailableEnergy(t *testing.T) {
	b, _ := NewBank(MaxwellBC(25000), 0.6)
	eCap := b.Params.EnergyCapacity()
	if got, want := b.HeadroomEnergy(), 0.4*eCap; math.Abs(got-want) > 1e-6 {
		t.Errorf("HeadroomEnergy = %v, want %v", got, want)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	b, _ := NewBank(MaxwellBC(25000), 0.8)
	c := b.Clone()
	if _, err := c.Step(40e3, 5); err != nil {
		t.Fatal(err)
	}
	if b.SoE != 0.8 {
		t.Error("Clone mutation leaked into original")
	}
}

func TestRoundTripEfficiencyBelowOne(t *testing.T) {
	// Discharging then recharging the same terminal energy must end with
	// less stored energy than we started with (ESR losses both ways).
	b, _ := NewBank(MaxwellBC(25000), 0.9)
	e0 := b.StoredEnergy()
	if _, err := b.Step(60e3, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Step(-60e3, 5); err != nil {
		t.Fatal(err)
	}
	if b.StoredEnergy() >= e0 {
		t.Errorf("round trip created energy: %v -> %v", e0, b.StoredEnergy())
	}
}

func TestStepSoEMonotoneUnderDischarge(t *testing.T) {
	f := func(powerKW, soe float64) bool {
		s := 0.3 + math.Abs(math.Mod(soe, 0.7))
		b := &Bank{Params: MaxwellBC(25000), SoE: s}
		p := math.Min(math.Abs(math.Mod(powerKW, 80))*1e3, b.MaxDischargePower())
		before := b.SoE
		_, err := b.Step(p, 1)
		if err != nil && !errors.Is(err, ErrEmpty) {
			return false
		}
		return b.SoE <= before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
