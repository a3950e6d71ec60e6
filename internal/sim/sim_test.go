package sim

import (
	"math"
	"testing"

	"repro/internal/hees"
	"repro/internal/units"
)

// constController issues the same action every step.
type constController struct {
	name string
	act  Action
}

func (c constController) Name() string                    { return c.name }
func (c constController) Decide(*Plant, []float64) Action { return c.act }

func newTestPlant(t *testing.T) *Plant {
	t.Helper()
	p, err := NewPlant(PlantConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewPlantDefaults(t *testing.T) {
	p := newTestPlant(t)
	if p.HEES.Battery.SoC != 1.0 || p.HEES.Cap.SoE != 1.0 {
		t.Error("defaults should start fully charged (Algorithm 1 line 9)")
	}
	if p.Loop.BatteryTemp != 298 || p.Ambient != 298 {
		t.Errorf("default temperatures wrong: %v / %v", p.Loop.BatteryTemp, p.Ambient)
	}
	if p.DT != 1 {
		t.Errorf("default DT = %v", p.DT)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNewPlantCustomUltracap(t *testing.T) {
	p, err := NewPlant(PlantConfig{UltracapF: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if p.HEES.Cap.Params.NameplateF != 5000 {
		t.Errorf("NameplateF = %v", p.HEES.Cap.Params.NameplateF)
	}
}

// TestNewPlantRejectsTinyNegatives pins that zero, and only zero, asks
// for a default: a field a hair below zero is an input NewPlant rejects,
// not a full pack, a 25 kF bank or the paper's temperatures.
func TestNewPlantRejectsTinyNegatives(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  PlantConfig
	}{
		{"UltracapF", PlantConfig{UltracapF: -5e-10}},
		{"InitialSoC", PlantConfig{InitialSoC: -5e-10}},
		{"InitialSoE", PlantConfig{InitialSoE: -5e-10}},
		{"InitialTemp", PlantConfig{InitialTemp: -5e-10}},
		{"Ambient", PlantConfig{Ambient: -5e-10}},
		{"DT", PlantConfig{DT: -5e-10}},
	} {
		if _, err := NewPlant(c.cfg); err == nil {
			t.Errorf("%s = -5e-10 accepted", c.name)
		}
	}
}

func TestPlantValidate(t *testing.T) {
	p := newTestPlant(t)
	bad := *p
	bad.HEES = nil
	if err := bad.Validate(); err == nil {
		t.Error("nil HEES accepted")
	}
	bad = *p
	bad.Loop = nil
	if err := bad.Validate(); err == nil {
		t.Error("nil Loop accepted")
	}
	bad = *p
	bad.Ambient = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero ambient accepted")
	}
	bad = *p
	bad.DT = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero dt accepted")
	}
}

func TestRunValidation(t *testing.T) {
	p := newTestPlant(t)
	ctrl := constController{"c", Action{Arch: ArchBatteryDirect}}
	if _, err := Run(p, nil, []float64{1}, Config{}); err == nil {
		t.Error("nil controller accepted")
	}
	if _, err := Run(p, ctrl, nil, Config{}); err == nil {
		t.Error("empty series accepted")
	}
	bad := *p
	bad.DT = -1
	if _, err := Run(&bad, ctrl, []float64{1}, Config{}); err == nil {
		t.Error("invalid plant accepted")
	}
}

func TestRunBatteryDirectAccounting(t *testing.T) {
	p := newTestPlant(t)
	requests := make([]float64, 120)
	for i := range requests {
		requests[i] = 20e3
	}
	res, err := Run(p, constController{"batt", Action{Arch: ArchBatteryDirect}}, requests, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 120 || res.Controller != "batt" {
		t.Errorf("result meta: %+v", res)
	}
	// 20 kW for 120 s = 2.4 MJ delivered; drawn energy must exceed it.
	if res.HEESEnergyJ <= 2.4e6 {
		t.Errorf("HEESEnergyJ = %v, want > 2.4 MJ", res.HEESEnergyJ)
	}
	if res.AvgPowerW <= 20e3 {
		t.Errorf("AvgPowerW = %v, want > 20 kW (losses)", res.AvgPowerW)
	}
	if res.QlossPct <= 0 {
		t.Error("no aging recorded")
	}
	if res.FinalSoC >= 1.0 {
		t.Error("SoC did not drop")
	}
	if res.CoolingEnergyJ != 0 {
		t.Errorf("cooling energy %v without cooling", res.CoolingEnergyJ)
	}
	if res.MaxBatteryTemp <= 298 {
		t.Error("battery did not heat up")
	}
}

func TestRunCoolingConsumesEnergyAndCools(t *testing.T) {
	// Long enough for the Arrhenius aging benefit of the cooler pack to
	// overcome the extra battery current that powers the cooler.
	requests := make([]float64, 1800)
	for i := range requests {
		requests[i] = 25e3
	}
	hot, _ := NewPlant(PlantConfig{InitialTemp: units.CToK(36)})
	resPassive, err := Run(hot, constController{"nocool", Action{Arch: ArchBatteryDirect}}, requests, Config{})
	if err != nil {
		t.Fatal(err)
	}
	hot2, _ := NewPlant(PlantConfig{InitialTemp: units.CToK(36)})
	coolAct := Action{Arch: ArchBatteryDirect, CoolingOn: true, InletTemp: units.CToK(10)}
	resCooled, err := Run(hot2, constController{"cool", coolAct}, requests, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if resCooled.CoolingEnergyJ <= 0 {
		t.Error("cooling energy not recorded")
	}
	if resCooled.MaxBatteryTemp >= resPassive.MaxBatteryTemp {
		t.Errorf("cooling did not lower peak temp: %v vs %v",
			resCooled.MaxBatteryTemp, resPassive.MaxBatteryTemp)
	}
	if resCooled.QlossPct >= resPassive.QlossPct {
		t.Errorf("cooling should slow aging: %v vs %v", resCooled.QlossPct, resPassive.QlossPct)
	}
	// Cooling power is folded into the bus load → more HEES energy.
	if resCooled.HEESEnergyJ <= resPassive.HEESEnergyJ {
		t.Error("cooled run should draw more total energy")
	}
}

func TestRunTraceRecording(t *testing.T) {
	p := newTestPlant(t)
	requests := []float64{1e3, 2e3, 3e3, -1e3}
	res, err := Run(p, constController{"b", Action{Arch: ArchBatteryDirect}}, requests, Config{RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	if tr == nil {
		t.Fatal("trace missing")
	}
	if len(tr.Time) != 4 || len(tr.BatteryTemp) != 4 || len(tr.SoE) != 4 {
		t.Fatalf("trace lengths wrong: %d", len(tr.Time))
	}
	if tr.PowerRequest[2] != 3e3 {
		t.Errorf("trace power[2] = %v", tr.PowerRequest[2])
	}
	if tr.Time[3] != 3 {
		t.Errorf("trace time[3] = %v", tr.Time[3])
	}
}

func TestRunWithoutTraceOmitsIt(t *testing.T) {
	p := newTestPlant(t)
	res, err := Run(p, constController{"b", Action{Arch: ArchBatteryDirect}}, []float64{1e3}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Error("trace recorded without RecordTrace")
	}
}

func TestRunThermalViolationCounting(t *testing.T) {
	// Start above the 40 °C safe limit with no cooling: violations accrue.
	p, _ := NewPlant(PlantConfig{InitialTemp: units.CToK(45), Ambient: units.CToK(45)})
	requests := make([]float64, 10)
	for i := range requests {
		requests[i] = 30e3
	}
	res, err := Run(p, constController{"b", Action{Arch: ArchBatteryDirect}}, requests, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ThermalViolationSec != 10 {
		t.Errorf("ThermalViolationSec = %v, want 10", res.ThermalViolationSec)
	}
}

func TestRunDualFallbackOnDepletedCap(t *testing.T) {
	// Tiny capacitor at the SoE floor: DualCap commands must fall back to
	// the battery and be counted.
	p, _ := NewPlant(PlantConfig{UltracapF: 5000, InitialSoE: 0.05})
	requests := make([]float64, 30)
	for i := range requests {
		requests[i] = 25e3
	}
	act := Action{Arch: ArchDual, DualMode: hees.DualCap}
	res, err := Run(p, constController{"dualcap", act}, requests, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.FallbackSteps == 0 {
		t.Error("no fallbacks recorded for depleted capacitor")
	}
	// The load was still served by the battery.
	if res.FinalSoC >= 1.0 {
		t.Error("battery did not serve the load")
	}
}

func TestRunHybridSplit(t *testing.T) {
	p := newTestPlant(t)
	requests := make([]float64, 60)
	for i := range requests {
		requests[i] = 40e3
	}
	act := Action{Arch: ArchHybrid, CapBusPower: 15e3}
	res, err := Run(p, constController{"hyb", act}, requests, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalSoE >= 1.0 {
		t.Error("capacitor untouched in hybrid split")
	}
	if res.FinalSoC >= 1.0 {
		t.Error("battery untouched in hybrid split")
	}
}

func TestRunForecastWindow(t *testing.T) {
	// The controller must see a zero-padded forecast of the configured
	// horizon.
	p := newTestPlant(t)
	var got [][]float64
	ctrl := funcController{
		name: "probe",
		fn: func(_ *Plant, forecast []float64) Action {
			cp := append([]float64(nil), forecast...)
			got = append(got, cp)
			return Action{Arch: ArchBatteryDirect}
		},
	}
	requests := []float64{1, 2, 3}
	if _, err := Run(p, ctrl, requests, Config{Horizon: 4}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("controller called %d times", len(got))
	}
	want0 := []float64{1, 2, 3, 0}
	for i, v := range want0 {
		if got[0][i] != v {
			t.Errorf("first forecast = %v, want %v", got[0], want0)
			break
		}
	}
	want2 := []float64{3, 0, 0, 0}
	for i, v := range want2 {
		if got[2][i] != v {
			t.Errorf("last forecast = %v, want %v", got[2], want2)
			break
		}
	}
}

type funcController struct {
	name string
	fn   func(*Plant, []float64) Action
}

func (f funcController) Name() string                         { return f.name }
func (f funcController) Decide(p *Plant, fc []float64) Action { return f.fn(p, fc) }

func TestBLTMetrics(t *testing.T) {
	base := Result{QlossPct: 2.0}
	better := Result{QlossPct: 1.0}
	if r := better.BLTRatio(base); r != 0.5 {
		t.Errorf("BLTRatio = %v, want 0.5", r)
	}
	if ext := better.LifetimeExtensionPct(base); math.Abs(ext-100) > 1e-9 {
		t.Errorf("LifetimeExtensionPct = %v, want 100", ext)
	}
	if r := better.BLTRatio(Result{}); !math.IsInf(r, 1) {
		t.Errorf("BLTRatio vs zero baseline = %v", r)
	}
	if ext := (Result{}).LifetimeExtensionPct(base); !math.IsInf(ext, 1) {
		t.Errorf("LifetimeExtensionPct of zero-loss run = %v", ext)
	}
}

func TestArchKindString(t *testing.T) {
	if ArchParallel.String() != "parallel" || ArchBatteryDirect.String() != "battery-direct" ||
		ArchDual.String() != "dual" || ArchHybrid.String() != "hybrid" {
		t.Error("ArchKind strings wrong")
	}
	if ArchKind(9).String() != "ArchKind(9)" {
		t.Error(ArchKind(9).String())
	}
}

func TestRunRegenChargesBattery(t *testing.T) {
	p, _ := NewPlant(PlantConfig{InitialSoC: 0.8})
	requests := make([]float64, 30)
	for i := range requests {
		requests[i] = -20e3
	}
	res, err := Run(p, constController{"regen", Action{Arch: ArchBatteryDirect}}, requests, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalSoC <= 0.8 {
		t.Error("regen did not charge the battery")
	}
	if res.HEESEnergyJ >= 0 {
		t.Errorf("regen HEES energy = %v, want < 0", res.HEESEnergyJ)
	}
}

func TestRunEnergyConservationAudit(t *testing.T) {
	// Whole-run energy audit on the battery-direct path: the chemical
	// energy drawn must equal the delivered bus energy plus resistive
	// losses — every joule accounted for.
	p := newTestPlant(t)
	requests := make([]float64, 400)
	for i := range requests {
		requests[i] = 10e3 + 15e3*math.Sin(float64(i)/25)
	}
	res, err := Run(p, constController{"audit", Action{Arch: ArchBatteryDirect}}, requests, Config{RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	var delivered float64
	for _, pe := range requests {
		delivered += pe * p.DT
	}
	// Losses = drawn − delivered must be positive and small relative to
	// the throughput (battery efficiency > 90 %).
	loss := res.HEESEnergyJ - delivered
	if loss <= 0 {
		t.Errorf("energy audit: loss = %v, want > 0", loss)
	}
	var throughput float64
	for _, pe := range requests {
		throughput += math.Abs(pe) * p.DT
	}
	if loss > 0.1*throughput {
		t.Errorf("energy audit: loss %v exceeds 10%% of throughput %v", loss, throughput)
	}
	// The trace's battery power must integrate to ≈ the delivered energy.
	var traced float64
	for _, bp := range res.Trace.BatteryPower {
		traced += bp * p.DT
	}
	if math.Abs(traced-delivered) > 0.001*throughput {
		t.Errorf("trace power integral %v != delivered %v", traced, delivered)
	}
}

func TestRunHybridEnergyAudit(t *testing.T) {
	// Same audit through the converter-coupled path: conversion and ESR
	// losses appear but stay bounded.
	p := newTestPlant(t)
	requests := make([]float64, 300)
	for i := range requests {
		requests[i] = 25e3
	}
	act := Action{Arch: ArchHybrid, CapBusPower: 8e3}
	res, err := Run(p, constController{"audit", act}, requests, Config{})
	if err != nil {
		t.Fatal(err)
	}
	delivered := 25e3 * 300 * p.DT
	loss := res.HEESEnergyJ - delivered
	if loss <= 0 {
		t.Errorf("hybrid audit: loss = %v, want > 0 (converter + ESR)", loss)
	}
	if loss > 0.15*delivered {
		t.Errorf("hybrid audit: loss %v exceeds 15%% of delivered %v", loss, delivered)
	}
}
