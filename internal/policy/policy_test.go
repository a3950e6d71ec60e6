package policy

import (
	"testing"

	"repro/internal/drivecycle"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/vehicle"
)

func us06Requests(t *testing.T, repeats int) []float64 {
	t.Helper()
	cycle := drivecycle.US06().Repeat(repeats)
	return vehicle.MidSizeEV().PowerSeries(cycle)
}

func runPolicy(t *testing.T, ctrl sim.Controller, capF float64, requests []float64) sim.Result {
	t.Helper()
	plant, err := sim.NewPlant(sim.PlantConfig{UltracapF: capF})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(plant, ctrl, requests, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestControllerNames(t *testing.T) {
	if (Parallel{}).Name() != "Parallel" {
		t.Error("Parallel name")
	}
	if NewActiveCooling().Name() != "ActiveCooling" {
		t.Error("ActiveCooling name")
	}
	if NewDual().Name() != "Dual" {
		t.Error("Dual name")
	}
	if (BatteryOnly{}).Name() != "BatteryOnly" {
		t.Error("BatteryOnly name")
	}
}

func TestParallelRunsUS06(t *testing.T) {
	res := runPolicy(t, Parallel{}, 25000, us06Requests(t, 2))
	if res.FallbackSteps > res.Steps/10 {
		t.Errorf("parallel fell back on %d of %d steps", res.FallbackSteps, res.Steps)
	}
	if res.MaxBatteryTemp <= 298 {
		t.Error("battery never heated on US06")
	}
	if res.QlossPct <= 0 {
		t.Error("no aging recorded")
	}
	if res.CoolingEnergyJ != 0 {
		t.Error("parallel must not cool")
	}
}

func TestActiveCoolingHoldsTemperature(t *testing.T) {
	requests := us06Requests(t, 3)
	cooled := runPolicy(t, NewActiveCooling(), 25000, requests)
	uncooled := runPolicy(t, BatteryOnly{}, 25000, requests)
	if cooled.CoolingEnergyJ <= 0 {
		t.Error("thermostat never engaged")
	}
	if cooled.MaxBatteryTemp >= uncooled.MaxBatteryTemp {
		t.Errorf("cooling did not lower peak temperature: %.2f vs %.2f °C",
			units.KToC(cooled.MaxBatteryTemp), units.KToC(uncooled.MaxBatteryTemp))
	}
	if cooled.MaxBatteryTemp > units.CToK(40) {
		t.Errorf("active cooling let the pack exceed the safe limit: %.2f °C",
			units.KToC(cooled.MaxBatteryTemp))
	}
	// Cooling consumes: Fig. 9's premise.
	if cooled.AvgPowerW <= uncooled.AvgPowerW {
		t.Errorf("cooled avg power %v should exceed uncooled %v", cooled.AvgPowerW, uncooled.AvgPowerW)
	}
}

func TestActiveCoolingProportionalHysteresis(t *testing.T) {
	a := NewActiveCooling()
	plant, err := sim.NewPlant(sim.PlantConfig{InitialTemp: units.CToK(25)})
	if err != nil {
		t.Fatal(err)
	}
	// Well below the setpoint: off.
	act := a.Decide(plant, []float64{0})
	if act.CoolingOn {
		t.Error("cooling on below the setpoint")
	}
	// Above the setpoint: on, with the inlet depressed proportionally.
	plant.Loop.BatteryTemp = units.CToK(34)
	plant.Loop.CoolantTemp = units.CToK(33)
	act = a.Decide(plant, []float64{0})
	if !act.CoolingOn {
		t.Fatal("cooling off above setpoint")
	}
	wantInlet := plant.Loop.CoolantTemp - a.Gain*(units.CToK(34)-a.TargetTemp)
	if act.InletTemp != wantInlet {
		t.Errorf("inlet = %v, want %v", act.InletTemp, wantInlet)
	}
	// Hotter battery → colder commanded inlet.
	plant.Loop.BatteryTemp = units.CToK(36)
	act2 := a.Decide(plant, []float64{0})
	if act2.InletTemp >= act.InletTemp {
		t.Error("inlet command should deepen as the battery heats")
	}
	// Inside the hysteresis band (just below setpoint): stays on.
	plant.Loop.BatteryTemp = a.TargetTemp - a.OffBand/2
	act = a.Decide(plant, []float64{0})
	if !act.CoolingOn {
		t.Error("hysteresis lost: switched off inside band")
	}
	// Below the band: off again.
	plant.Loop.BatteryTemp = a.TargetTemp - 2*a.OffBand
	act = a.Decide(plant, []float64{0})
	if act.CoolingOn {
		t.Error("cooling on below the hysteresis band")
	}
}

func TestDualReducesCapacityLossVsParallel(t *testing.T) {
	requests := us06Requests(t, 3)
	par := runPolicy(t, Parallel{}, 25000, requests)
	dual := runPolicy(t, NewDual(), 25000, requests)
	if dual.QlossPct >= par.QlossPct {
		t.Errorf("dual capacity loss %.4g should beat parallel %.4g (paper Fig. 8)",
			dual.QlossPct, par.QlossPct)
	}
	if dual.MaxBatteryTemp >= par.MaxBatteryTemp {
		t.Errorf("dual peak temp %.2f °C should be below parallel %.2f °C (paper Fig. 6)",
			units.KToC(dual.MaxBatteryTemp), units.KToC(par.MaxBatteryTemp))
	}
}

func TestDualSmallCapViolatesWhereBigDoesNot(t *testing.T) {
	// Paper Fig. 1: with a small ultracapacitor the dual policy cannot hold
	// the temperature — the capacitor depletes and the battery reheats.
	requests := us06Requests(t, 5)
	small := runPolicy(t, NewDual(), 5000, requests)
	big := runPolicy(t, NewDual(), 25000, requests)
	if small.MaxBatteryTemp <= big.MaxBatteryTemp {
		t.Errorf("small cap should run hotter: %.2f vs %.2f °C",
			units.KToC(small.MaxBatteryTemp), units.KToC(big.MaxBatteryTemp))
	}
	if small.ThermalViolationSec <= big.ThermalViolationSec {
		t.Errorf("small cap should violate the safe zone longer: %v s vs %v s",
			small.ThermalViolationSec, big.ThermalViolationSec)
	}
	if small.QlossPct <= big.QlossPct {
		t.Errorf("small cap should age the battery more: %v vs %v", small.QlossPct, big.QlossPct)
	}
}

func TestDualRegenPrefersCap(t *testing.T) {
	d := NewDual()
	plant, err := sim.NewPlant(sim.PlantConfig{InitialSoE: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	act := d.Decide(plant, []float64{-20e3})
	if act.Arch != sim.ArchDual || act.DualMode.String() != "ultracap" {
		t.Errorf("regen action = %+v, want dual/ultracap", act)
	}
	// Full cap: regen to battery.
	plant.HEES.Cap.SoE = 1.0
	act = d.Decide(plant, []float64{-20e3})
	if act.DualMode.String() != "battery" {
		t.Errorf("regen with full cap = %+v, want battery", act)
	}
}

func TestDualRechargesWhenCool(t *testing.T) {
	d := NewDual()
	plant, err := sim.NewPlant(sim.PlantConfig{InitialSoE: 0.5, InitialTemp: units.CToK(25)})
	if err != nil {
		t.Fatal(err)
	}
	act := d.Decide(plant, []float64{5e3})
	if act.DualMode.String() != "battery+charge" {
		t.Errorf("cool+low SoE should recharge, got %v", act.DualMode)
	}
	// Heavy load suppresses recharging.
	act = d.Decide(plant, []float64{50e3})
	if act.DualMode.String() != "battery" {
		t.Errorf("heavy load should not recharge, got %v", act.DualMode)
	}
}

func TestDualSwitchesToCapWhenHot(t *testing.T) {
	d := NewDual()
	plant, err := sim.NewPlant(sim.PlantConfig{InitialTemp: units.CToK(36)})
	if err != nil {
		t.Fatal(err)
	}
	act := d.Decide(plant, []float64{20e3})
	if act.DualMode.String() != "ultracap" {
		t.Errorf("hot battery should switch to cap, got %v", act.DualMode)
	}
	// Depleted cap: battery anyway.
	plant.HEES.Cap.SoE = 0.1
	act = d.Decide(plant, []float64{20e3})
	if act.DualMode.String() != "battery" {
		t.Errorf("hot battery with empty cap should use battery, got %v", act.DualMode)
	}
}
