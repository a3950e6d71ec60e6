package sim

import (
	"repro/internal/battery"
	"repro/internal/converter"
	"repro/internal/cooling"
	"repro/internal/core/floats"
	"repro/internal/hees"
	"repro/internal/ultracap"
)

// PlantConfig describes the experimental system configuration. The zero
// value is completed by Defaults to the paper's setup (Algorithm 1 line 9
// initialises x⁰ = [298 K, 298 K, 100 %, 100 %]).
type PlantConfig struct {
	// UltracapF is the bank nameplate capacitance in farads (Table I knob).
	UltracapF float64
	// PackSeries and PackParallel define the battery topology.
	PackSeries, PackParallel int
	// InitialSoC and InitialSoE are fractions in [0, 1].
	InitialSoC, InitialSoE float64
	// InitialTemp is the initial battery/coolant temperature, kelvin.
	InitialTemp float64
	// Ambient is the outside-air temperature, kelvin.
	Ambient float64
	// DT is the control/integration period, seconds.
	DT float64
	// Cooling optionally overrides the cooling-loop parameters.
	Cooling *cooling.Params
	// Cell optionally overrides the battery chemistry (default NCR18650A).
	Cell *battery.CellParams
}

// Defaults fills unset (zero) fields with the paper's experimental setup.
// A negative value, however tiny, is kept for NewPlant to reject.
func (c PlantConfig) Defaults() PlantConfig {
	if floats.Unset(c.UltracapF) {
		c.UltracapF = 25000
	}
	if c.PackSeries == 0 {
		c.PackSeries = 96
	}
	if c.PackParallel == 0 {
		c.PackParallel = 24
	}
	if floats.Unset(c.InitialSoC) {
		c.InitialSoC = 1.0
	}
	if floats.Unset(c.InitialSoE) {
		c.InitialSoE = 1.0
	}
	if floats.Unset(c.InitialTemp) {
		c.InitialTemp = 298
	}
	if floats.Unset(c.Ambient) {
		c.Ambient = 298
	}
	if floats.Unset(c.DT) {
		c.DT = 1
	}
	return c
}

// NewPlant builds a plant from the configuration (after applying Defaults).
func NewPlant(cfg PlantConfig) (*Plant, error) {
	cfg = cfg.Defaults()

	cell := battery.NCR18650A()
	if cfg.Cell != nil {
		cell = *cfg.Cell
	}
	pack, err := battery.NewPack(cell, cfg.PackSeries, cfg.PackParallel,
		cfg.InitialSoC, cfg.InitialTemp)
	if err != nil {
		return nil, err
	}
	bank, err := ultracap.NewBank(ultracap.MaxwellBC(cfg.UltracapF), cfg.InitialSoE)
	if err != nil {
		return nil, err
	}
	// The battery-branch converter is sized for the pack's mid-SoC voltage
	// (a regulated main path, 98 % peak); the ultracapacitor branch keeps
	// the full voltage-droop penalty that makes deep SoE swings costly
	// (paper §II-C).
	battConv := converter.Default(0.93 * pack.OCV())
	battConv.PeakEfficiency = 0.98
	battConv.Droop = 0.15
	sys, err := hees.NewSystem(pack, bank,
		battConv, converter.Default(bank.Params.BusVoltage))
	if err != nil {
		return nil, err
	}

	coolParams := cooling.DefaultParams()
	if cfg.Cooling != nil {
		coolParams = *cfg.Cooling
	}
	// Size the loop's thermal mass to the actual pack.
	coolParams.BatteryHeatCapacity = pack.HeatCapacity()
	loop, err := cooling.NewLoop(coolParams, cfg.InitialTemp)
	if err != nil {
		return nil, err
	}

	p := &Plant{HEES: sys, Loop: loop, Ambient: cfg.Ambient, DT: cfg.DT}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}
