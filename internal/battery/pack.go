package battery

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/units"
)

// ErrPowerInfeasible is returned when a requested terminal power exceeds
// the pack's instantaneous capability Voc²/(4R).
var ErrPowerInfeasible = errors.New("battery: requested power exceeds pack capability")

// Pack is a battery pack of Series×Parallel identical cells with the lumped
// thermal model of paper §II-D: all cells share one temperature node.
//
// The zero value is not usable; construct with NewPack.
type Pack struct {
	// Cell holds the per-cell parameters.
	Cell CellParams
	// Series and Parallel define the pack topology.
	Series, Parallel int

	// SoC is the pack state of charge as a fraction in [0, 1] (Eq. 1).
	SoC float64
	// Temp is the lumped cell temperature T_b in kelvin.
	Temp float64
	// CapacityLossPct is the accumulated capacity loss Q_loss in percent of
	// rated capacity (Eq. 5, integrated).
	CapacityLossPct float64
}

// NewPack builds a pack with the given topology, initial state of charge
// (fraction) and temperature (kelvin).
func NewPack(cell CellParams, series, parallel int, soc, temp float64) (*Pack, error) {
	if err := cell.Validate(); err != nil {
		return nil, err
	}
	if series <= 0 || parallel <= 0 {
		return nil, fmt.Errorf("battery: topology %dS%dP invalid", series, parallel)
	}
	if soc < 0 || soc > 1 {
		return nil, fmt.Errorf("battery: initial SoC %g outside [0, 1]", soc)
	}
	if temp <= 0 {
		return nil, fmt.Errorf("battery: initial temperature %g K invalid", temp)
	}
	return &Pack{Cell: cell, Series: series, Parallel: parallel, SoC: soc, Temp: temp}, nil
}

// CellCount returns the total number of cells.
func (b *Pack) CellCount() int { return b.Series * b.Parallel }

// CapacityAh returns the rated pack capacity in ampere-hours.
func (b *Pack) CapacityAh() float64 { return b.Cell.CapacityAh * float64(b.Parallel) }

// EffectiveCapacityAh returns the pack capacity corrected for accumulated
// aging.
func (b *Pack) EffectiveCapacityAh() float64 {
	return b.CapacityAh() * (1 - b.CapacityLossPct/100)
}

// OCV returns the pack open-circuit voltage at the current state of charge.
func (b *Pack) OCV() float64 { return b.Cell.OCV(b.SoC) * float64(b.Series) }

// Resistance returns the pack internal resistance at the current state.
func (b *Pack) Resistance() float64 {
	return b.Cell.Resistance(b.SoC, b.Temp) * float64(b.Series) / float64(b.Parallel)
}

// HeatCapacity returns the lumped thermal capacity of the whole pack in J/K.
func (b *Pack) HeatCapacity() float64 {
	return b.Cell.HeatCapacity * float64(b.CellCount())
}

// MaxDischargePower returns the theoretical instantaneous power capability
// Voc²/(4R) in watts at the current state.
func (b *Pack) MaxDischargePower() float64 {
	voc := b.OCV()
	return voc * voc / (4 * b.Resistance())
}

// MaxCurrent returns the pack discharge-current limit in amperes
// (constraint C6 at pack level).
func (b *Pack) MaxCurrent() float64 { return b.Cell.MaxCurrent * float64(b.Parallel) }

// StepPrep carries the state-dependent quantities one integration step
// needs: the cell and pack open-circuit voltage and internal resistance at
// the present (SoC, Temp). Evaluating them once per step and sharing the
// result between the bus solve, the current integration and the heat model
// removes the two to three redundant exponential evaluations the unhoisted
// accessors cost.
//
// Bit-identity contract: every field is produced by exactly the expression
// the corresponding accessor (OCV, Resistance) uses, so substituting a prep
// field for a direct call yields identical bits — the property the fleet
// digest and the simulation goldens pin.
type StepPrep struct {
	// CellVoc and CellR are the per-cell open-circuit voltage (volts) and
	// internal resistance (ohms) at the pack state.
	CellVoc, CellR float64
	// VOC and R are the pack-level values Pack.OCV and Pack.Resistance
	// would return.
	VOC, R float64
}

// PrepareStep evaluates the state-dependent cell quantities once. The prep
// is valid until the pack state (SoC, Temp, CapacityLossPct) next changes.
func (b *Pack) PrepareStep() StepPrep {
	cellVoc := b.Cell.OCV(b.SoC)
	cellR := b.Cell.Resistance(b.SoC, b.Temp)
	return StepPrep{
		CellVoc: cellVoc,
		CellR:   cellR,
		VOC:     cellVoc * float64(b.Series),
		R:       cellR * float64(b.Series) / float64(b.Parallel),
	}
}

// currentForPowerPrepared solves the terminal power balance
// P = (Voc − R·I)·I for the pack current I (discharge positive; pass
// power < 0 for charging) on the hoisted state quantities. It returns
// ErrPowerInfeasible when |power| exceeds the pack capability.
func currentForPowerPrepared(pre StepPrep, power float64) (float64, error) {
	voc := pre.VOC
	r := pre.R
	// (Voc − R·I)·I = P  →  R·I² − Voc·I + P = 0
	// Discharge root: I = (Voc − sqrt(Voc² − 4·R·P)) / (2R); the same
	// expression yields the (negative) charging current for P < 0.
	disc := voc*voc - 4*r*power
	if disc < 0 {
		return 0, fmt.Errorf("%w: %.0f W > %.0f W", ErrPowerInfeasible, power, voc*voc/(4*r))
	}
	return (voc - math.Sqrt(disc)) / (2 * r), nil
}

// StepResult reports what happened during one integration step of the pack.
type StepResult struct {
	// Current is the pack current in amperes (discharge positive).
	Current float64
	// TerminalVoltage is the pack terminal voltage in volts.
	TerminalVoltage float64
	// HeatRate is the total internal heat generation Q_b of the pack in
	// watts (Eq. 4 summed over cells).
	HeatRate float64
	// JouleLoss is the resistive loss I²R of the pack in watts.
	JouleLoss float64
	// ChemicalEnergy is the energy drawn from (positive) or returned to
	// (negative) the cells' chemistry during the step, in joules:
	// Voc·I·Δt. This is dE_bat in the paper's cost function.
	ChemicalEnergy float64
	// AgingPct is the capacity loss accumulated during the step, in percent
	// of rated capacity.
	AgingPct float64
}

// Step draws the given terminal power (watts, discharge positive) for dt
// seconds: it solves the current, integrates SoC (Eq. 1) and aging (Eq. 5),
// and reports energies and heat. The pack temperature is NOT advanced here —
// thermal integration is owned by the cooling-system model, which needs the
// returned HeatRate.
//
// SoC is clamped to [0, 1]; callers enforce the usable window (C4)
// at the policy level.
func (b *Pack) Step(power, dt float64) (StepResult, error) {
	if dt <= 0 {
		return StepResult{}, fmt.Errorf("battery: non-positive dt %g", dt)
	}
	pre := b.PrepareStep()
	i, err := currentForPowerPrepared(pre, power)
	if err != nil {
		return StepResult{}, err
	}
	return b.StepCurrentPrepared(pre, i, dt), nil
}

// StepCurrent advances the pack with a prescribed pack current (amperes,
// discharge positive) rather than a power request; used by the passive
// parallel architecture where the current split is solved externally.
func (b *Pack) StepCurrent(i, dt float64) (StepResult, error) {
	if dt <= 0 {
		return StepResult{}, fmt.Errorf("battery: non-positive dt %g", dt)
	}
	return b.stepWithCurrent(i, dt), nil
}

func (b *Pack) stepWithCurrent(i, dt float64) StepResult {
	return b.StepCurrentPrepared(b.PrepareStep(), i, dt)
}

// StepCurrentPrepared is StepCurrent on hoisted state quantities: pre must
// come from PrepareStep on the pack's present state (the parallel-bus
// solver evaluates it once and shares it between the split solve and this
// integration). dt must be positive — the caller's architecture step has
// already validated it.
func (b *Pack) StepCurrentPrepared(pre StepPrep, i, dt float64) StepResult {
	voc := pre.VOC
	r := pre.R
	vterm := voc - i*r

	cellI := i / float64(b.Parallel)
	// Eq. 4 per cell, I²·R + I·T·dVoc/dT, with the hoisted cell resistance.
	heat := (cellI*cellI*pre.CellR + cellI*b.Temp*b.Cell.DVocDT) * float64(b.CellCount())
	joule := i * i * r
	aging := b.Cell.AgingRate(cellI, b.Temp) * dt

	// Eq. 1: SoC_t = SoC_0 − ∫ I/C dt, against the aging-corrected capacity
	// so long-horizon lifetime studies see the fade.
	capC := units.AhToCoulomb(b.EffectiveCapacityAh())
	b.SoC = units.Clamp(b.SoC-i*dt/capC, 0, 1)
	b.CapacityLossPct += aging

	return StepResult{
		Current:         i,
		TerminalVoltage: vterm,
		HeatRate:        heat,
		JouleLoss:       joule,
		ChemicalEnergy:  voc * i * dt,
		AgingPct:        aging,
	}
}

// Clone returns an independent copy of the pack, used by predictive
// controllers to roll the model forward without disturbing the plant.
func (b *Pack) Clone() *Pack {
	cp := *b
	return &cp
}
