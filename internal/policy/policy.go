// Package policy implements the three state-of-the-art baseline
// methodologies the paper compares OTEM against (§IV-B):
//
//  1. Parallel [Shin DATE'11]: passive parallel HEES, no thermal or energy
//     management at all.
//  2. ActiveCooling [Karimi & Li]: battery-only storage with a thermostatic
//     (hysteresis bang-bang) active cooling loop.
//  3. Dual [Shin DATE'14]: switched dual HEES that redirects load to the
//     ultracapacitor when the battery temperature crosses a threshold, and
//     recharges the capacitor from the battery when the pack is cool.
//
// All three implement sim.Controller so they run on the identical plant as
// the OTEM controller.
package policy

import (
	"errors"
	"fmt"

	"repro/internal/hees"
	"repro/internal/sim"
	"repro/internal/units"
)

// Methodology names one of the paper's compared management strategies. It
// is a typed string so the experiment grids, the public facade and the CLIs
// share one vocabulary instead of loose literals; the values are the
// canonical presentation names used in every figure and table.
type Methodology string

// The four methodologies of the paper's evaluation (§IV-B), plus the
// battery-only strawman used by tests and ablations.
const (
	// MethodologyParallel is the passive parallel HEES [Shin DATE'11].
	MethodologyParallel Methodology = "Parallel"
	// MethodologyCooling is battery-only storage with thermostatic active
	// cooling [Karimi & Li].
	MethodologyCooling Methodology = "ActiveCooling"
	// MethodologyDual is the switched dual HEES [Shin DATE'14].
	MethodologyDual Methodology = "Dual"
	// MethodologyOTEM is the paper's MPC controller (constructed by
	// internal/core; ByMethodology rejects it because this package only
	// builds baselines).
	MethodologyOTEM Methodology = "OTEM"
	// MethodologyBattery is the unmanaged battery-direct strawman.
	MethodologyBattery Methodology = "BatteryOnly"
)

// String implements fmt.Stringer.
func (m Methodology) String() string { return string(m) }

// ErrUnknown reports a baseline or methodology name this package does not
// recognise. Match it with errors.Is; the public facade re-exports it as
// otem.ErrUnknownBaseline.
var ErrUnknown = errors.New("policy: unknown baseline")

// ByMethodology constructs the baseline controller for a methodology.
// MethodologyOTEM (an MPC, not a baseline) and unknown values return an
// error wrapping ErrUnknown.
func ByMethodology(m Methodology) (sim.Controller, error) {
	switch m {
	case MethodologyParallel:
		return Parallel{}, nil
	case MethodologyCooling:
		return NewActiveCooling(), nil
	case MethodologyDual:
		return NewDual(), nil
	case MethodologyBattery:
		return BatteryOnly{}, nil
	case MethodologyOTEM:
		return nil, fmt.Errorf("%w %q (the OTEM MPC is built by internal/core, not policy)", ErrUnknown, string(m))
	}
	return nil, fmt.Errorf("%w %q (known: %s, %s, %s, %s, %s)", ErrUnknown, string(m),
		MethodologyParallel, MethodologyCooling, MethodologyDual, MethodologyBattery, MethodologyOTEM)
}

// Parallel is the management-free passive parallel baseline.
type Parallel struct{}

// Name implements sim.Controller.
func (Parallel) Name() string { return "Parallel" }

// Decide implements sim.Controller: always the hard-wired parallel path,
// never any cooling.
func (Parallel) Decide(*sim.Plant, []float64) sim.Action {
	return sim.Action{Arch: sim.ArchParallel}
}

// ForecastDepth implements sim.ForecastReader: the policy never reads the
// window, so the batched rollout skips filling it.
func (Parallel) ForecastDepth() int { return 0 }

// ActiveCooling is the battery-only baseline with a proportional cooling
// loop: above the setpoint the cooler depresses the inlet temperature in
// proportion to the excess, holding the pack near TargetTemp.
type ActiveCooling struct {
	// TargetTemp is the regulation setpoint, kelvin.
	TargetTemp float64
	// OffBand switches the loop off once the battery is this far below the
	// setpoint, kelvin (hysteresis against pump chatter).
	OffBand float64
	// Gain maps battery-temperature excess to inlet-temperature depression
	// (dimensionless, > 0).
	Gain float64

	cooling bool
}

// NewActiveCooling returns the baseline regulating near 26 °C: the
// methodology keeps the pack as cold as its cooler allows, without any
// economisation — the paper's Fig. 9 premise that pure active cooling
// consumes visibly more power than every other methodology.
func NewActiveCooling() *ActiveCooling {
	return &ActiveCooling{TargetTemp: units.CToK(26), OffBand: 1.5, Gain: 4}
}

// Name implements sim.Controller.
func (*ActiveCooling) Name() string { return "ActiveCooling" }

// Decide implements sim.Controller.
func (a *ActiveCooling) Decide(p *sim.Plant, _ []float64) sim.Action {
	tb := p.Loop.BatteryTemp
	if tb >= a.TargetTemp {
		a.cooling = true
	} else if tb <= a.TargetTemp-a.OffBand {
		a.cooling = false
	}
	act := sim.Action{Arch: sim.ArchBatteryDirect}
	if a.cooling {
		act.CoolingOn = true
		// Proportional law: inlet depressed below the coolant return by the
		// temperature excess; the plant clamps to the feasible range (C2/C3).
		act.InletTemp = p.Loop.CoolantTemp - a.Gain*(tb-a.TargetTemp)
	}
	return act
}

// ForecastDepth implements sim.ForecastReader: the thermostat only reads
// the plant temperature, never the window.
func (*ActiveCooling) ForecastDepth() int { return 0 }

// Dual is the switched dual-architecture baseline of Shin DATE'14.
type Dual struct {
	// SwitchTemp is the battery temperature above which the load is
	// redirected to the ultracapacitor, kelvin.
	SwitchTemp float64
	// ReleaseTemp is the temperature below which the battery resumes and
	// the capacitor may be recharged, kelvin.
	ReleaseTemp float64
	// RechargeTargetSoE is the SoE the policy restores while cool.
	RechargeTargetSoE float64
	// RechargePower is the bus power used to recharge the capacitor, W.
	RechargePower float64
	// RechargeMaxLoad suppresses recharging when the drive load exceeds
	// this, W (recharging under heavy load would overheat the battery —
	// the pathology the paper's Fig. 1 discussion points out).
	RechargeMaxLoad float64
	// PeakThreshold targets the capacitor's limited energy at the load
	// peaks while hot: requests below it stay on the battery, whose I²R
	// heat is small at light load.
	PeakThreshold float64

	onCap bool
}

// NewDual returns the baseline with the paper-motivated defaults: redirect
// at 33 °C, release at 31 °C.
func NewDual() *Dual {
	return &Dual{
		SwitchTemp:        units.CToK(31),
		ReleaseTemp:       units.CToK(30),
		RechargeTargetSoE: 0.90,
		RechargePower:     4e3,
		RechargeMaxLoad:   8e3,
		PeakThreshold:     20e3,
	}
}

// Name implements sim.Controller.
func (*Dual) Name() string { return "Dual" }

// Decide implements sim.Controller.
func (d *Dual) Decide(p *sim.Plant, forecast []float64) sim.Action {
	pe := forecast[0]
	tb := p.Loop.BatteryTemp
	cap := p.HEES.Cap

	// Hysteresis on the thermal switch.
	if tb >= d.SwitchTemp {
		d.onCap = true
	} else if tb <= d.ReleaseTemp {
		d.onCap = false
	}

	// Regenerative braking: store it in the capacitor when there is
	// headroom; otherwise the battery takes it.
	if pe < 0 {
		if cap.SoE < cap.Params.MaxSoE {
			return sim.Action{Arch: sim.ArchDual, DualMode: hees.DualCap}
		}
		return sim.Action{Arch: sim.ArchDual, DualMode: hees.DualBattery}
	}

	// While hot, spend the capacitor's limited energy on the load peaks
	// (heat is quadratic in current, so peaks dominate battery heating)
	// whenever it can actually serve them.
	if d.onCap && pe >= d.PeakThreshold &&
		cap.SoE > cap.Params.MinSoE && cap.MaxDischargePower() >= pe {
		return sim.Action{Arch: sim.ArchDual, DualMode: hees.DualCap}
	}

	// Recharge the capacitor from the battery during light load so it is
	// ready for the next redirection — the behaviour the paper's Fig. 1
	// discussion attributes to [16] (and notes may itself heat the battery).
	if cap.SoE < d.RechargeTargetSoE && pe < d.RechargeMaxLoad {
		return sim.Action{
			Arch:            sim.ArchDual,
			DualMode:        hees.DualBatteryCharge,
			DualChargePower: d.RechargePower,
		}
	}
	return sim.Action{Arch: sim.ArchDual, DualMode: hees.DualBattery}
}

// ForecastDepth implements sim.ForecastReader: the policy reads only the
// present request forecast[0].
func (*Dual) ForecastDepth() int { return 1 }

// BatteryOnly is a minimal no-management, battery-direct controller used by
// tests and ablations (no cooling, no ultracapacitor).
type BatteryOnly struct{}

// Name implements sim.Controller.
func (BatteryOnly) Name() string { return "BatteryOnly" }

// Decide implements sim.Controller.
func (BatteryOnly) Decide(*sim.Plant, []float64) sim.Action {
	return sim.Action{Arch: sim.ArchBatteryDirect}
}

// ForecastDepth implements sim.ForecastReader: no window reads.
func (BatteryOnly) ForecastDepth() int { return 0 }

var (
	_ sim.Controller     = Parallel{}
	_ sim.Controller     = (*ActiveCooling)(nil)
	_ sim.Controller     = (*Dual)(nil)
	_ sim.Controller     = BatteryOnly{}
	_ sim.ForecastReader = Parallel{}
	_ sim.ForecastReader = (*ActiveCooling)(nil)
	_ sim.ForecastReader = (*Dual)(nil)
	_ sim.ForecastReader = BatteryOnly{}
)
