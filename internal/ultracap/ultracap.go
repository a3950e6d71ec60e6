// Package ultracap models the ultracapacitor bank of the HEES (paper §II-B):
// state of energy (SoE), the square-root voltage law (Eqs. 6–9) and bank
// aggregation.
//
// Sizing convention. The paper's knob is a nameplate capacitance in farads
// (5,000–25,000 F, Maxwell BC-series modules). Physically the module stack
// sits at a low voltage and is coupled to the battery-voltage bus; we refer
// the capacitance to the bus through the ideal turns ratio
// n = BusVoltage/ModuleVoltage, which preserves stored energy exactly
// (½·C·V² is invariant under referral: C/n² at n·V). All terminal
// quantities exposed by Bank (Voltage, current) are referred to the bus.
//
// Sign convention matches the battery package: positive power/current =
// discharging the bank into the load.
package ultracap

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core/floats"
)

// BankParams describes an ultracapacitor bank.
type BankParams struct {
	// NameplateF is the module-level capacitance in farads — the "size"
	// used throughout the paper's evaluation (Table I).
	NameplateF float64
	// ModuleVoltage is the rated voltage of the physical module stack in
	// volts (Eq. 6 V_r at module level).
	ModuleVoltage float64
	// BusVoltage is the nominal battery/DC-bus voltage the bank is referred
	// to, in volts.
	BusVoltage float64
	// ESR is the bank equivalent series resistance referred to the bus, in
	// ohms. The paper neglects the module ESR (≈2.2 mΩ); referred to the
	// bus it becomes comparable to the battery pack resistance and governs
	// the passive current split of the parallel architecture (Eqs. 10–13).
	ESR float64
	// MaxPower is the bank power limit (constraint C7) in watts.
	MaxPower float64
	// MinSoE and MaxSoE bound the usable state-of-energy window as
	// fractions (constraint C5; the paper uses 20 %–100 %).
	MinSoE, MaxSoE float64
}

// MaxwellBC returns a Maxwell BC-series-like bank of the given nameplate
// capacitance (farads), referred to a 390 V bus. The bus-referred ESR scales
// inversely with the bank size: a larger bank has more parallel module
// strings, so both its capacitance and its conductance grow together.
func MaxwellBC(nameplateF float64) BankParams {
	const (
		refF   = 25000.0
		refESR = 0.10 // Ω at the reference 25 kF size, bus-referred
	)
	return BankParams{
		NameplateF:    nameplateF,
		ModuleVoltage: 15,
		BusVoltage:    390,
		ESR:           refESR * refF / nameplateF,
		MaxPower:      90e3,
		MinSoE:        0.20,
		MaxSoE:        1.00,
	}
}

// Validate reports an error for physically inconsistent parameters.
func (p BankParams) Validate() error {
	// Each check is written so that NaN fails it.
	switch {
	case !positiveFinite(p.NameplateF):
		return fmt.Errorf("ultracap: NameplateF = %g, must be finite and > 0", p.NameplateF)
	case !positiveFinite(p.ModuleVoltage):
		return fmt.Errorf("ultracap: ModuleVoltage = %g, must be finite and > 0", p.ModuleVoltage)
	case !positiveFinite(p.BusVoltage):
		return fmt.Errorf("ultracap: BusVoltage = %g, must be finite and > 0", p.BusVoltage)
	case !(p.ESR >= 0) || math.IsInf(p.ESR, 1):
		return fmt.Errorf("ultracap: ESR = %g, must be finite and >= 0", p.ESR)
	case !positiveFinite(p.MaxPower):
		return fmt.Errorf("ultracap: MaxPower = %g, must be finite and > 0", p.MaxPower)
	case !(p.MinSoE >= 0 && p.MaxSoE <= 1 && p.MinSoE < p.MaxSoE):
		return fmt.Errorf("ultracap: SoE window [%g, %g] invalid", p.MinSoE, p.MaxSoE)
	}
	return nil
}

// positiveFinite reports whether x is a finite number above zero; NaN is
// not.
func positiveFinite(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// EnergyCapacity returns E_cap = ½·C·V_r² in joules (Eq. 6). The value is
// invariant under bus referral.
func (p BankParams) EnergyCapacity() float64 {
	return 0.5 * p.NameplateF * p.ModuleVoltage * p.ModuleVoltage
}

// ErrEmpty is returned when a discharge request cannot be met because the
// bank has reached zero stored energy.
var ErrEmpty = errors.New("ultracap: bank is empty")

// Bank is an ultracapacitor bank with state of energy tracking (Eq. 9).
// Construct with NewBank.
type Bank struct {
	// Params holds the bank design parameters.
	Params BankParams
	// SoE is the state of energy as a fraction in [0, 1].
	SoE float64
}

// NewBank returns a bank at the given initial state of energy (fraction).
func NewBank(params BankParams, soe float64) (*Bank, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if soe < 0 || soe > 1 {
		return nil, fmt.Errorf("ultracap: initial SoE %g outside [0, 1]", soe)
	}
	return &Bank{Params: params, SoE: soe}, nil
}

// Voltage returns the open-circuit bank voltage referred to the bus:
// V = V_bus·√SoE (Eq. 8 with the referred rated voltage).
func (b *Bank) Voltage() float64 {
	return b.Params.BusVoltage * math.Sqrt(math.Max(0, b.SoE))
}

// StoredEnergy returns the energy currently stored, in joules.
func (b *Bank) StoredEnergy() float64 {
	return b.SoE * b.Params.EnergyCapacity()
}

// StepResult reports one integration step of the bank.
type StepResult struct {
	// Current is the bus-referred bank current in amperes (discharge
	// positive), I = C·dV/dt (Eq. 7).
	Current float64
	// TerminalVoltage is the bus-referred terminal voltage under load.
	TerminalVoltage float64
	// InternalEnergy is the energy removed from (positive) or added to
	// (negative) the dielectric during the step, in joules — the paper's
	// dE_cap term (terminal energy plus ESR loss).
	InternalEnergy float64
	// ESRLoss is the resistive loss dissipated during the step, in joules.
	ESRLoss float64
}

// Step draws the given terminal power (watts, discharge positive, ESR loss
// added internally) for dt seconds and integrates SoE per Eq. 9. The SoE is
// clamped to [0, 1]; when a discharge request would take it below zero the
// step delivers what is available and returns ErrEmpty alongside the partial
// result.
func (b *Bank) Step(power, dt float64) (StepResult, error) {
	if dt <= 0 {
		return StepResult{}, fmt.Errorf("ultracap: non-positive dt %g", dt)
	}
	v := b.Voltage()
	var (
		i    float64
		loss float64
	)
	if !floats.Zero(power) {
		if v <= 0 && power > 0 {
			return StepResult{}, ErrEmpty
		}
		// Solve (V − R·I)·I = P for the terminal current when discharging;
		// when charging the same quadratic gives the negative root.
		r := b.Params.ESR
		if floats.Zero(r) {
			if v <= 0 {
				// Charging a fully empty ideal bank: current is defined by
				// energy flow only; approximate with V at the end of step.
				i = 0
			} else {
				i = power / v
			}
		} else {
			disc := v*v - 4*r*power
			if disc < 0 {
				return StepResult{}, fmt.Errorf("ultracap: power %g W infeasible at V=%g", power, v)
			}
			i = (v - math.Sqrt(disc)) / (2 * r)
		}
		loss = i * i * b.Params.ESR * dt
	}

	// Internal energy change = terminal energy + ESR loss (Eq. 9 with the
	// loss folded into the drawn energy).
	dE := power*dt + loss
	eCap := b.Params.EnergyCapacity()
	newSoE := b.SoE - dE/eCap

	var err error
	if newSoE < 0 {
		newSoE = 0
		err = ErrEmpty
	}
	if newSoE > 1 {
		newSoE = 1
	}
	b.SoE = newSoE

	return StepResult{
		Current:         i,
		TerminalVoltage: v - i*b.Params.ESR,
		InternalEnergy:  dE,
		ESRLoss:         loss,
	}, err
}

// MaxDischargePower returns the largest terminal power the bank can supply
// at its present voltage, V²/(4R) (or +Inf for an ideal bank), additionally
// capped by the C7 limit.
func (b *Bank) MaxDischargePower() float64 {
	v := b.Voltage()
	if floats.Zero(b.Params.ESR) {
		return b.Params.MaxPower
	}
	return math.Min(v*v/(4*b.Params.ESR), b.Params.MaxPower)
}

// HeadroomEnergy returns how much more energy the bank can absorb before
// reaching the usable maximum, in joules.
func (b *Bank) HeadroomEnergy() float64 {
	return math.Max(0, (b.Params.MaxSoE-b.SoE)*b.Params.EnergyCapacity())
}

// Clone returns an independent copy, used by predictive controllers.
func (b *Bank) Clone() *Bank {
	cp := *b
	return &cp
}
