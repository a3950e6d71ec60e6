// Package hees implements the three Hybrid Electrical Energy Storage
// architectures of paper §II-C:
//
//   - Parallel: battery and ultracapacitor hard-wired to the load; the
//     current split is passive, dictated by the internal resistances
//     (Eqs. 10–13). Used by the Shin DATE'11 baseline.
//   - Dual: two switches select battery-only, ultracapacitor-only or
//     battery-charges-capacitor connection. Used by the Shin DATE'14
//     thermal-management baseline.
//   - Hybrid: each storage is coupled to the DC bus through its own DC/DC
//     converter, so power commands are independent (with conversion
//     losses). This is the architecture OTEM controls.
//
// All powers are bus-side watts, discharge positive.
package hees

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/battery"
	"repro/internal/converter"
	"repro/internal/ultracap"
)

// System bundles the two storages and their converters (converters are only
// exercised by the hybrid architecture).
type System struct {
	// Battery is the Li-ion pack.
	Battery *battery.Pack
	// Cap is the ultracapacitor bank.
	Cap *ultracap.Bank
	// BattConv and CapConv are the DC/DC converters of the hybrid
	// architecture.
	BattConv, CapConv converter.Params
}

// NewSystem wires a system and validates the converters.
func NewSystem(b *battery.Pack, c *ultracap.Bank, bc, cc converter.Params) (*System, error) {
	if b == nil || c == nil {
		return nil, errors.New("hees: nil battery or ultracapacitor")
	}
	if err := bc.Validate(); err != nil {
		return nil, fmt.Errorf("hees: battery converter: %w", err)
	}
	if err := cc.Validate(); err != nil {
		return nil, fmt.Errorf("hees: cap converter: %w", err)
	}
	return &System{Battery: b, Cap: c, BattConv: bc, CapConv: cc}, nil
}

// Clone deep-copies the system for model rollouts.
func (s *System) Clone() *System {
	return &System{
		Battery:  s.Battery.Clone(),
		Cap:      s.Cap.Clone(),
		BattConv: s.BattConv,
		CapConv:  s.CapConv,
	}
}

// StepReport describes one architecture step.
type StepReport struct {
	// Batt is the battery sub-step (zero value when the battery was
	// disconnected).
	Batt battery.StepResult
	// Cap is the ultracapacitor sub-step (zero value when disconnected).
	Cap ultracap.StepResult
	// ConverterLossJ is the energy dissipated in the DC/DC converters
	// during the step, joules (hybrid architecture only).
	ConverterLossJ float64
	// HEESEnergyJ is dE_bat + dE_cap of the paper's cost function: the
	// total energy drawn from the storages (chemistry + dielectric)
	// including internal losses, joules. Negative when regen charges the
	// storages.
	HEESEnergyJ float64
	// BusVoltage is the load/bus voltage during the step, volts.
	BusVoltage float64
}

// ErrInfeasible wraps power requests no architecture configuration can meet.
var ErrInfeasible = errors.New("hees: power request infeasible")

// ---------------------------------------------------------------------------
// Parallel architecture (Eqs. 10–13)
// ---------------------------------------------------------------------------

// StepParallel advances the system with battery and capacitor hard-wired in
// parallel across the load drawing loadPower (W) for dt seconds. The bus
// voltage and current split solve Eqs. 10–13:
//
//	I_l = I_b + I_c,  V_l = V_b − R_b·I_b = V_c − R_c·I_c,  P_l = V_l·I_l.
//
// With loadPower = 0 the storages still equalise through their resistances
// (the battery recharges the capacitor), exactly the behaviour the paper's
// motivational study warns about.
func (s *System) StepParallel(loadPower, dt float64) (StepReport, error) {
	if dt <= 0 {
		return StepReport{}, fmt.Errorf("hees: non-positive dt %g", dt)
	}
	pre := s.PrepareParallel()
	vl, err := solveParallelBus(pre.Batt.VOC, pre.Batt.R, pre.VC, pre.RC, loadPower)
	if err != nil {
		return StepReport{}, err
	}
	return s.FinishParallel(pre, vl, dt)
}

// ParallelPrep carries the hoisted per-step inputs of the parallel
// architecture: the battery prep (shared with the pack integration, so the
// OCV/resistance exponentials are evaluated once per step instead of three
// times) and the capacitor terminal quantities. Produce it with
// PrepareParallel on the state the step will advance.
type ParallelPrep struct {
	// Batt is the hoisted battery state; Batt.VOC and Batt.R are the V_b
	// and R_b of Eqs. 10–13.
	Batt battery.StepPrep
	// VC and RC are the capacitor open-circuit voltage and the (floored)
	// ESR of the split.
	VC, RC float64
}

// PrepareParallel hoists the state-dependent inputs of one parallel step.
// StepParallel is PrepareParallel + solve + FinishParallel; batched rollouts
// call the pieces directly so many independent solves can run in lockstep
// over structure-of-arrays scratch while producing bit-identical results.
func (s *System) PrepareParallel() ParallelPrep {
	rc := s.Cap.Params.ESR
	if rc <= 0 {
		// A perfectly stiff capacitor makes the split degenerate; model the
		// paper's "inconsiderable" module ESR with a small floor instead.
		rc = 1e-3
	}
	return ParallelPrep{Batt: s.Battery.PrepareStep(), VC: s.Cap.Voltage(), RC: rc}
}

// FinishParallel completes a parallel step once the bus voltage is solved:
// it splits the currents (Eqs. 11–12), integrates both storages and
// assembles the report. pre must come from PrepareParallel on the current
// state and vl from a successful bus solve at the same state; dt must be
// positive (the architecture entry points validate it).
func (s *System) FinishParallel(pre ParallelPrep, vl, dt float64) (StepReport, error) {
	vb := pre.Batt.VOC
	rb := pre.Batt.R
	vc := pre.VC
	ib := (vb - vl) / rb
	ic := (vc - vl) / pre.RC

	battRes := s.Battery.StepCurrentPrepared(pre.Batt, ib, dt)
	// Capacitor terminal power at the bus.
	capRes, err := s.Cap.Step(vl*ic, dt)
	if err != nil && !errors.Is(err, ultracap.ErrEmpty) {
		return StepReport{}, err
	}
	return StepReport{
		Batt:        battRes,
		Cap:         capRes,
		HEESEnergyJ: battRes.ChemicalEnergy + capRes.InternalEnergy,
		BusVoltage:  vl,
	}, nil
}

// solveParallelBus finds the bus voltage V_l satisfying
// g(V_l) = (V_b−V_l)/R_b + (V_c−V_l)/R_c − P/V_l = 0.
//
// For P > 0, g rises from −∞ at V_l→0⁺ to a maximum at
// V* = √(P·R_b·R_c/(R_b+R_c)) and then decreases to −P/V < 0 at
// V = max(V_b, V_c); the physically stable operating point is the upper
// root, so we bisect on [V*, max(V_b,V_c)]. If g(V*) < 0 the sources cannot
// supply P at any voltage (ErrInfeasible). For P ≤ 0, g is strictly
// decreasing on (0, ∞) with a single root above max(V_b, V_c).
func solveParallelBus(vb, rb, vc, rc, p float64) (float64, error) {
	lo, hi, ok := busBracket(vb, rb, vc, rc, p)
	if !ok {
		if p > 0 {
			return 0, fmt.Errorf("%w: parallel bus collapsed (P=%.0f W, Vb=%.1f, Vc=%.1f)", ErrInfeasible, p, vb, vc)
		}
		return 0, fmt.Errorf("%w: no regen bus bracket", ErrInfeasible)
	}
	return busBisect(vb, rb, vc, rc, p, lo, hi), nil
}

// busBracket returns the bisection interval of solveParallelBus — [V*,
// max(V_b, V_c)] for P > 0, otherwise [max(min(V_b, V_c), 1e-6),
// max(V_b, V_c)+1] with the upper end grown by factors of 1.5 until the
// gap there is not positive — and whether the bus can be solved at all.
// The P > 0 feasibility test is the negation of the infeasible one, so a
// NaN input is infeasible exactly where it always was.
func busBracket(vb, rb, vc, rc, p float64) (lo, hi float64, ok bool) {
	if p > 0 {
		lo = math.Sqrt(p * rb * rc / (rb + rc))
		hi = math.Max(vb, vc)
		return lo, hi, !(lo >= hi || parallelBusGap(vb, rb, vc, rc, p, lo) < 0)
	}
	lo = math.Min(vb, vc)
	if lo <= 0 {
		lo = 1e-6
	}
	hi = math.Max(vb, vc) + 1
	for iter := 0; parallelBusGap(vb, rb, vc, rc, p, hi) > 0; iter++ {
		hi *= 1.5
		if iter > 200 {
			return lo, hi, false
		}
	}
	return lo, hi, true
}

// busBisect bisects the bus balance on the bracket [lo, hi] until it is
// narrower than 1e-10 of its upper end, or for 200 iterations, and
// returns the final midpoint.
func busBisect(vb, rb, vc, rc, p, lo, hi float64) float64 {
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if parallelBusGap(vb, rb, vc, rc, p, mid) > 0 {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-10*hi {
			break
		}
	}
	return (lo + hi) / 2
}

// parallelBusGap is the bus balance residual g(V_l) solveParallelBus
// bisects on; a named function (not a closure) so the per-step solve is
// statically allocation-free.
func parallelBusGap(vb, rb, vc, rc, p, vl float64) float64 {
	return (vb-vl)/rb + (vc-vl)/rc - p/vl
}

// ---------------------------------------------------------------------------
// Dual architecture (switched)
// ---------------------------------------------------------------------------

// DualMode selects the switch configuration of the dual architecture.
type DualMode int

const (
	// DualBattery connects only the battery to the load.
	DualBattery DualMode = iota
	// DualCap connects only the ultracapacitor to the load.
	DualCap
	// DualBatteryCharge connects the battery to the load and additionally
	// recharges the capacitor through the direct switch path.
	DualBatteryCharge
)

// String implements fmt.Stringer.
func (m DualMode) String() string {
	switch m {
	case DualBattery:
		return "battery"
	case DualCap:
		return "ultracap"
	case DualBatteryCharge:
		return "battery+charge"
	default:
		return fmt.Sprintf("DualMode(%d)", int(m))
	}
}

// StepDual advances the system in the given switch mode. chargePower is the
// bus-side power used to recharge the capacitor in DualBatteryCharge mode
// (ignored otherwise, must be ≥ 0).
func (s *System) StepDual(mode DualMode, loadPower, chargePower, dt float64) (StepReport, error) {
	if dt <= 0 {
		return StepReport{}, fmt.Errorf("hees: non-positive dt %g", dt)
	}
	switch mode {
	case DualBattery:
		battRes, err := s.Battery.Step(loadPower, dt)
		if err != nil {
			return StepReport{}, err
		}
		return StepReport{
			Batt:        battRes,
			HEESEnergyJ: battRes.ChemicalEnergy,
			BusVoltage:  battRes.TerminalVoltage,
		}, nil

	case DualCap:
		if loadPower > s.Cap.MaxDischargePower() {
			// The sagging capacitor can no longer hold the load; report it
			// as depletion so switching policies fall back to the battery.
			return StepReport{}, fmt.Errorf("%w: %.0f W exceeds capability %.0f W",
				ultracap.ErrEmpty, loadPower, s.Cap.MaxDischargePower())
		}
		capRes, err := s.Cap.Step(loadPower, dt)
		if err != nil && !errors.Is(err, ultracap.ErrEmpty) {
			return StepReport{}, err
		}
		rep := StepReport{
			Cap:         capRes,
			HEESEnergyJ: capRes.InternalEnergy,
			BusVoltage:  capRes.TerminalVoltage,
		}
		if err != nil {
			return rep, err // ErrEmpty: caller must fall back to battery
		}
		return rep, nil

	case DualBatteryCharge:
		if chargePower < 0 {
			return StepReport{}, fmt.Errorf("hees: negative charge power %g", chargePower)
		}
		battRes, err := s.Battery.Step(loadPower+chargePower, dt)
		if err != nil {
			return StepReport{}, err
		}
		capRes, err := s.Cap.Step(-chargePower, dt)
		if err != nil && !errors.Is(err, ultracap.ErrEmpty) {
			return StepReport{}, err
		}
		return StepReport{
			Batt:        battRes,
			Cap:         capRes,
			HEESEnergyJ: battRes.ChemicalEnergy + capRes.InternalEnergy,
			BusVoltage:  battRes.TerminalVoltage,
		}, nil
	}
	return StepReport{}, fmt.Errorf("hees: unknown dual mode %v", mode)
}

// ---------------------------------------------------------------------------
// Hybrid architecture (DC bus + converters)
// ---------------------------------------------------------------------------

// StepHybrid advances the system with the battery delivering battBus watts
// and the capacitor capBus watts at the DC bus (each through its converter).
// The caller is responsible for the bus power balance
// battBus + capBus = P_e; this function only executes the commands.
// Negative values charge the respective storage (e.g. regen, or the battery
// pre-charging the capacitor during TEB preparation).
func (s *System) StepHybrid(battBus, capBus, dt float64) (StepReport, error) {
	if dt <= 0 {
		return StepReport{}, fmt.Errorf("hees: non-positive dt %g", dt)
	}
	var rep StepReport
	rep.BusVoltage = s.BattConv.NominalVoltage

	// Battery side.
	vb := s.Battery.OCV()
	battStorage := s.BattConv.StoragePower(battBus, vb)
	battRes, err := s.Battery.Step(battStorage, dt)
	if err != nil {
		return StepReport{}, fmt.Errorf("battery branch: %w", err)
	}
	rep.Batt = battRes
	rep.ConverterLossJ += s.BattConv.Loss(battBus, vb) * dt

	// Capacitor side.
	vc := s.Cap.Voltage()
	capStorage := s.CapConv.StoragePower(capBus, vc)
	capRes, capErr := s.Cap.Step(capStorage, dt)
	if capErr != nil && !errors.Is(capErr, ultracap.ErrEmpty) {
		return StepReport{}, fmt.Errorf("ultracap branch: %w", capErr)
	}
	rep.Cap = capRes
	rep.ConverterLossJ += s.CapConv.Loss(capBus, vc) * dt

	// The storage-side step inputs already include the converter losses
	// (StoragePower inflates the draw), so the drawn energies embed them;
	// ConverterLossJ is reported separately for diagnostics only.
	rep.HEESEnergyJ = battRes.ChemicalEnergy + capRes.InternalEnergy
	if capErr != nil {
		return rep, capErr
	}
	return rep, nil
}

// BatteryMaxBusPower returns the largest battery power deliverable at the
// bus right now, limited by the C6 current cap and the converter.
func (s *System) BatteryMaxBusPower() float64 {
	iMax := s.Battery.MaxCurrent()
	voc := s.Battery.OCV()
	r := s.Battery.Resistance()
	pStorage := math.Min((voc-r*iMax)*iMax, s.Battery.MaxDischargePower())
	return s.BattConv.BusPower(pStorage, voc)
}

// CapMaxBusPower returns the largest capacitor power deliverable at the bus
// right now (C7 plus voltage sag), net of the converter.
func (s *System) CapMaxBusPower() float64 {
	p := s.Cap.MaxDischargePower()
	return s.CapConv.BusPower(p, s.Cap.Voltage())
}
