// Package cooling models the active battery cooling system of paper §II-D:
// a two-node lumped thermal network (battery cells ↔ coolant, Eqs. 14–15)
// discretised with the Crank–Nicolson scheme of Eq. 17, the cooler power
// model of Eq. 16 and the constant-flow pump.
//
// The same Loop also provides the passive mode used by the parallel/dual
// baseline architectures, where the pump is off and the pack sheds heat only
// through weak natural convection to ambient.
package cooling

import (
	"fmt"
	"math"

	"repro/internal/units"
)

// Params describes one cooling loop. All temperatures kelvin, powers watts.
type Params struct {
	// BatteryHeatCapacity is the lumped thermal capacity C_b of the whole
	// battery pack in J/K (cell heat capacity × cell count).
	BatteryHeatCapacity float64
	// CoolantHeatCapacity is the thermal capacity C_c of the coolant volume
	// inside the pack in J/K.
	CoolantHeatCapacity float64
	// HBC is the battery↔coolant heat-transfer coefficient h_bc in W/K
	// (pack level).
	HBC float64
	// FlowHeatRate is the advective heat-capacity rate ṁ·c_p of the pumped
	// coolant in W/K. The paper fixes the flow rate, making this constant
	// while the pump runs.
	FlowHeatRate float64
	// CoolerEfficiency is η_c of Eq. 16, relating cooler electrical power
	// to the enthalpy extracted from the coolant.
	CoolerEfficiency float64
	// MaxCoolerPower is the cooler electrical power limit P̄_c of
	// constraint C3.
	MaxCoolerPower float64
	// PumpPower is the constant pump electrical power P_m while the loop
	// runs.
	PumpPower float64
	// MinInletTemp is the lowest achievable cooler outlet (= pack inlet)
	// temperature, a physical floor for the control input T_i.
	MinInletTemp float64
	// AmbientCoupling is the natural-convection coefficient between the
	// coolant/pack envelope and ambient air in W/K when the pump is off
	// (passive architectures).
	AmbientCoupling float64
}

// DefaultParams returns a cooling loop sized for the Tesla-like pack used in
// the experiments. The low CoolerEfficiency reflects the paper's premise
// that active cooling is power-hungry — methodologies that cool consume
// visibly more average power (paper Fig. 9).
func DefaultParams() Params {
	return Params{
		BatteryHeatCapacity: 40 * 96 * 24, // 96S24P × 40 J/K
		CoolantHeatCapacity: 20e3,
		HBC:                 2000,
		FlowHeatRate:        300,
		CoolerEfficiency:    0.45,
		MaxCoolerPower:      8e3,
		PumpPower:           150,
		MinInletTemp:        units.CToK(5),
		AmbientCoupling:     55,
	}
}

// Validate reports an error for inconsistent parameters.
func (p Params) Validate() error {
	switch {
	case p.BatteryHeatCapacity <= 0:
		return fmt.Errorf("cooling: BatteryHeatCapacity = %g, must be > 0", p.BatteryHeatCapacity)
	case p.CoolantHeatCapacity <= 0:
		return fmt.Errorf("cooling: CoolantHeatCapacity = %g, must be > 0", p.CoolantHeatCapacity)
	case p.HBC <= 0:
		return fmt.Errorf("cooling: HBC = %g, must be > 0", p.HBC)
	case p.FlowHeatRate <= 0:
		return fmt.Errorf("cooling: FlowHeatRate = %g, must be > 0", p.FlowHeatRate)
	case p.CoolerEfficiency <= 0:
		return fmt.Errorf("cooling: CoolerEfficiency = %g, must be > 0", p.CoolerEfficiency)
	case p.MaxCoolerPower <= 0:
		return fmt.Errorf("cooling: MaxCoolerPower = %g, must be > 0", p.MaxCoolerPower)
	case p.PumpPower < 0:
		return fmt.Errorf("cooling: PumpPower = %g, must be >= 0", p.PumpPower)
	case p.MinInletTemp <= 0:
		return fmt.Errorf("cooling: MinInletTemp = %g, must be > 0", p.MinInletTemp)
	case p.AmbientCoupling < 0:
		return fmt.Errorf("cooling: AmbientCoupling = %g, must be >= 0", p.AmbientCoupling)
	}
	return nil
}

// Loop is the thermal state of the battery pack and its coolant.
// Construct with NewLoop.
type Loop struct {
	// Params holds the loop design parameters.
	Params Params
	// BatteryTemp is the lumped battery cell temperature T_b in kelvin.
	BatteryTemp float64
	// CoolantTemp is the coolant temperature T_c inside the pack in kelvin.
	CoolantTemp float64
}

// NewLoop returns a loop with both nodes at the given initial temperature.
func NewLoop(params Params, initialTemp float64) (*Loop, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if initialTemp <= 0 {
		return nil, fmt.Errorf("cooling: initial temperature %g K invalid", initialTemp)
	}
	return &Loop{Params: params, BatteryTemp: initialTemp, CoolantTemp: initialTemp}, nil
}

// StepResult reports one thermal integration step.
type StepResult struct {
	// CoolerPower is the electrical power drawn by the cooler (Eq. 16), W.
	CoolerPower float64
	// PumpPower is the electrical power drawn by the pump, W.
	PumpPower float64
	// InletTemp is the (possibly clamped) coolant inlet temperature used.
	InletTemp float64
}

// CoolerPowerFor returns the electrical power (Eq. 16) required to supply
// coolant at inlet temperature ti given the current loop state:
// P_c = (ṁc_p/η_c)·(T_o − T_i), with T_o the coolant temperature returning
// from the pack.
func (l *Loop) CoolerPowerFor(ti float64) float64 {
	if ti >= l.CoolantTemp {
		return 0
	}
	return l.Params.FlowHeatRate / l.Params.CoolerEfficiency * (l.CoolantTemp - ti)
}

// MinFeasibleInlet returns the lowest inlet temperature the cooler can
// produce right now without violating C3 (max power) or the physical floor.
func (l *Loop) MinFeasibleInlet() float64 {
	byPower := l.CoolantTemp - l.Params.CoolerEfficiency*l.Params.MaxCoolerPower/l.Params.FlowHeatRate
	return math.Max(byPower, l.Params.MinInletTemp)
}

// StepActive advances the loop by dt seconds with the pump running, the
// battery generating qb watts of internal heat, and the cooler commanded to
// supply coolant at inlet temperature ti.
//
// The command is clamped to the feasible range [MinFeasibleInlet, T_c]
// (constraints C2 and C3); the clamped value actually applied is reported in
// the result. The two-node dynamics are integrated with the Crank–Nicolson
// scheme of paper Eq. 17.
func (l *Loop) StepActive(qb, ti, dt float64) (StepResult, error) {
	if dt <= 0 {
		return StepResult{}, fmt.Errorf("cooling: non-positive dt %g", dt)
	}
	// C2: the cooler only ever lowers the coolant temperature.
	ti = units.Clamp(ti, l.MinFeasibleInlet(), l.CoolantTemp)
	pc := l.CoolerPowerFor(ti)

	l.advance(qb, l.Params.FlowHeatRate, ti, dt)
	return StepResult{CoolerPower: pc, PumpPower: l.Params.PumpPower, InletTemp: ti}, nil
}

// StepPassive advances the loop by dt seconds with the pump off: the pack
// envelope exchanges heat with ambient through natural convection only.
// Used by the parallel and dual baseline architectures, which have no active
// cooling system.
func (l *Loop) StepPassive(qb, ambient, dt float64) (StepResult, error) {
	if dt <= 0 {
		return StepResult{}, fmt.Errorf("cooling: non-positive dt %g", dt)
	}
	l.advance(qb, l.Params.AmbientCoupling, ambient, dt)
	return StepResult{}, nil
}

// advance integrates the coupled two-node network via CNStep.
func (l *Loop) advance(qb, w, tin, dt float64) {
	l.BatteryTemp, l.CoolantTemp = l.Params.CNStep(l.BatteryTemp, l.CoolantTemp, qb, w, tin, dt)
}

// CNStep integrates the coupled two-node network
//
//	C_b·dT_b/dt = h_bc·(T_c − T_b) + Q_b                  (Eq. 14)
//	C_c·dT_c/dt = h_bc·(T_b − T_c) + w·(T_in − T_c)        (Eq. 15)
//
// for one step of dt seconds with the Crank–Nicolson averaging of Eq. 17,
// where w is either the pumped advection rate (active cooling) or the
// ambient coupling (passive), and tin the inlet or ambient temperature
// respectively. The 2×2 linear system is solved in closed form — this is a
// pure, allocation-free function so model-predictive rollouts can call it
// millions of times; Loop wraps it for plant integration.
func (p Params) CNStep(tb, tc, qb, w, tin, dt float64) (tbNext, tcNext float64) {
	return p.CNStep2(tb, tc, qb, 0, w, tin, dt)
}

// CNStep2 generalises CNStep with an additional direct heat term qc on the
// coolant node (negative = extraction). Predictive controllers use it to
// model the cooler as a linear heat sink −η_c·P_c on the circulating
// coolant, which is the same physics as the inlet-temperature form
// (flow·(T_c−T_i) = η_c·P_c) but smooth and linear in the control.
func (p Params) CNStep2(tb, tc, qb, qc, w, tin, dt float64) (tbNext, tcNext float64) {
	a := p.HBC / 2
	w2 := w / 2
	cb := p.BatteryHeatCapacity / dt
	cc := p.CoolantHeatCapacity / dt

	// [cb+a   -a      ] [tb+]   [ (cb-a)·tb + a·tc + qb          ]
	// [-a     cc+a+w2 ] [tc+] = [ a·tb + (cc-a-w2)·tc + w·tin    ]
	m00 := cb + a
	m01 := -a
	m10 := -a
	m11 := cc + a + w2
	r0 := (cb-a)*tb + a*tc + qb
	r1 := a*tb + (cc-a-w2)*tc + w*tin + qc

	det := m00*m11 - m01*m10 // strictly positive for valid parameters
	tbNext = (r0*m11 - m01*r1) / det
	tcNext = (m00*r1 - r0*m10) / det
	return tbNext, tcNext
}

// Clone returns an independent copy of the loop for model rollouts.
func (l *Loop) Clone() *Loop {
	cp := *l
	return &cp
}
