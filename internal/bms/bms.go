// Package bms implements the battery-management-system substrate the paper
// builds on (§I cites BMS monitoring [9, 10]): an extended Kalman filter
// that estimates the pack state of charge from the measurable terminal
// quantities (pack current, terminal voltage, temperature).
//
// The controller experiments use oracle state by default (as the paper
// does); the estimator quantifies what a deployed system would actually
// know.
package bms

import (
	"errors"
	"fmt"

	"repro/internal/battery"
	"repro/internal/units"
)

// SoCEstimator is a one-state extended Kalman filter over the coulomb-
// counting process model (paper Eq. 1) with the equivalent-circuit terminal
// voltage as the measurement (Eqs. 2–3):
//
//	process:     z⁺ = z − I·Δt/C + w,     w ~ N(0, Q)
//	measurement: V  = OCV(z) − I·R(z,T) + v,  v ~ N(0, R)
type SoCEstimator struct {
	// Cell and topology define the pack model used for the measurement
	// equation.
	Cell             battery.CellParams
	Series, Parallel int

	// ProcessNoise Q is the per-step variance of the SoC random walk
	// (fraction²) — models current-sensor bias and capacity error.
	ProcessNoise float64
	// MeasurementNoise R is the variance of the pack-voltage measurement
	// (volt²).
	MeasurementNoise float64

	// SoC is the current estimate (fraction).
	SoC float64
	// P is the estimate variance (fraction²).
	P float64
}

// NewSoCEstimator builds an estimator with an initial guess and variance.
func NewSoCEstimator(cell battery.CellParams, series, parallel int, initialSoC, initialVar float64) (*SoCEstimator, error) {
	if err := cell.Validate(); err != nil {
		return nil, err
	}
	if series <= 0 || parallel <= 0 {
		return nil, fmt.Errorf("bms: topology %dS%dP invalid", series, parallel)
	}
	if initialSoC < 0 || initialSoC > 1 {
		return nil, fmt.Errorf("bms: initial SoC %g outside [0, 1]", initialSoC)
	}
	if initialVar <= 0 {
		return nil, errors.New("bms: initial variance must be > 0")
	}
	return &SoCEstimator{
		Cell:             cell,
		Series:           series,
		Parallel:         parallel,
		ProcessNoise:     1e-10,
		MeasurementNoise: 1.0,
		SoC:              initialSoC,
		P:                initialVar,
	}, nil
}

// Step fuses one measurement: pack current (amperes, discharge positive),
// pack terminal voltage (volts) and lumped temperature (kelvin), over a
// step of dt seconds. It returns the updated SoC estimate.
func (e *SoCEstimator) Step(packCurrent, packVoltage, temp, dt float64) float64 {
	if dt <= 0 {
		return e.SoC
	}
	// --- Predict (coulomb counting, Eq. 1) ---
	capC := units.AhToCoulomb(e.Cell.CapacityAh * float64(e.Parallel))
	e.SoC = units.Clamp(e.SoC-packCurrent*dt/capC, 0, 1)
	e.P += e.ProcessNoise

	// --- Update (terminal-voltage measurement) ---
	s := float64(e.Series)
	cellI := packCurrent / float64(e.Parallel)
	predV := s * e.Cell.TerminalVoltage(cellI, e.SoC, temp)
	// H = dV/dz = S·(OCV'(z) − I_cell·R'(z,T)).
	h := s * (e.Cell.OCVPrime(e.SoC) - cellI*e.Cell.ResistancePrime(e.SoC, temp))
	innov := packVoltage - predV
	sVar := h*h*e.P + e.MeasurementNoise
	if sVar <= 0 {
		return e.SoC
	}
	k := e.P * h / sVar
	e.SoC = units.Clamp(e.SoC+k*innov, 0, 1)
	e.P *= 1 - k*h
	if e.P < 1e-12 {
		e.P = 1e-12
	}
	return e.SoC
}
