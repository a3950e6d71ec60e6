// Package core stands in for the OTEM controller: its import path ends in
// internal/core, so calls that transitively reach nondeterminism are
// reported here — a replan must be a pure function of plant state and
// forecast for the golden files and the lockstep lanes to hold.
package core

import (
	"repro/internal/lint/testdata/src/detflow/helpers"
)

// NoisyForecast perturbs the forecast through a helper that draws from the
// global source, one package hop away.
func NoisyForecast(p float64) float64 {
	return p * (1 + 1e-3*helpers.Draw()) // want `call to nondeterministic Draw`
}

// SolveBudget keys the iteration cap on the wall clock, two hops from
// time.Now.
func SolveBudget() float64 {
	return helpers.DoubleWrap() // want `call to nondeterministic DoubleWrap`
}

// StepCost is deterministic end to end: pure arithmetic through a helper
// carries no NondetFact, so nothing is reported.
func StepCost(p, dt float64) float64 {
	return helpers.Pure(p) * dt
}
