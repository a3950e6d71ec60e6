// Package optimize stands in for the L-BFGS solver: its import path ends
// in internal/optimize, so calls that transitively reach nondeterminism
// are reported here — a solve must return the same Result on every run.
package optimize

import (
	"repro/internal/lint/testdata/src/detflow/helpers"
)

// JitterStep randomizes the initial step length through a helper.
func JitterStep(alpha float64) float64 {
	return alpha * (1 + helpers.Draw()) // want `call to nondeterministic Draw`
}

// HalveStep is deterministic: nothing is reported.
func HalveStep(alpha float64) float64 {
	return helpers.Pure(alpha) / alpha / 2
}
