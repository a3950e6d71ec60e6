// Package vmath stands in for the vector math kernels: its import path
// ends in internal/vmath, so calls that transitively reach
// nondeterminism are reported here — a kernel that is bit-identical to
// math.Exp on some calls only is no contract at all.
package vmath

import (
	"repro/internal/lint/testdata/src/detflow/helpers"
)

// WarmupNanos times the kernel against the wall clock through a helper.
func WarmupNanos() float64 {
	return helpers.Wrap() // want `call to nondeterministic Wrap`
}

// Square is deterministic: nothing is reported.
func Square(x float64) float64 {
	return helpers.Pure(x)
}
