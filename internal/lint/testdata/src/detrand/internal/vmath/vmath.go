// Package vmath stands in for repro/internal/vmath (matched by path
// suffix): the vector kernels must equal the scalar math package bit for
// bit on every call, so which path runs may depend on the CPU's features
// but never on chance or the clock.
package vmath

import (
	"math/rand"
	"time"
)

// SampledCheck spot-checks the kernel against the scalar path on a
// globally random lane, so two runs would fall back on different calls.
func SampledCheck() int {
	return rand.Intn(4) // want `global math/rand source \(math/rand\.Intn\)`
}

// TimedDispatch picks the kernel by timing both paths at start-up.
func TimedDispatch() time.Time {
	return time.Now() // want `time\.Now in deterministic package`
}

// FeatureDispatch shows the sanctioned pattern: the path depends only on
// what the CPU advertises, which is fixed for the process.
func FeatureDispatch(hasAVX2, hasFMA bool) bool {
	return hasAVX2 && hasFMA
}
