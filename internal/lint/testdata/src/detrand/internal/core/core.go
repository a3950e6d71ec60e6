// Package core stands in for repro/internal/core (matched by path
// suffix): the OTEM controller's plans feed every golden file and fleet
// digest, and its lockstep rollout lanes must reproduce the single-lane
// rollout bit for bit, so nondeterministic sources are banned.
package core

import (
	"math/rand"
	"time"
)

// PerturbWarmStart dithers the warm start from the global source: two
// replans of the same plant state would then solve to different plans.
func PerturbWarmStart(z []float64) {
	for i := range z {
		z[i] += 1e-6 * rand.NormFloat64() // want `global math/rand source \(math/rand\.NormFloat64\)`
	}
}

// ReplanDeadline caps the solve by wall time, so a loaded machine would
// stop the solver at a different iterate.
func ReplanDeadline() time.Time {
	return time.Now().Add(5 * time.Millisecond) // want `time\.Now in deterministic package`
}

// SeededRestart shows the sanctioned pattern: a restart point drawn from
// a generator seeded by the replan index is reproducible anywhere.
func SeededRestart(replan int64, dim int) []float64 {
	r := rand.New(rand.NewSource(replan))
	z := make([]float64, dim)
	for i := range z {
		z[i] = 2*r.Float64() - 1
	}
	return z
}
