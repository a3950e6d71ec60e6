// Package hees stands in for repro/internal/hees (matched by path
// suffix): the lockstep bus solver underpins the batched fleet rollout's
// bit-identity contract, so the shared global math/rand source and the
// wall clock are banned exactly as in the simulation packages.
package hees

import (
	"math/rand"
	"time"
)

// PerturbBracket would make two identical solves disagree: the global
// source's stream depends on every other goroutine that draws from it.
func PerturbBracket(hi float64) float64 {
	return hi * (1 + 1e-12*rand.Float64()) // want `global math/rand source \(math/rand\.Float64\)`
}

// SolveDeadline keys convergence on the wall clock: the same inputs would
// bisect to different depths on a loaded machine.
func SolveDeadline() time.Time {
	return time.Now().Add(time.Millisecond) // want `time\.Now in deterministic package`
}

// JitterLanes shows the sanctioned pattern: a locally seeded generator is
// reproducible, so randomized property tests of the solver stay legal.
func JitterLanes(seed int64, n int) []float64 {
	r := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = 300 + 100*r.Float64()
	}
	return out
}
