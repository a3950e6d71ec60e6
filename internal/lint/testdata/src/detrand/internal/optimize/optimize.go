// Package optimize stands in for repro/internal/optimize (matched by path
// suffix): a solve must return the same Result — X bit for bit, F,
// Iterations, FuncEvals, Status — for the same problem, with or without
// batched line-search trials, so nondeterministic sources are banned.
package optimize

import (
	"math/rand"
	"time"
)

// ShuffleCoordinates visits coordinates in a globally random order, so the
// sum behind every projected-gradient norm would change between runs.
func ShuffleCoordinates(n int) []int {
	return rand.Perm(n) // want `global math/rand source \(math/rand\.Perm\)`
}

// TimeBudget stops the line search by wall time, so the accepted step
// would depend on the machine's load.
func TimeBudget(start time.Time) bool {
	return time.Now().Sub(start) > time.Millisecond // want `time\.Now in deterministic package`
}

// SeededProbe shows the sanctioned pattern: a locally seeded generator
// gives the same probe directions on every run.
func SeededProbe(seed int64, n int) []float64 {
	r := rand.New(rand.NewSource(seed))
	d := make([]float64, n)
	for i := range d {
		d[i] = r.NormFloat64()
	}
	return d
}
