// Package hmpc stands in for repro/internal/hmpc (matched by path
// suffix): outer route plans are golden-pinned and served from a
// canonical-spec-keyed cache, so planning must be a pure function of the
// spec — the global math/rand source and the wall clock are banned.
package hmpc

import (
	"math/rand"
	"time"
)

// JitterBlock perturbs a block boundary from the global source: two
// servers solving the same spec would cache different plans.
func JitterBlock(seconds float64) float64 {
	return seconds + rand.Float64() // want `global math/rand source \(math/rand\.Float64\)`
}

// PlanStamp leaks the wall clock into the plan.
func PlanStamp() int64 {
	return time.Now().Unix() // want `time\.Now in deterministic package`
}

// SynthRoute shows the sanctioned pattern: the route generator is seeded
// purely by the spec's seed, so the same spec always synthesizes the same
// route and the plan cache key stays sound.
func SynthRoute(seed int64, n int) []float64 {
	r := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = r.Float64()
	}
	return out
}
