// Package battery stands in for repro/internal/battery (matched by path
// suffix): the prepared battery step runs inside the batched rollout's
// bit-identical hot loop, so nondeterministic sources are banned.
package battery

import (
	"math/rand"
	"time"
)

// NoisyOCV injects measurement noise from the global source — the classic
// way a "realistic" tweak silently breaks digest identity.
func NoisyOCV(ocv float64) float64 {
	return ocv + 1e-6*rand.NormFloat64() // want `global math/rand source \(math/rand\.NormFloat64\)`
}

// AgeByWallClock makes degradation depend on when the simulation ran.
func AgeByWallClock(start time.Time) float64 {
	return time.Now().Sub(start).Hours() // want `time\.Now in deterministic package`
}

// CellLot shows the sanctioned pattern: per-cell parameter scatter drawn
// from a generator seeded by the cell index is reproducible anywhere.
func CellLot(seed int64, cell int) float64 {
	r := rand.New(rand.NewSource(seed + int64(cell)))
	return 1 + 0.02*r.NormFloat64()
}
