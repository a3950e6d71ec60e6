// Package sim stands in for repro/internal/sim (matched by path suffix):
// a deterministic package where the global math/rand source and time.Now
// are banned.
package sim

import (
	"math/rand"
	"time"
)

func Jitter() float64 {
	return rand.Float64() // want `global math/rand source \(math/rand\.Float64\)`
}

func Pick(n int) int {
	return rand.Intn(n) // want `global math/rand source \(math/rand\.Intn\)`
}

func Reseed(seed int64) {
	rand.Seed(seed) // want `global math/rand source \(math/rand\.Seed\)`
}

func Stamp() int64 {
	return time.Now().Unix() // want `time\.Now in deterministic package`
}

// Seeded shows the sanctioned pattern: an injectable generator built from
// the route seed. rand.New / rand.NewSource and *rand.Rand methods pass.
func Seeded(seed int64) float64 {
	r := rand.New(rand.NewSource(seed))
	return r.Float64()
}

// Elapsed shows that time arithmetic on simulated values is fine; only
// the wall clock is banned.
func Elapsed(start time.Time, dt time.Duration) time.Time {
	return start.Add(dt)
}
