// Package fleet stands in for repro/internal/fleet (matched by path
// suffix): the Monte Carlo fleet simulator promises bit-identical results
// at any worker count, so the shared global math/rand source and the wall
// clock are banned exactly as in the physics packages.
package fleet

import (
	"math/rand"
	"time"
)

// DrawAmbient uses the global source: a second goroutine drawing
// concurrently would perturb the stream and break parallel identity.
func DrawAmbient() float64 {
	return 265 + 48*rand.Float64() // want `global math/rand source \(math/rand\.Float64\)`
}

func PickFamily(n int) int {
	return rand.Intn(n) // want `global math/rand source \(math/rand\.Intn\)`
}

func Stamp() int64 {
	return time.Now().UnixNano() // want `time\.Now in deterministic package`
}

// RollVehicle shows the sanctioned pattern: every draw comes from a
// generator seeded purely by (fleet seed, vehicle index), so any worker
// can roll any vehicle and produce the same scenario.
func RollVehicle(fleetSeed int64, vehicle int) float64 {
	r := rand.New(rand.NewSource(fleetSeed + int64(vehicle)))
	return r.Float64()
}
