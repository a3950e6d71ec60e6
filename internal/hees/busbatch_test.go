package hees

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/vmath"
)

// TestBusBatchMatchesScalar is the bit-identity property test for the
// lockstep solver: for random lane inputs spanning discharge, regen, idle
// and infeasible demands, every batched bus voltage must equal the scalar
// solveParallelBus result exactly (Float64bits, not a tolerance), and the
// feasibility flags must mirror the scalar error.
func TestBusBatchMatchesScalar(t *testing.T) { testBusBatchMatchesScalar(t) }

func testBusBatchMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	bb := NewBusBatch(1)

	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(97)
		bb.Ensure(n)
		for k := 0; k < n; k++ {
			bb.VB[k] = 250 + 200*rng.Float64()
			bb.RB[k] = 0.01 + 0.5*rng.Float64()
			bb.VC[k] = 100 + 350*rng.Float64()
			bb.RC[k] = 0.001 + 0.1*rng.Float64()
			switch rng.Intn(5) {
			case 0: // regen
				bb.P[k] = -40000 * rng.Float64()
			case 1: // idle
				bb.P[k] = 0
			case 2: // far beyond capability: exercises infeasible lanes
				bb.P[k] = 1e7 + 1e7*rng.Float64()
			default: // moderate discharge
				bb.P[k] = 60000 * rng.Float64()
			}
		}
		bb.Solve(n)
		for k := 0; k < n; k++ {
			want, err := solveParallelBus(bb.VB[k], bb.RB[k], bb.VC[k], bb.RC[k], bb.P[k])
			if feasible := err == nil; feasible != bb.Feasible[k] {
				t.Fatalf("trial %d lane %d: Feasible=%v, scalar err=%v (P=%g)",
					trial, k, bb.Feasible[k], err, bb.P[k])
			}
			if err != nil {
				continue
			}
			if math.Float64bits(bb.VL[k]) != math.Float64bits(want) {
				t.Fatalf("trial %d lane %d: batched VL=%v scalar=%v (inputs vb=%v rb=%v vc=%v rc=%v p=%v)",
					trial, k, bb.VL[k], want, bb.VB[k], bb.RB[k], bb.VC[k], bb.RC[k], bb.P[k])
			}
		}
	}
}

// TestBusBatchWarmNoAlloc pins the 0-alloc contract of the warm solve loop.
func TestBusBatchWarmNoAlloc(t *testing.T) {
	const n = 64
	bb := NewBusBatch(n)
	rng := rand.New(rand.NewSource(7))
	for k := 0; k < n; k++ {
		bb.VB[k] = 300 + 100*rng.Float64()
		bb.RB[k] = 0.05 + 0.2*rng.Float64()
		bb.VC[k] = 200 + 200*rng.Float64()
		bb.RC[k] = 0.001 + 0.05*rng.Float64()
		bb.P[k] = -20000 + 60000*rng.Float64()
	}
	allocs := testing.AllocsPerRun(50, func() { bb.Solve(n) })
	if allocs != 0 {
		t.Fatalf("warm BusBatch.Solve allocates %.2f per run, want 0", allocs)
	}
}

// TestStepParallelPreparedSplit checks the Prepare/Finish split against the
// one-shot StepParallel on identical systems: same report bits, same state.
func TestStepParallelPreparedSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		a := newSystem(t, 3000, 0.8, 0.5)
		b := newSystem(t, 3000, 0.8, 0.5)
		a.Battery.SoC = 0.2 + 0.7*rng.Float64()
		b.Battery.SoC = a.Battery.SoC
		a.Cap.SoE = rng.Float64()
		b.Cap.SoE = a.Cap.SoE
		load := -10000 + 50000*rng.Float64()

		ra, errA := a.StepParallel(load, 1)

		pre := b.PrepareParallel()
		vl, errSolve := solveParallelBus(pre.Batt.VOC, pre.Batt.R, pre.VC, pre.RC, load)
		if errA != nil {
			if errSolve == nil {
				t.Fatalf("trial %d: StepParallel err=%v but split solve succeeded", trial, errA)
			}
			continue
		}
		if errSolve != nil {
			t.Fatalf("trial %d: split solve err=%v but StepParallel succeeded", trial, errSolve)
		}
		rb, errB := b.FinishParallel(pre, vl, 1)
		if errB != nil {
			t.Fatalf("trial %d: FinishParallel: %v", trial, errB)
		}
		if ra != rb {
			t.Fatalf("trial %d: split report %+v != one-shot %+v", trial, rb, ra)
		}
		if a.Battery.SoC != b.Battery.SoC || a.Cap.SoE != b.Cap.SoE {
			t.Fatalf("trial %d: state diverged: SoC %v vs %v, SoE %v vs %v",
				trial, a.Battery.SoC, b.Battery.SoC, a.Cap.SoE, b.Cap.SoE)
		}
	}
}

// TestBusBatchPortableMatchesScalar re-runs the batched-vs-scalar identity
// property with vmath on its portable path, so the scalar loop runs for
// every lane even on machines where Solve would normally dispatch to the
// AVX kernel.
func TestBusBatchPortableMatchesScalar(t *testing.T) {
	if !vmath.Live() {
		t.Skip("portable path already covered by TestBusBatchMatchesScalar")
	}
	vmath.UsePortable(true)
	defer vmath.UsePortable(false)
	testBusBatchMatchesScalar(t)
}
