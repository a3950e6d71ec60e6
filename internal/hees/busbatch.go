package hees

import "repro/internal/vmath"

// BusBatch is the worker-owned structure-of-arrays scratch for solving many
// independent parallel-bus balances in one call. A batched fleet rollout
// lays the per-lane solver inputs (V_b, R_b, V_c, R_c, P) out contiguously,
// then Solve brackets every lane and runs each bisection over
// register-resident state with no per-call setup, error wrapping or
// interface traffic — and, on warm scratch, no allocation.
//
// Where vmath's vector kernels are live, a call with two or more
// bracketed lanes bisects them all in lockstep on the AVX kernel, eight
// at a time; otherwise every lane runs solveParallelBus's own loop
// (busBisect), so vmath.UsePortable puts the bus solve on its portable
// path with the rest of the simulator.
//
// Usage: Ensure(n), fill VB/RB/VC/RC/P[:n], Solve(n), read VL/Feasible[:n].
// Like an optimize Workspace it is single-goroutine state: give each worker
// its own.
type BusBatch struct {
	// VB, RB, VC, RC, P are the per-lane solver inputs (Eqs. 10–13
	// notation; P is the bus load, discharge positive).
	VB, RB, VC, RC, P []float64
	// VL receives the solved bus voltage per lane.
	VL []float64
	// Feasible reports per lane whether the solve succeeded; false is the
	// batched form of ErrInfeasible and routes the lane to the battery
	// fallback, exactly like the scalar error path.
	Feasible []bool

	// lo, hi are the per-lane bisection brackets; act is the packed list
	// of lanes that bracketed successfully.
	lo, hi []float64
	act    []int
	// vec is the register-block handed to the AVX kernel on amd64.
	vec lanes8
}

// lanes8 is the contiguous eight-lane block the AVX bisection kernel
// operates on: the solver inputs followed by the live brackets, each field
// two four-lane ymm groups. The layout is mirrored by field offsets in
// bisectavx_amd64.s — do not reorder.
type lanes8 struct {
	vb, rb, vc, rc, p, lo, hi [8]float64
}

// NewBusBatch returns scratch sized for n lanes.
func NewBusBatch(n int) *BusBatch {
	bb := &BusBatch{}
	bb.Ensure(n)
	return bb
}

// Ensure grows the scratch to hold at least n lanes, keeping it otherwise.
// The eight float64 lane arrays share one allocation, which keeps a
// one-lane batch (every sim.Run route builds one) cheap to set up.
//
//lint:coldpath per-batch capacity growth; a warmed BusBatch returns at the cap check
func (bb *BusBatch) Ensure(n int) {
	if cap(bb.VB) >= n {
		return
	}
	f := make([]float64, 8*n)
	for _, s := range [...]*[]float64{&bb.VB, &bb.RB, &bb.VC, &bb.RC, &bb.P, &bb.VL, &bb.lo, &bb.hi} {
		*s, f = f[:n:n], f[n:]
	}
	bb.Feasible = make([]bool, n)
	bb.act = make([]int, n)
}

// Solve runs the parallel-bus solve for lanes [0, n). Each lane's
// floating-point operation sequence is identical to solveParallelBus on
// the same inputs — brackets (including the expanding regen bracket for
// P ≤ 0), bisection updates, the convergence test and the returned
// midpoint all match bit for bit; off the AVX kernel the lanes run the
// very functions solveParallelBus runs.
//
//lint:hotpath the batched bus solve is the batched fleet rollout's inner loop; it must not allocate on warm scratch
func (bb *BusBatch) Solve(n int) {
	vb, rb, vc, rc, p := bb.VB, bb.RB, bb.VC, bb.RC, bb.P
	vl, lo, hi, act := bb.VL, bb.lo, bb.hi, bb.act

	// Bracket phase: initialise each lane's bisection interval and pack
	// the lanes that bracketed.
	na := 0
	for k := 0; k < n; k++ {
		l, h, ok := busBracket(vb[k], rb[k], vc[k], rc[k], p[k])
		bb.Feasible[k] = ok
		if !ok {
			vl[k] = 0
			continue
		}
		lo[k], hi[k] = l, h
		act[na] = k
		na++
	}

	if na < 2 || !vmath.Live() {
		// A lone lane is faster in the scalar loop, whose branch lets the
		// CPU speculate into the next iteration's divides.
		for _, k := range act[:na] {
			vl[k] = busBisect(vb[k], rb[k], vc[k], rc[k], p[k], lo[k], hi[k])
		}
		return
	}
	// AVX kernel: gather eight lanes into the contiguous register block,
	// run the vector bisection, and read the converged midpoints back.
	// IEEE determinism keeps every lane bit-identical to the scalar loop.
	l := &bb.vec
	for a := 0; a < na; a += 8 {
		m := na - a
		if m > 8 {
			m = 8
		} else if m < 8 {
			// Pad the final group with dummy lanes that converge on their
			// first iteration (lo == hi), so the remainder still rides the
			// vector kernel instead of a scalar tail.
			for j := m; j < 8; j++ {
				l.vb[j], l.rb[j], l.vc[j], l.rc[j] = 1, 1, 1, 1
				l.p[j], l.lo[j], l.hi[j] = 1, 1, 1
			}
		}
		for j := 0; j < m; j++ {
			k := act[a+j]
			l.vb[j], l.rb[j], l.vc[j], l.rc[j] = vb[k], rb[k], vc[k], rc[k]
			l.p[j], l.lo[j], l.hi[j] = p[k], lo[k], hi[k]
		}
		bisect8AVX(l)
		for j := 0; j < m; j++ {
			vl[act[a+j]] = (l.lo[j] + l.hi[j]) / 2
		}
	}
}
