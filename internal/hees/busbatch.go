package hees

import "math"

// BusBatch is the worker-owned structure-of-arrays scratch for solving many
// independent parallel-bus balances in one call. A batched fleet rollout
// lays the per-lane solver inputs (V_b, R_b, V_c, R_c, P) out contiguously,
// then Solve brackets every lane and runs each bisection over
// register-resident state with no per-call setup, error wrapping or
// interface traffic — and, on warm scratch, no allocation.
//
// The bisections run in lockstep over register-blocked groups of eight
// (then four, then single) lanes, with a branchless bracket update and a
// division-free gap-sign test: a bisection's direction branch is an
// unpredictable coin flip on live data, so the blocked kernels replace it
// with bit selection (bisectUpdate) and keep every lane's divides and
// multiplies in flight at once instead of stalling on one mispredicted
// lane.
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
// midpoint all match bit for bit.
//
//lint:hotpath the batched bus solve is the batched fleet rollout's inner loop; it must not allocate on warm scratch
func (bb *BusBatch) Solve(n int) {
	vb, rb, vc, rc, p := bb.VB, bb.RB, bb.VC, bb.RC, bb.P
	vl, lo, hi, act := bb.VL, bb.lo, bb.hi, bb.act

	// Bracket phase: initialise the bisection interval per lane — [V*,
	// max(Vb,Vc)] for discharging lanes, the expanded regen bracket for
	// P ≤ 0 — and pack the lanes that bracketed. After bracketing, both
	// cases run the very same bisection loop.
	na := 0
	for k := 0; k < n; k++ {
		var l, h float64
		if p[k] > 0 {
			l = math.Sqrt(p[k] * rb[k] * rc[k] / (rb[k] + rc[k]))
			h = math.Max(vb[k], vc[k])
			if l >= h || parallelBusGap(vb[k], rb[k], vc[k], rc[k], p[k], l) < 0 {
				bb.Feasible[k] = false
				vl[k] = 0
				continue
			}
		} else {
			l = math.Min(vb[k], vc[k])
			if l <= 0 {
				l = 1e-6
			}
			h = math.Max(vb[k], vc[k]) + 1
			ok := true
			for iter := 0; parallelBusGap(vb[k], rb[k], vc[k], rc[k], p[k], h) > 0; iter++ {
				h *= 1.5
				if iter > 200 {
					ok = false
					break
				}
			}
			if !ok {
				bb.Feasible[k] = false
				vl[k] = 0
				continue
			}
		}
		lo[k], hi[k] = l, h
		bb.Feasible[k] = true
		act[na] = k
		na++
	}

	// Bisection phase over register-blocked lane groups: the per-lane
	// state lives in locals for the whole loop (one gather, one
	// write-back), so the iteration body is free of bounds checks and
	// memory traffic and the independent lanes' arithmetic overlaps
	// instead of serialising on one lane's ~33-iteration chain.
	a := 0
	if useAVX && na > 1 { // a lone lane is faster in bisect1
		// AVX kernel: gather eight lanes into the contiguous register
		// block, run the vector bisection, and read the converged
		// midpoints back. IEEE determinism keeps every lane bit-identical
		// to the scalar loop.
		l := &bb.vec
		for ; a < na; a += 8 {
			m := na - a
			if m > 8 {
				m = 8
			} else if m < 8 {
				// Pad the final group with dummy lanes that converge on
				// their first iteration (lo == hi), so the remainder still
				// rides the vector kernel instead of a scalar tail.
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
	for ; a+8 <= na; a += 8 {
		bb.bisect8(act[a], act[a+1], act[a+2], act[a+3], act[a+4], act[a+5], act[a+6], act[a+7])
	}
	for ; a+4 <= na; a += 4 {
		bb.bisect4(act[a], act[a+1], act[a+2], act[a+3])
	}
	for ; a < na; a++ {
		bb.bisect1(act[a])
	}
}

// bisect8 is bisect4 widened to eight lanes: deeper overlap of the
// independent lanes' arithmetic for the common case of a mostly-full
// batch, same bit-exact per-lane decision sequence.
func (bb *BusBatch) bisect8(k0, k1, k2, k3, k4, k5, k6, k7 int) {
	vb0, rb0, vc0, rc0, p0, lo0, hi0 := bb.VB[k0], bb.RB[k0], bb.VC[k0], bb.RC[k0], bb.P[k0], bb.lo[k0], bb.hi[k0]
	vb1, rb1, vc1, rc1, p1, lo1, hi1 := bb.VB[k1], bb.RB[k1], bb.VC[k1], bb.RC[k1], bb.P[k1], bb.lo[k1], bb.hi[k1]
	vb2, rb2, vc2, rc2, p2, lo2, hi2 := bb.VB[k2], bb.RB[k2], bb.VC[k2], bb.RC[k2], bb.P[k2], bb.lo[k2], bb.hi[k2]
	vb3, rb3, vc3, rc3, p3, lo3, hi3 := bb.VB[k3], bb.RB[k3], bb.VC[k3], bb.RC[k3], bb.P[k3], bb.lo[k3], bb.hi[k3]
	vb4, rb4, vc4, rc4, p4, lo4, hi4 := bb.VB[k4], bb.RB[k4], bb.VC[k4], bb.RC[k4], bb.P[k4], bb.lo[k4], bb.hi[k4]
	vb5, rb5, vc5, rc5, p5, lo5, hi5 := bb.VB[k5], bb.RB[k5], bb.VC[k5], bb.RC[k5], bb.P[k5], bb.lo[k5], bb.hi[k5]
	vb6, rb6, vc6, rc6, p6, lo6, hi6 := bb.VB[k6], bb.RB[k6], bb.VC[k6], bb.RC[k6], bb.P[k6], bb.lo[k6], bb.hi[k6]
	vb7, rb7, vc7, rc7, p7, lo7, hi7 := bb.VB[k7], bb.RB[k7], bb.VC[k7], bb.RC[k7], bb.P[k7], bb.lo[k7], bb.hi[k7]
	var d0, d1, d2, d3, d4, d5, d6, d7 bool
	nd := 0
	for i := 0; i < 200 && nd < 8; i++ {
		if !d0 {
			mid := (lo0 + hi0) / 2
			pos := parallelBusGap(vb0, rb0, vc0, rc0, p0, mid) > 0
			lo0, hi0 = bisectUpdate(lo0, hi0, mid, pos)
			if hi0-lo0 < 1e-10*hi0 {
				d0 = true
				nd++
			}
		}
		if !d1 {
			mid := (lo1 + hi1) / 2
			pos := parallelBusGap(vb1, rb1, vc1, rc1, p1, mid) > 0
			lo1, hi1 = bisectUpdate(lo1, hi1, mid, pos)
			if hi1-lo1 < 1e-10*hi1 {
				d1 = true
				nd++
			}
		}
		if !d2 {
			mid := (lo2 + hi2) / 2
			pos := parallelBusGap(vb2, rb2, vc2, rc2, p2, mid) > 0
			lo2, hi2 = bisectUpdate(lo2, hi2, mid, pos)
			if hi2-lo2 < 1e-10*hi2 {
				d2 = true
				nd++
			}
		}
		if !d3 {
			mid := (lo3 + hi3) / 2
			pos := parallelBusGap(vb3, rb3, vc3, rc3, p3, mid) > 0
			lo3, hi3 = bisectUpdate(lo3, hi3, mid, pos)
			if hi3-lo3 < 1e-10*hi3 {
				d3 = true
				nd++
			}
		}
		if !d4 {
			mid := (lo4 + hi4) / 2
			pos := parallelBusGap(vb4, rb4, vc4, rc4, p4, mid) > 0
			lo4, hi4 = bisectUpdate(lo4, hi4, mid, pos)
			if hi4-lo4 < 1e-10*hi4 {
				d4 = true
				nd++
			}
		}
		if !d5 {
			mid := (lo5 + hi5) / 2
			pos := parallelBusGap(vb5, rb5, vc5, rc5, p5, mid) > 0
			lo5, hi5 = bisectUpdate(lo5, hi5, mid, pos)
			if hi5-lo5 < 1e-10*hi5 {
				d5 = true
				nd++
			}
		}
		if !d6 {
			mid := (lo6 + hi6) / 2
			pos := parallelBusGap(vb6, rb6, vc6, rc6, p6, mid) > 0
			lo6, hi6 = bisectUpdate(lo6, hi6, mid, pos)
			if hi6-lo6 < 1e-10*hi6 {
				d6 = true
				nd++
			}
		}
		if !d7 {
			mid := (lo7 + hi7) / 2
			pos := parallelBusGap(vb7, rb7, vc7, rc7, p7, mid) > 0
			lo7, hi7 = bisectUpdate(lo7, hi7, mid, pos)
			if hi7-lo7 < 1e-10*hi7 {
				d7 = true
				nd++
			}
		}
	}
	bb.VL[k0] = (lo0 + hi0) / 2
	bb.VL[k1] = (lo1 + hi1) / 2
	bb.VL[k2] = (lo2 + hi2) / 2
	bb.VL[k3] = (lo3 + hi3) / 2
	bb.VL[k4] = (lo4 + hi4) / 2
	bb.VL[k5] = (lo5 + hi5) / 2
	bb.VL[k6] = (lo6 + hi6) / 2
	bb.VL[k7] = (lo7 + hi7) / 2
}

// bisect4 runs the bisection loop of four bracketed lanes in lockstep.
// Each lane executes exactly the scalar loop's decision sequence on its
// own lo/hi — a finished lane freezes while the others run on — so the
// result is bit-identical to solveParallelBus lane by lane.
func (bb *BusBatch) bisect4(k0, k1, k2, k3 int) {
	vb0, rb0, vc0, rc0, p0, lo0, hi0 := bb.VB[k0], bb.RB[k0], bb.VC[k0], bb.RC[k0], bb.P[k0], bb.lo[k0], bb.hi[k0]
	vb1, rb1, vc1, rc1, p1, lo1, hi1 := bb.VB[k1], bb.RB[k1], bb.VC[k1], bb.RC[k1], bb.P[k1], bb.lo[k1], bb.hi[k1]
	vb2, rb2, vc2, rc2, p2, lo2, hi2 := bb.VB[k2], bb.RB[k2], bb.VC[k2], bb.RC[k2], bb.P[k2], bb.lo[k2], bb.hi[k2]
	vb3, rb3, vc3, rc3, p3, lo3, hi3 := bb.VB[k3], bb.RB[k3], bb.VC[k3], bb.RC[k3], bb.P[k3], bb.lo[k3], bb.hi[k3]
	var d0, d1, d2, d3 bool
	nd := 0
	for i := 0; i < 200 && nd < 4; i++ {
		// Branchless bracket update: a mispredicted branch in any lane
		// would flush the others' in-flight work; see bisectUpdate.
		if !d0 {
			mid := (lo0 + hi0) / 2
			pos := parallelBusGap(vb0, rb0, vc0, rc0, p0, mid) > 0
			lo0, hi0 = bisectUpdate(lo0, hi0, mid, pos)
			if hi0-lo0 < 1e-10*hi0 {
				d0 = true
				nd++
			}
		}
		if !d1 {
			mid := (lo1 + hi1) / 2
			pos := parallelBusGap(vb1, rb1, vc1, rc1, p1, mid) > 0
			lo1, hi1 = bisectUpdate(lo1, hi1, mid, pos)
			if hi1-lo1 < 1e-10*hi1 {
				d1 = true
				nd++
			}
		}
		if !d2 {
			mid := (lo2 + hi2) / 2
			pos := parallelBusGap(vb2, rb2, vc2, rc2, p2, mid) > 0
			lo2, hi2 = bisectUpdate(lo2, hi2, mid, pos)
			if hi2-lo2 < 1e-10*hi2 {
				d2 = true
				nd++
			}
		}
		if !d3 {
			mid := (lo3 + hi3) / 2
			pos := parallelBusGap(vb3, rb3, vc3, rc3, p3, mid) > 0
			lo3, hi3 = bisectUpdate(lo3, hi3, mid, pos)
			if hi3-lo3 < 1e-10*hi3 {
				d3 = true
				nd++
			}
		}
	}
	// Converged and iteration-capped lanes alike return the scalar loop's
	// final midpoint.
	bb.VL[k0] = (lo0 + hi0) / 2
	bb.VL[k1] = (lo1 + hi1) / 2
	bb.VL[k2] = (lo2 + hi2) / 2
	bb.VL[k3] = (lo3 + hi3) / 2
}

// bisect1 handles a lone lane and the portable kernels' remainder lanes
// one at a time: solveParallelBus's bisection loop on register-resident
// state. With no other lane to overlap, the branch lets the CPU speculate
// into the next iteration's divides, which the branchless update of the
// blocked kernels would serialise behind this one's; a one-lane batch
// (sim.Run) therefore skips the AVX kernel and lands here.
func (bb *BusBatch) bisect1(k int) {
	vb, rb, vc, rc, p, lo, hi := bb.VB[k], bb.RB[k], bb.VC[k], bb.RC[k], bb.P[k], bb.lo[k], bb.hi[k]
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if parallelBusGap(vb, rb, vc, rc, p, mid) > 0 {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-10*hi {
			break
		}
	}
	bb.VL[k] = (lo + hi) / 2
}

// bisectUpdate returns the bracket after one bisection decision —
// (mid, hi) when the gap at mid is positive, (lo, mid) otherwise — as pure
// bit selection (SETcc + masks, no data-dependent branch). The results are
// the untouched IEEE bit patterns of the inputs, so it is exactly the
// if/else of the scalar loop.
func bisectUpdate(lo, hi, mid float64, gapPos bool) (float64, float64) {
	var bit uint64
	if gapPos {
		bit = 1
	}
	mask := -bit // all-ones when the gap is positive
	lob, hib, midb := math.Float64bits(lo), math.Float64bits(hi), math.Float64bits(mid)
	return math.Float64frombits(lob&^mask | midb&mask),
		math.Float64frombits(hib&mask | midb&^mask)
}
