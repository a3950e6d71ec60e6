package hees

// bisect8AVX runs the bisection loop of the eight lanes in l to
// convergence (or the 200-iteration cap), updating l.lo and l.hi in
// place. It is the vector form of busBisect: two four-lane ymm groups,
// the gap evaluated with VSUBPD/VDIVPD/VADDPD in the scalar expression's
// association, the bracket chosen with VBLENDVPD, and converged lanes
// frozen out of further updates by an active-lane mask — IEEE-754
// arithmetic is deterministic, so each vector lane reproduces
// solveParallelBus bit for bit. It needs only AVX; Solve runs it where
// vmath.Live holds, which implies AVX.
//
//go:noescape
func bisect8AVX(l *lanes8)
