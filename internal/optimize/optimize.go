// Package optimize implements the numerical optimisation kernel used by the
// OTEM model-predictive controller: box-constrained quasi-Newton minimisation
// (a projected L-BFGS in the spirit of L-BFGS-B), backtracking line search,
// finite-difference gradients and an augmented-Lagrangian wrapper for
// nonlinear inequality constraints.
//
// The paper solves its MPC problem (Eqs. 18–19) with a MATLAB NLP solver;
// this package is the from-scratch substitute. It is deterministic and
// allocation-conscious so it can run inside every control step of a
// simulation.
package optimize

import (
	"errors"
	"fmt"
	"math"
)

// Status describes how a minimisation terminated.
type Status int

const (
	// Converged means the projected-gradient norm dropped below tolerance.
	Converged Status = iota
	// MaxIterationsReached means the iteration budget was exhausted; the
	// best point found so far is returned.
	MaxIterationsReached
	// LineSearchStalled means no further descent could be found; the best
	// point found so far is returned.
	LineSearchStalled
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Converged:
		return "converged"
	case MaxIterationsReached:
		return "max iterations reached"
	case LineSearchStalled:
		return "line search stalled"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Problem defines an objective to minimise, optionally with analytic
// gradients and a box constraint l ≤ x ≤ u.
type Problem struct {
	// Dim is the number of decision variables.
	Dim int
	// Func evaluates the objective at x. Required.
	Func func(x []float64) float64
	// Grad writes the gradient of Func at x into grad. Optional; when nil a
	// central finite difference of Func is used.
	Grad func(x, grad []float64)
	// FuncBatch, when set, evaluates Func at up to BatchWidth points at
	// once: fs[i] = Func(xs[i]), bit for bit. Optional. The line search
	// uses it to evaluate backtracking trials together after its first
	// rejected trial; every Result field is the same with or without it.
	FuncBatch func(xs [][]float64, fs []float64)
	// Lower and Upper, when non-nil, bound each variable. A nil slice means
	// unbounded on that side; individual entries may be ±Inf.
	Lower, Upper []float64
}

// Options tunes the minimiser. The zero value selects sensible defaults.
type Options struct {
	// MaxIterations bounds the outer quasi-Newton iterations (default 200).
	MaxIterations int
	// Tolerance is the convergence threshold on the infinity norm of the
	// projected gradient step (default 1e-6).
	Tolerance float64
	// Memory is the number of curvature pairs retained by L-BFGS
	// (default 8).
	Memory int
	// MaxLineSearch bounds backtracking steps per iteration (default 40).
	MaxLineSearch int
}

func (o *Options) withDefaults() Options {
	out := Options{MaxIterations: 200, Tolerance: 1e-6, Memory: 8, MaxLineSearch: 40}
	if o == nil {
		return out
	}
	if o.MaxIterations > 0 {
		out.MaxIterations = o.MaxIterations
	}
	if o.Tolerance > 0 {
		out.Tolerance = o.Tolerance
	}
	if o.Memory > 0 {
		out.Memory = o.Memory
	}
	if o.MaxLineSearch > 0 {
		out.MaxLineSearch = o.MaxLineSearch
	}
	return out
}

// Result reports the outcome of a minimisation.
type Result struct {
	// X is the best point found.
	X []float64
	// F is the objective value at X.
	F float64
	// Iterations is the number of outer iterations performed.
	Iterations int
	// FuncEvals counts objective evaluations (including those used for
	// finite-difference gradients).
	FuncEvals int
	// Status describes why iteration stopped.
	Status Status
}

// BatchWidth is the most points one Problem.FuncBatch call evaluates.
const BatchWidth = 4

// ErrBadProblem is returned for structurally invalid problems (missing
// objective, dimension mismatch, inconsistent bounds).
var ErrBadProblem = errors.New("optimize: invalid problem definition")

func (p *Problem) validate(x0 []float64) error {
	if p.Func == nil {
		return fmt.Errorf("%w: nil Func", ErrBadProblem)
	}
	if p.Dim <= 0 {
		return fmt.Errorf("%w: Dim = %d", ErrBadProblem, p.Dim)
	}
	if len(x0) != p.Dim {
		return fmt.Errorf("%w: len(x0) = %d, want %d", ErrBadProblem, len(x0), p.Dim)
	}
	if p.Lower != nil && len(p.Lower) != p.Dim {
		return fmt.Errorf("%w: len(Lower) = %d, want %d", ErrBadProblem, len(p.Lower), p.Dim)
	}
	if p.Upper != nil && len(p.Upper) != p.Dim {
		return fmt.Errorf("%w: len(Upper) = %d, want %d", ErrBadProblem, len(p.Upper), p.Dim)
	}
	if p.Lower != nil && p.Upper != nil {
		for i := range p.Lower {
			if p.Lower[i] > p.Upper[i] {
				return fmt.Errorf("%w: Lower[%d]=%g > Upper[%d]=%g", ErrBadProblem, i, p.Lower[i], i, p.Upper[i])
			}
		}
	}
	return nil
}

// project clamps x into the problem's box in place.
func (p *Problem) project(x []float64) {
	if p.Lower != nil {
		for i, lo := range p.Lower {
			if x[i] < lo {
				x[i] = lo
			}
		}
	}
	if p.Upper != nil {
		for i, hi := range p.Upper {
			if x[i] > hi {
				x[i] = hi
			}
		}
	}
}

// Workspace owns every buffer Minimize needs — the iterate, gradient and
// line-search vectors, the finite-difference scratch and the L-BFGS s/y/ρ
// history ring. A caller that keeps a Workspace across invocations (a
// warm-started MPC planner re-solving every control step) pays for the
// buffers once and then minimises without allocating.
//
// A Workspace is not safe for concurrent use: it is single-goroutine state,
// exactly like a bytes.Buffer. Pools of workers (runner.Pool) need one
// Workspace per worker. The zero value is ready to use.
type Workspace struct {
	// dim and mem are the backing capacities; buffers grow monotonically and
	// are resliced per call, so alternating problem sizes never reallocates
	// once the high-water mark is reached.
	dim, mem int

	x, g, dir, xNew, gNew, fdX []float64

	// L-BFGS curvature history: sPool/yPool own the row storage, sHist/yHist
	// are the ordered live views (oldest first), rho the matching 1/sᵀy.
	sPool, yPool [][]float64
	sHist, yHist [][]float64
	rho          []float64
	alpha        []float64

	// Speculative line-search lanes: the trial points of one FuncBatch
	// call, their values, step lengths and projected slopes.
	trials     [BatchWidth][]float64
	trialF     [BatchWidth]float64
	trialAlpha [BatchWidth]float64
	trialSlope [BatchWidth]float64

	evals int
}

// NewWorkspace returns an empty workspace. Buffers are allocated lazily on
// the first Minimize call and reused afterwards.
func NewWorkspace() *Workspace { return &Workspace{} }

// ensure sizes the buffers for an n-dimensional problem with memory m and
// resets the per-call state (history, evaluation counter). Buffers grow
// only when the problem outgrows every earlier call, so the makes below
// amortize to zero on a warm workspace.
//
//lint:coldpath buffer growth runs once per problem size; warm calls only reslice
func (ws *Workspace) ensure(n, m int) {
	if n > ws.dim {
		ws.x = make([]float64, n)
		ws.g = make([]float64, n)
		ws.dir = make([]float64, n)
		ws.xNew = make([]float64, n)
		ws.gNew = make([]float64, n)
		ws.fdX = make([]float64, n)
		for i := range ws.trials {
			ws.trials[i] = make([]float64, n)
		}
		ws.dim = n
		// Row storage is dimension-dependent; force a pool rebuild.
		ws.mem = 0
	}
	if m > ws.mem {
		ws.sPool = make([][]float64, m)
		ws.yPool = make([][]float64, m)
		for i := range ws.sPool {
			ws.sPool[i] = make([]float64, ws.dim)
			ws.yPool[i] = make([]float64, ws.dim)
		}
		ws.sHist = make([][]float64, 0, m)
		ws.yHist = make([][]float64, 0, m)
		ws.rho = make([]float64, 0, m)
		ws.alpha = make([]float64, m)
		ws.mem = m
	}
	ws.x = ws.x[:n]
	ws.g = ws.g[:n]
	ws.dir = ws.dir[:n]
	ws.xNew = ws.xNew[:n]
	ws.gNew = ws.gNew[:n]
	ws.fdX = ws.fdX[:n]
	for i := range ws.trials {
		ws.trials[i] = ws.trials[i][:n]
	}
	ws.alpha = ws.alpha[:m]
	ws.resetHistory()
	ws.evals = 0
}

func (ws *Workspace) resetHistory() {
	ws.sHist = ws.sHist[:0]
	ws.yHist = ws.yHist[:0]
	ws.rho = ws.rho[:0]
}

// value evaluates the objective, counting the call.
func (ws *Workspace) value(p *Problem, x []float64) float64 {
	ws.evals++
	return p.Func(x)
}

// gradient writes ∇f(x) into grad: the analytic gradient when the problem
// has one, otherwise the same central differences as NumericGradient,
// inlined over the workspace scratch so no closure escapes per call.
func (ws *Workspace) gradient(p *Problem, x, grad []float64) {
	if p.Grad != nil {
		p.Grad(x, grad)
		return
	}
	fd := ws.fdX
	copy(fd, x)
	const hBase = 6.055454452393343e-06 // cbrt(2^-52), as in NumericGradient
	for i := range fd {
		xi := fd[i]
		h := hBase * (1 + math.Abs(xi))
		fd[i] = xi + h
		ws.evals++
		fp := p.Func(fd)
		fd[i] = xi - h
		ws.evals++
		fm := p.Func(fd)
		fd[i] = xi
		grad[i] = (fp - fm) / (2 * h)
	}
}

// pushPair appends the curvature pair s = xNew−x, y = gNew−g to the history
// ring when it passes the positive-curvature test, reusing the oldest row
// once the ring is full.
func (ws *Workspace) pushPair(x, xNew, g, gNew []float64) {
	var sy, ss, yy float64
	for i := range x {
		s := xNew[i] - x[i]
		y := gNew[i] - g[i]
		sy += s * y
		ss += s * s
		yy += y * y
	}
	if !(sy > 1e-12*math.Sqrt(ss)*math.Sqrt(yy) && sy > 0) {
		return
	}
	m := len(ws.alpha)
	k := len(ws.sHist)
	var srow, yrow []float64
	if k == m {
		// Full: recycle the oldest row to the back of the ring.
		srow, yrow = ws.sHist[0], ws.yHist[0]
		copy(ws.sHist, ws.sHist[1:])
		copy(ws.yHist, ws.yHist[1:])
		copy(ws.rho, ws.rho[1:])
		ws.sHist[m-1] = srow
		ws.yHist[m-1] = yrow
		ws.rho[m-1] = 1 / sy
	} else {
		srow = ws.sPool[k][:len(x)]
		yrow = ws.yPool[k][:len(x)]
		// Growing: reslice within the capacity ensure reserved — spelled as
		// a reslice rather than append so the allocation-freedom is
		// checkable, not a capacity argument.
		ws.sHist = ws.sHist[:k+1]
		ws.sHist[k] = srow
		ws.yHist = ws.yHist[:k+1]
		ws.yHist[k] = yrow
		ws.rho = ws.rho[:k+1]
		ws.rho[k] = 1 / sy
	}
	for i := range srow {
		srow[i] = xNew[i] - x[i]
		yrow[i] = gNew[i] - g[i]
	}
}

// Minimize finds a local minimiser of p starting at x0 using projected
// L-BFGS. x0 is not modified. The returned Result always carries the best
// point seen, even on MaxIterationsReached or LineSearchStalled.
//
// Minimize allocates a fresh workspace per call; hot paths that re-solve
// repeatedly should hold a Workspace and call its Minimize method instead.
func Minimize(p *Problem, x0 []float64, opts *Options) (*Result, error) {
	var ws Workspace
	res, err := ws.Minimize(p, x0, opts)
	if err != nil {
		return nil, err
	}
	return &res, nil
}

// Minimize is the workspace-reusing form of the package-level Minimize: the
// same projected L-BFGS, but every buffer comes from the workspace, so a
// warm workspace performs the whole minimisation without allocating.
//
// The returned Result.X aliases workspace storage and is only valid until
// the next call on the same workspace — copy it if it must survive.
//
//lint:hotpath the warm re-solve runs every MPC step; allocflow proves it allocation-free
func (ws *Workspace) Minimize(p *Problem, x0 []float64, opts *Options) (Result, error) {
	if err := p.validate(x0); err != nil {
		return Result{}, err
	}
	o := opts.withDefaults()
	n := p.Dim
	ws.ensure(n, o.Memory)

	x := ws.x
	copy(x, x0)
	p.project(x)
	f := ws.value(p, x)
	g := ws.g
	ws.gradient(p, x, g)

	dir, xNew, gNew := ws.dir, ws.xNew, ws.gNew

	res := Result{X: x, F: f}
	status := MaxIterationsReached

	for iter := 0; iter < o.MaxIterations; iter++ {
		res.Iterations = iter + 1
		// Convergence test on the projected gradient step.
		if projectedGradNorm(p, x, g) < o.Tolerance {
			status = Converged
			break
		}

		// Two-loop recursion for d = -H·g, restricted to free variables so
		// bound-active coordinates do not pollute the curvature estimate.
		twoLoop(dir, g, ws.sHist, ws.yHist, ws.rho, ws.alpha)
		for i := range dir {
			dir[i] = -dir[i]
		}
		// Ensure descent; fall back to steepest descent if the quasi-Newton
		// direction is uphill (can happen right after history resets).
		if dot(dir, g) >= 0 {
			for i := range dir {
				dir[i] = -g[i]
			}
		}

		// A unit quasi-Newton step is the right default once curvature
		// information exists; before that, scale by the gradient so the
		// first probe is O(1) rather than O(‖g‖).
		alpha0 := 1.0
		if len(ws.sHist) == 0 {
			if gn := normInf(g); gn > 1 {
				alpha0 = 1 / gn
			}
		}
		fNew, ok := ws.lineSearch(p, x, f, g, dir, xNew, o.MaxLineSearch, alpha0)
		if !ok && len(ws.sHist) > 0 {
			// The quasi-Newton model went bad; drop the history and retry
			// with a scaled steepest-descent step.
			ws.resetHistory()
			for i := range dir {
				dir[i] = -g[i]
			}
			if gn := normInf(g); gn > 1 {
				alpha0 = 1 / gn
			} else {
				alpha0 = 1
			}
			fNew, ok = ws.lineSearch(p, x, f, g, dir, xNew, o.MaxLineSearch, alpha0)
		}
		if !ok {
			status = LineSearchStalled
			break
		}
		ws.gradient(p, xNew, gNew)

		// Update curvature history with s = xNew-x, y = gNew-g.
		ws.pushPair(x, xNew, g, gNew)

		copy(x, xNew)
		copy(g, gNew)
		f = fNew
	}

	res.X = x
	res.F = f
	res.FuncEvals = ws.evals
	res.Status = status
	return res, nil
}

// lineSearch performs a projected backtracking Armijo line search along
// dir, writing the accepted point to xNew and returning its value.
//
// Trials halve the step from alpha0 until one is accepted, one does not
// move x after projection, or maxSteps trials were made. The first trial
// is evaluated alone: it is accepted often enough that evaluating more
// with it would waste work. After a rejection, a problem with FuncBatch
// evaluates the next up-to-BatchWidth trials in one call. They are
// generated exactly as the one-at-a-time loop would (same step halving,
// same projection, stopping at a trial that does not move or at
// maxSteps) and scanned in order, and only the trials that loop would have
// evaluated are counted, so the result and FuncEvals are the same either
// way.
//
//lint:hotpath runs every solver iteration; allocflow proves it allocation-free
func (ws *Workspace) lineSearch(p *Problem, x []float64, f float64, g, dir, xNew []float64, maxSteps int, alpha0 float64) (float64, bool) {
	alpha := alpha0
	gd := dot(g, dir)
	for step := 0; step < maxSteps; {
		width := BatchWidth
		if step == 0 || p.FuncBatch == nil {
			width = 1
		}
		n, stalled := 0, false
		for n < width && step < maxSteps {
			t := ws.trials[n]
			sg, moved := projectedTrial(p, x, g, dir, alpha, t)
			if !moved {
				stalled = true
				break
			}
			ws.trialAlpha[n], ws.trialSlope[n] = alpha, sg
			alpha *= 0.5
			step++
			n++
		}
		if n == 1 {
			ws.trialF[0] = p.Func(ws.trials[0])
		} else if n > 1 {
			p.FuncBatch(ws.trials[:n], ws.trialF[:n])
		}
		for i := 0; i < n; i++ {
			ws.evals++
			if fNew := ws.trialF[i]; armijo(f, fNew, ws.trialSlope[i], ws.trialAlpha[i], gd) {
				copy(xNew, ws.trials[i])
				return fNew, true
			}
		}
		if stalled {
			break
		}
	}
	return f, false
}

// projectedTrial writes the projected trial point x + alpha·dir into t and
// returns the slope of the effective step along g, and whether the
// projection left any coordinate moved at all.
func projectedTrial(p *Problem, x, g, dir []float64, alpha float64, t []float64) (sg float64, moved bool) {
	for i := range t {
		t[i] = x[i] + alpha*dir[i]
	}
	p.project(t)
	for i := range t {
		d := t[i] - x[i]
		//lint:ignore floatcompare projection no-op detection must see bit-level movement; an epsilon would stall convergence detection
		if d != 0 {
			moved = true
		}
		sg += d * g[i]
	}
	return sg, moved
}

// armijo reports whether a trial with value fNew, projected slope sg and
// step length alpha is accepted from f, where gd is the raw directional
// derivative.
func armijo(f, fNew, sg, alpha, gd float64) bool {
	const c1 = 1e-4
	// Armijo condition on the projected step; fall back to the raw
	// direction slope when projection did not truncate the step.
	slope := sg
	if slope >= 0 {
		slope = alpha * gd
	}
	if fNew <= f+c1*slope && fNew < f {
		return true
	}
	// Plain decrease acceptance for very small steps avoids stalling on
	// flat, noisy objectives.
	return fNew < f-1e-14*(math.Abs(f)+1) && alpha < 1e-6
}

// twoLoop computes out = H·g using the standard L-BFGS two-loop recursion.
func twoLoop(out, g []float64, s, y [][]float64, rho, alphaBuf []float64) {
	copy(out, g)
	k := len(s)
	if k == 0 {
		return
	}
	alpha := alphaBuf[:k]
	for i := k - 1; i >= 0; i-- {
		alpha[i] = rho[i] * dot(s[i], out)
		axpy(out, -alpha[i], y[i])
	}
	// Initial Hessian scaling γ = sᵀy / yᵀy of the most recent pair.
	gamma := 1.0
	yy := dot(y[k-1], y[k-1])
	if yy > 0 {
		gamma = dot(s[k-1], y[k-1]) / yy
	}
	for i := range out {
		out[i] *= gamma
	}
	for i := 0; i < k; i++ {
		beta := rho[i] * dot(y[i], out)
		axpy(out, alpha[i]-beta, s[i])
	}
}

// projectedGradNorm returns ‖P(x − g) − x‖∞, the standard first-order
// optimality measure for box-constrained problems.
func projectedGradNorm(p *Problem, x, g []float64) float64 {
	var m float64
	for i := range x {
		xi := x[i] - g[i]
		if p.Lower != nil && xi < p.Lower[i] {
			xi = p.Lower[i]
		}
		if p.Upper != nil && xi > p.Upper[i] {
			xi = p.Upper[i]
		}
		if d := math.Abs(xi - x[i]); d > m {
			m = d
		}
	}
	return m
}

// NumericGradient writes a central-difference approximation of the gradient
// of f at x into grad. x is used as scratch but restored before returning.
func NumericGradient(f func([]float64) float64, x, grad []float64) {
	if len(x) != len(grad) {
		//lint:ignore nopanic argument contract shared with the gonum-style kernels: mismatched scratch lengths are programmer errors
		panic("optimize: NumericGradient length mismatch")
	}
	// h ~ cbrt(eps) balances truncation and rounding error for central
	// differences.
	const hBase = 6.055454452393343e-06 // cbrt(2^-52)
	for i := range x {
		xi := x[i]
		h := hBase * (1 + math.Abs(xi))
		x[i] = xi + h
		fp := f(x)
		x[i] = xi - h
		fm := f(x)
		x[i] = xi
		grad[i] = (fp - fm) / (2 * h)
	}
}

func dot(a, b []float64) float64 {
	var s float64
	for i, x := range a {
		s += x * b[i]
	}
	return s
}

func axpy(dst []float64, alpha float64, src []float64) {
	for i := range dst {
		dst[i] += alpha * src[i]
	}
}

func normInf(a []float64) float64 {
	var m float64
	for _, x := range a {
		if ax := math.Abs(x); ax > m {
			m = ax
		}
	}
	return m
}
