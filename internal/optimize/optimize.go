// Package optimize implements the numerical optimisation kernel used by the
// OTEM model-predictive controller: box-constrained quasi-Newton minimisation
// (a projected L-BFGS in the spirit of L-BFGS-B) with a backtracking line
// search, driven through an ask/tell interface.
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

// Problem defines an objective to minimise, its gradient, and optionally a
// box constraint l ≤ x ≤ u.
type Problem struct {
	// Dim is the number of decision variables.
	Dim int
	// Func evaluates the objective at x. Required.
	Func func(x []float64) float64
	// Grad writes the gradient of Func at x into grad. Required.
	Grad func(x, grad []float64)
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
	// FuncEvals counts objective evaluations.
	FuncEvals int
	// Status describes why iteration stopped.
	Status Status
}

// BatchWidth is the most trial points one Workspace.Ask returns.
const BatchWidth = 4

// ErrBadProblem is returned for structurally invalid problems (missing
// objective or gradient, dimension mismatch, inconsistent bounds).
var ErrBadProblem = errors.New("optimize: invalid problem definition")

func (p *Problem) validate(x0 []float64) error {
	if p.Func == nil {
		return fmt.Errorf("%w: nil Func", ErrBadProblem)
	}
	if p.Grad == nil {
		return fmt.Errorf("%w: nil Grad", ErrBadProblem)
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

// Workspace owns every buffer a solve needs — the iterate, gradient and
// line-search vectors and the L-BFGS s/y/ρ history ring — and the state
// of one resumable solve. A caller that keeps a Workspace across
// invocations (a warm-started MPC planner re-solving every control step)
// pays for the buffers once and then minimises without allocating.
//
// The solve is an ask/tell state machine: Start begins it, Ask hands out
// the next points whose objective values the solver needs, Tell takes
// those values back, and Result reports the outcome once Done. The Result
// does not depend on the Ask budget, so a caller that evaluates several
// points at once (or several problems' points at once) gets the Result of
// one evaluation at a time.
//
// A Workspace is not safe for concurrent use: it is single-goroutine state,
// exactly like a bytes.Buffer. Pools of workers (runner.Pool) need one
// Workspace per worker. The zero value is ready to use.
type Workspace struct {
	// dim and mem are the backing capacities; buffers grow monotonically and
	// are resliced per call, so alternating problem sizes never reallocates
	// once the high-water mark is reached.
	dim, mem int

	x, g, dir, xNew, gNew []float64

	// L-BFGS curvature history: sPool/yPool own the row storage, sHist/yHist
	// are the ordered live views (oldest first), rho the matching 1/sᵀy.
	sPool, yPool [][]float64
	sHist, yHist [][]float64
	rho          []float64
	alpha        []float64

	// The points of the last Ask, their step lengths and projected slopes.
	trials     [BatchWidth][]float64
	trialAlpha [BatchWidth]float64
	trialSlope [BatchWidth]float64

	// Ask/tell state: the problem and options of the running solve, where
	// it stands, the current value, the outer iterations begun, and the
	// line search in progress — its next step length, the raw directional
	// derivative, the trials generated so far, the points the last Ask
	// handed out and whether its last trial stopped moving x.
	prob    *Problem
	opts    Options
	phase   phase
	f       float64
	iter    int
	status  Status
	step    int
	asked   int
	stalled bool
	lsAlpha float64
	gd      float64

	evals int
}

// phase is where an ask/tell solve stands.
type phase int

const (
	// phaseDone: no solve is running (before Start, or after it ended).
	phaseDone phase = iota
	// phaseStart: the objective at the projected start point is pending.
	phaseStart
	// phaseSearch: a backtracking line search is running.
	phaseSearch
)

// ensure sizes the buffers for an n-dimensional problem with memory m and
// resets the per-call state (history, evaluation counter). Buffers grow
// only when the problem outgrows every earlier call, so the makes below
// amortize to zero on a warm workspace; the vectors share one block.
//
//lint:coldpath buffer growth runs once per problem size; warm calls only reslice
func (ws *Workspace) ensure(n, m int) {
	if n > ws.dim {
		block := make([]float64, (5+BatchWidth)*n)
		vec := func(i int) []float64 { return block[i*n : (i+1)*n : (i+1)*n] }
		ws.x, ws.g, ws.dir, ws.xNew, ws.gNew = vec(0), vec(1), vec(2), vec(3), vec(4)
		for i := range ws.trials {
			ws.trials[i] = vec(5 + i)
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

// Start begins a projected L-BFGS solve of p from x0 (not modified), to be
// driven by Ask and Tell. It replaces any solve in progress. The workspace
// keeps p until the solve ends; p must not change meanwhile.
func (ws *Workspace) Start(p *Problem, x0 []float64, opts *Options) error {
	ws.phase = phaseDone
	if err := p.validate(x0); err != nil {
		return err
	}
	ws.opts = opts.withDefaults()
	ws.ensure(p.Dim, ws.opts.Memory)
	ws.prob = p
	copy(ws.x, x0)
	p.project(ws.x)
	ws.f = 0
	ws.iter = 0
	ws.status = MaxIterationsReached
	ws.asked = 0
	ws.phase = phaseStart
	return nil
}

// Ask returns the points whose objective values the solve needs next, nil
// once it is Done. The first Ask of a solve returns the projected start
// point. After that it returns trials of the current backtracking line
// search: the search's first trial alone, then, after a rejection, up to
// min(budget, BatchWidth) trials at once, generated exactly as the
// one-at-a-time search would generate them (the same step halving and
// projection, stopping at a trial that does not move x or at
// MaxLineSearch). Trials past the one the search accepts are wasted
// evaluations, so a budget above 1 is speculation.
//
// The returned points alias workspace storage: read them, do not modify
// them, and pass their values to Tell, in order, before the next Ask.
//
//lint:hotpath every replan asks once per trial round; allocflow proves it allocation-free
func (ws *Workspace) Ask(budget int) [][]float64 {
	ws.asked = 0
	switch ws.phase {
	case phaseStart:
		copy(ws.trials[0], ws.x)
		ws.asked = 1
	case phaseSearch:
		for ws.phase == phaseSearch && ws.asked == 0 {
			ws.asked = ws.generate(budget)
			if ws.asked == 0 {
				// The search's next trial does not move x: it failed
				// without another evaluation.
				ws.searchFailed()
			}
		}
	}
	if ws.asked == 0 {
		return nil
	}
	return ws.trials[:ws.asked]
}

// Backtracking reports whether the next Ask continues a line search past
// a rejected trial, where a budget above 1 is honoured.
func (ws *Workspace) Backtracking() bool { return ws.phase == phaseSearch && ws.step > 0 }

// Done reports whether the solve has ended (or none was started).
func (ws *Workspace) Done() bool { return ws.phase == phaseDone }

// Tell takes the objective values of the points the last Ask returned:
// fs[i] belongs to point i. It scans them in order exactly as the
// sequential search would, counting only the evaluations that search would
// have made: the first trial the Armijo test accepts ends the line search,
// and the values after it are ignored. An accepted point's gradient is
// evaluated synchronously, through Problem.Grad.
//
//lint:hotpath every replan tells once per trial round; allocflow proves it allocation-free
func (ws *Workspace) Tell(fs []float64) {
	n := ws.asked
	ws.asked = 0
	switch ws.phase {
	case phaseStart:
		ws.evals++
		ws.f = fs[0]
		ws.prob.Grad(ws.x, ws.g)
		ws.beginIteration()
	case phaseSearch:
		for i, fNew := range fs[:n] {
			ws.evals++
			if armijo(ws.f, fNew, ws.trialSlope[i], ws.trialAlpha[i], ws.gd) {
				copy(ws.xNew, ws.trials[i])
				ws.accept(fNew)
				return
			}
		}
		if ws.stalled || ws.step >= ws.opts.MaxLineSearch {
			ws.searchFailed()
		}
	}
}

// Result reports the solve's outcome: the best point so far, its value,
// the iterations begun, the evaluations counted and the status (final once
// Done). Result.X aliases workspace storage.
func (ws *Workspace) Result() Result {
	return Result{X: ws.x, F: ws.f, Iterations: ws.iter, FuncEvals: ws.evals, Status: ws.status}
}

// beginIteration starts the next outer iteration from (x, f, g): the
// iteration cap and the convergence test, then the quasi-Newton direction
// and the first step length of its line search.
func (ws *Workspace) beginIteration() {
	if ws.iter >= ws.opts.MaxIterations {
		ws.phase = phaseDone
		return
	}
	ws.iter++
	p, x, g, dir := ws.prob, ws.x, ws.g, ws.dir
	// Convergence test on the projected gradient step.
	if projectedGradNorm(p, x, g) < ws.opts.Tolerance {
		ws.status = Converged
		ws.phase = phaseDone
		return
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
	ws.startSearch(alpha0)
}

// startSearch begins a projected backtracking Armijo line search along dir
// from step length alpha0.
func (ws *Workspace) startSearch(alpha0 float64) {
	ws.lsAlpha = alpha0
	ws.gd = dot(ws.g, ws.dir)
	ws.step = 0
	ws.phase = phaseSearch
}

// generate writes the line search's next trial points into ws.trials and
// returns how many: one for the search's first trial, else up to budget
// (at most BatchWidth). Trials halve the step each time; generation stops
// at a trial whose projection does not move x (setting ws.stalled) or at
// MaxLineSearch trials in the search.
func (ws *Workspace) generate(budget int) int {
	width := 1
	if ws.step > 0 {
		width = min(max(budget, 1), BatchWidth)
	}
	n := 0
	ws.stalled = false
	for n < width && ws.step < ws.opts.MaxLineSearch {
		sg, moved := projectedTrial(ws.prob, ws.x, ws.g, ws.dir, ws.lsAlpha, ws.trials[n])
		if !moved {
			ws.stalled = true
			break
		}
		ws.trialAlpha[n], ws.trialSlope[n] = ws.lsAlpha, sg
		ws.lsAlpha *= 0.5
		ws.step++
		n++
	}
	return n
}

// searchFailed handles a line search that ran out of trials: with a
// curvature history the quasi-Newton model went bad, so it is dropped and
// the search retried once along scaled steepest descent; without one the
// solve stalls.
func (ws *Workspace) searchFailed() {
	if len(ws.sHist) == 0 {
		ws.status = LineSearchStalled
		ws.phase = phaseDone
		return
	}
	ws.resetHistory()
	g, dir := ws.g, ws.dir
	for i := range dir {
		dir[i] = -g[i]
	}
	alpha0 := 1.0
	if gn := normInf(g); gn > 1 {
		alpha0 = 1 / gn
	}
	ws.startSearch(alpha0)
}

// accept moves the iterate to the accepted trial in ws.xNew with value
// fNew: its gradient, the curvature pair, then the next iteration.
func (ws *Workspace) accept(fNew float64) {
	ws.prob.Grad(ws.xNew, ws.gNew)
	// Update curvature history with s = xNew-x, y = gNew-g.
	ws.pushPair(ws.x, ws.xNew, ws.g, ws.gNew)
	copy(ws.x, ws.xNew)
	copy(ws.g, ws.gNew)
	ws.f = fNew
	ws.beginIteration()
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
