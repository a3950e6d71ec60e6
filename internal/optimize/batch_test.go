package optimize

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// batchProblem is a random box-constrained test problem: a rotated,
// badly scaled quadratic plus optional terms that make line searches
// fail — a kink at the minimiser, a quantised (flat, noisy) landscape,
// or a linear pull into the box corner, where the projected step stops
// moving.
type batchProblem struct {
	dim                int
	a                  [][]float64
	c, lo, hi          []float64
	kink, quant, slope float64
}

func newBatchProblem(rng *rand.Rand) *batchProblem {
	dim := 2 + rng.Intn(9)
	bp := &batchProblem{dim: dim}
	bp.a = make([][]float64, dim)
	for i := range bp.a {
		bp.a[i] = make([]float64, dim)
		for j := range bp.a[i] {
			bp.a[i][j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(4)-1))
		}
	}
	bp.c = make([]float64, dim)
	bp.lo = make([]float64, dim)
	bp.hi = make([]float64, dim)
	for i := range bp.c {
		bp.c[i] = 3 * rng.NormFloat64()
		bp.lo[i] = -1 - rng.Float64()
		bp.hi[i] = 1 + rng.Float64()
	}
	switch rng.Intn(4) {
	case 0:
		bp.kink = 10 * rng.Float64()
	case 1:
		bp.quant = math.Pow(10, -float64(1+rng.Intn(3)))
	case 2:
		bp.slope = 1 + 10*rng.Float64()
	}
	return bp
}

func (bp *batchProblem) f(x []float64) float64 {
	var s float64
	for i := range bp.a {
		var r float64
		for j, aij := range bp.a[i] {
			r += aij * (x[j] - bp.c[j])
		}
		s += r * r
	}
	for i := range x {
		s += bp.kink*math.Abs(x[i]-bp.c[i]) + bp.slope*x[i]
	}
	if bp.quant > 0 {
		s = bp.quant * math.Round(s/bp.quant)
	}
	return s
}

func (bp *batchProblem) problem() *Problem {
	return fd(bp.f, &Problem{Dim: bp.dim, Lower: bp.lo, Upper: bp.hi})
}

// referenceMinimize is the one-evaluation-at-a-time projected L-BFGS loop
// the ask/tell machine replaced, kept as the reference it must reproduce:
// the same iteration, direction, step and restart rules, written as plain
// nested loops over the workspace's helpers.
func referenceMinimize(ws *Workspace, p *Problem, fn func([]float64) float64, x0 []float64, opts *Options) Result {
	o := opts.withDefaults()
	ws.ensure(p.Dim)
	x, g, dir, xNew, gNew := ws.x, ws.g, ws.dir, ws.xNew, ws.gNew
	copy(x, x0)
	p.project(x)
	ws.evals++
	f := fn(x)
	p.Grad(x, g)
	res := Result{}
	status := MaxIterationsReached
	lineSearch := func(alpha float64) (float64, bool) {
		gd := dot(g, dir)
		t := ws.trials[0]
		for step := 0; step < maxLineSearch; step++ {
			sg, moved := projectedTrial(p, x, g, dir, alpha, t)
			if !moved {
				break
			}
			ws.evals++
			if fNew := fn(t); armijo(f, fNew, sg, alpha, gd) {
				copy(xNew, t)
				return fNew, true
			}
			alpha *= 0.5
		}
		return f, false
	}
	steepest := func() float64 {
		for i := range dir {
			dir[i] = -g[i]
		}
		if gn := normInf(g); gn > 1 {
			return 1 / gn
		}
		return 1
	}
	for iter := 0; iter < o.MaxIterations; iter++ {
		res.Iterations = iter + 1
		if projectedGradNorm(p, x, g) < o.Tolerance {
			status = Converged
			break
		}
		twoLoop(dir, g, ws.sHist, ws.yHist, ws.rho, ws.alpha[:])
		for i := range dir {
			dir[i] = -dir[i]
		}
		if dot(dir, g) >= 0 {
			for i := range dir {
				dir[i] = -g[i]
			}
		}
		alpha0 := 1.0
		if len(ws.sHist) == 0 {
			if gn := normInf(g); gn > 1 {
				alpha0 = 1 / gn
			}
		}
		fNew, ok := lineSearch(alpha0)
		if !ok && len(ws.sHist) > 0 {
			ws.resetHistory()
			fNew, ok = lineSearch(steepest())
		}
		if !ok {
			status = LineSearchStalled
			break
		}
		p.Grad(xNew, gNew)
		ws.pushPair(x, xNew, g, gNew)
		copy(x, xNew)
		copy(g, gNew)
		f = fNew
	}
	res.X, res.F, res.FuncEvals, res.Status = x, f, ws.evals, status
	return res
}

// minimize is the ask/tell loop that evaluates the objective fn one point
// at a time: the way a solve runs when nothing batches its evaluations.
// Every buffer comes from ws, so a warm workspace solves without
// allocating; Result.X aliases ws and is valid until its next solve.
func minimize(ws *Workspace, p *Problem, fn func([]float64) float64, x0 []float64, opts *Options) (Result, error) {
	if err := ws.Start(p, x0, opts); err != nil {
		return Result{}, err
	}
	var f [1]float64
	for {
		pts := ws.Ask(1)
		if len(pts) == 0 {
			return ws.Result(), nil
		}
		f[0] = fn(pts[0])
		ws.Tell(f[:])
	}
}

// askTell drives ws through p at the given Ask budget, evaluating fn at
// every point it hands out, and counts the Asks that returned more than
// one.
func askTell(ws *Workspace, p *Problem, fn func([]float64) float64, x0 []float64, opts *Options, budget int, wide *int) (Result, error) {
	if err := ws.Start(p, x0, opts); err != nil {
		return Result{}, err
	}
	var fs [BatchWidth]float64
	for {
		pts := ws.Ask(budget)
		if len(pts) == 0 {
			return ws.Result(), nil
		}
		if len(pts) > min(budget, BatchWidth) {
			panic("Ask returned more points than its budget")
		}
		if len(pts) > 1 {
			*wide++
		}
		for i, x := range pts {
			fs[i] = fn(x)
		}
		ws.Tell(fs[:len(pts)])
	}
}

// TestAskTellResultIdentical is the ask/tell machine's contract: over
// random box problems, minimize and the ask/tell loop at budgets 1, 4 and
// 8 return the Result of the one-at-a-time reference loop — X bit for
// bit, F, Iterations, FuncEvals and Status — including runs whose line
// searches stall or stop moving.
func TestAskTellResultIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	statuses := map[Status]int{}
	wide := 0
	same := func(trial int, what string, got, want Result) {
		t.Helper()
		if math.Float64bits(got.F) != math.Float64bits(want.F) || got.Iterations != want.Iterations ||
			got.FuncEvals != want.FuncEvals || got.Status != want.Status {
			t.Fatalf("trial %d %s: {F %v it %d evals %d %v}, reference {F %v it %d evals %d %v}",
				trial, what, got.F, got.Iterations, got.FuncEvals, got.Status, want.F, want.Iterations, want.FuncEvals, want.Status)
		}
		for i := range want.X {
			if math.Float64bits(got.X[i]) != math.Float64bits(want.X[i]) {
				t.Fatalf("trial %d %s: X[%d] %v, reference %v", trial, what, i, got.X[i], want.X[i])
			}
		}
	}
	for trial := 0; trial < 600; trial++ {
		bp := newBatchProblem(rng)
		x0 := make([]float64, bp.dim)
		for i := range x0 {
			x0[i] = bp.lo[i] + (bp.hi[i]-bp.lo[i])*rng.Float64()
			if rng.Intn(5) == 0 {
				x0[i] = bp.lo[i]
			}
		}
		// The kinked and quantised problems still drive some searches to
		// a trial that no longer moves x within maxLineSearch halvings.
		opts := &Options{MaxIterations: 1 + rng.Intn(60)}
		var ref Workspace
		want := referenceMinimize(&ref, bp.problem(), bp.f, x0, opts)
		var ws Workspace
		got, err := minimize(&ws, bp.problem(), bp.f, x0, opts)
		if err != nil {
			t.Fatal(err)
		}
		same(trial, "minimize", got, want)
		for _, budget := range []int{1, 4, 8} {
			got, err := askTell(&ws, bp.problem(), bp.f, x0, opts, budget, &wide)
			if err != nil {
				t.Fatal(err)
			}
			same(trial, fmt.Sprintf("budget %d", budget), got, want)
		}
		statuses[want.Status]++
	}
	if wide == 0 {
		t.Fatal("no Ask ever returned more than one point")
	}
	for _, s := range []Status{Converged, MaxIterationsReached, LineSearchStalled} {
		if statuses[s] == 0 {
			t.Errorf("no trial ended %v", s)
		}
	}
}

// TestLineSearchNotMovingStalls pins the non-moving case: far from the
// origin a steep linear objective's first trial step, 1/‖g‖ along −g, is
// below half an ulp of x, so the trial does not move x and the search
// stalls after the start point without another evaluation, at any budget.
func TestLineSearchNotMovingStalls(t *testing.T) {
	for _, budget := range []int{1, BatchWidth} {
		calls := 0
		f := func(x []float64) float64 { calls++; return 1e3 * x[0] }
		p := &Problem{
			Dim:  1,
			Grad: func(x, g []float64) { g[0] = 1e3 },
		}
		var ws Workspace
		if err := ws.Start(p, []float64{1e17}, nil); err != nil {
			t.Fatal(err)
		}
		pts := ws.Ask(budget)
		if len(pts) != 1 {
			t.Fatalf("budget %d: first Ask returned %d points, want the start point", budget, len(pts))
		}
		ws.Tell([]float64{f(pts[0])})
		if pts := ws.Ask(budget); pts != nil || !ws.Done() {
			t.Fatalf("budget %d: Ask returned %d points (done %v), want none", budget, len(pts), ws.Done())
		}
		if res := ws.Result(); res.Status != LineSearchStalled || res.FuncEvals != 1 || calls != 1 || res.X[0] != 1e17 {
			t.Fatalf("budget %d: %+v after %d calls; want a stall after the start point", budget, res, calls)
		}
	}
}
