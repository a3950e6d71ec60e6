package optimize

import (
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
	numeric            bool
}

func newBatchProblem(rng *rand.Rand) *batchProblem {
	dim := 2 + rng.Intn(9)
	bp := &batchProblem{dim: dim, numeric: rng.Intn(4) == 0}
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

func (bp *batchProblem) problem(batch bool, calls *int) *Problem {
	p := &Problem{Dim: bp.dim, Func: bp.f, Lower: bp.lo, Upper: bp.hi}
	if !bp.numeric {
		p.Grad = func(x, g []float64) { NumericGradient(bp.f, append([]float64(nil), x...), g) }
	}
	if batch {
		p.FuncBatch = func(xs [][]float64, fs []float64) {
			*calls++
			if len(xs) < 2 || len(xs) > BatchWidth || len(fs) != len(xs) {
				panic("FuncBatch called with a bad batch size")
			}
			for i, x := range xs {
				fs[i] = bp.f(x)
			}
		}
	}
	return p
}

// TestFuncBatchResultIdentical is the speculative line search's contract:
// over random box problems, Minimize with FuncBatch returns the same
// Result as without it — X bit for bit, F, Iterations, FuncEvals and
// Status — including runs whose line searches stall or stop moving.
func TestFuncBatchResultIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	statuses := map[Status]int{}
	batches := 0
	for trial := 0; trial < 600; trial++ {
		bp := newBatchProblem(rng)
		x0 := make([]float64, bp.dim)
		for i := range x0 {
			x0[i] = bp.lo[i] + (bp.hi[i]-bp.lo[i])*rng.Float64()
			if rng.Intn(5) == 0 {
				x0[i] = bp.lo[i]
			}
		}
		// Up to 100 backtracking steps, so some searches halve the step
		// until the trial no longer moves x (mid-batch, too).
		opts := &Options{MaxIterations: 1 + rng.Intn(60), MaxLineSearch: 1 + rng.Intn(100), Memory: 1 + rng.Intn(8)}
		var ws1, ws2 Workspace
		want, err := ws1.Minimize(bp.problem(false, nil), x0, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ws2.Minimize(bp.problem(true, &batches), x0, opts)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.F) != math.Float64bits(want.F) || got.Iterations != want.Iterations ||
			got.FuncEvals != want.FuncEvals || got.Status != want.Status {
			t.Fatalf("trial %d: batched {F %v it %d evals %d %v}, sequential {F %v it %d evals %d %v}",
				trial, got.F, got.Iterations, got.FuncEvals, got.Status, want.F, want.Iterations, want.FuncEvals, want.Status)
		}
		for i := range want.X {
			if math.Float64bits(got.X[i]) != math.Float64bits(want.X[i]) {
				t.Fatalf("trial %d: X[%d] batched %v, sequential %v", trial, i, got.X[i], want.X[i])
			}
		}
		statuses[want.Status]++
	}
	if batches == 0 {
		t.Fatal("no line search ever used FuncBatch")
	}
	for _, s := range []Status{Converged, MaxIterationsReached, LineSearchStalled} {
		if statuses[s] == 0 {
			t.Errorf("no trial ended %v", s)
		}
	}
}

// TestLineSearchNotMovingStalls pins the non-moving case: at a box corner
// with the descent direction pointing out of the box, the first projected
// trial does not move, so the search stalls after zero evaluations with or
// without FuncBatch.
func TestLineSearchNotMovingStalls(t *testing.T) {
	for _, batch := range []bool{false, true} {
		calls := 0
		p := &Problem{
			Dim:   2,
			Func:  func(x []float64) float64 { return x[0] + x[1] },
			Grad:  func(x, g []float64) { g[0], g[1] = 1, 1 },
			Lower: []float64{0, 0},
			Upper: []float64{1, 1},
		}
		if batch {
			p.FuncBatch = func(xs [][]float64, fs []float64) {
				calls++
				for i := range xs {
					fs[i] = p.Func(xs[i])
				}
			}
		}
		var ws Workspace
		ws.ensure(2, 1)
		f, ok := ws.lineSearch(p, []float64{0, 0}, 0, []float64{1, 1}, []float64{-1, -1}, make([]float64, 2), 25, 1)
		if ok || f != 0 || ws.evals != 0 || calls != 0 {
			t.Fatalf("batch=%v: lineSearch = (%v, %v) after %d evals, %d batch calls; want a stall after none", batch, f, ok, ws.evals, calls)
		}
	}
}
