package optimize

import (
	"testing"
)

// rosenbrockProblem returns the classic banana function with box bounds and
// either its analytic gradient or central differences.
func rosenbrockProblem(analytic bool) *Problem {
	p := &Problem{
		Dim: 2,
		Func: func(x []float64) float64 {
			a := 1 - x[0]
			b := x[1] - x[0]*x[0]
			return a*a + 100*b*b
		},
		Lower: []float64{-2, -2},
		Upper: []float64{2, 2},
	}
	if analytic {
		p.Grad = func(x, g []float64) {
			a := 1 - x[0]
			b := x[1] - x[0]*x[0]
			g[0] = -2*a - 400*b*x[0]
			g[1] = 200 * b
		}
	} else {
		fd(p)
	}
	return p
}

func TestWorkspaceMinimizeMatchesMinimize(t *testing.T) {
	// A reused workspace must produce bit-identical results to a fresh one,
	// on both the analytic and finite-difference paths, and stay identical
	// across repeated reuse.
	for _, analytic := range []bool{false, true} {
		p := rosenbrockProblem(analytic)
		x0 := []float64{-1.2, 1}
		want, err := minimize(new(Workspace), p, x0, nil)
		if err != nil {
			t.Fatal(err)
		}
		ws := new(Workspace)
		for round := 0; round < 3; round++ {
			got, err := minimize(ws, p, x0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got.F != want.F || got.Iterations != want.Iterations ||
				got.FuncEvals != want.FuncEvals || got.Status != want.Status {
				t.Fatalf("analytic=%v round %d: got %+v want %+v", analytic, round, got, want)
			}
			for i := range want.X {
				if got.X[i] != want.X[i] {
					t.Fatalf("analytic=%v round %d: X[%d] = %v, want %v", analytic, round, i, got.X[i], want.X[i])
				}
			}
		}
	}
}

func TestWorkspaceMinimizeHandlesDimensionChange(t *testing.T) {
	// A workspace reused across problems of different dimensions must match
	// a fresh one on each (buffers are views over grow-only backing).
	ws := new(Workspace)
	for _, dim := range []int{5, 2, 8, 3} {
		center := make([]float64, dim)
		for i := range center {
			center[i] = float64(i) - 1.5
		}
		p := fd(&Problem{Dim: dim, Func: quadratic(center)})
		x0 := make([]float64, dim)
		want, err := minimize(new(Workspace), p, x0, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := minimize(ws, p, x0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.F != want.F || got.FuncEvals != want.FuncEvals {
			t.Fatalf("dim %d: got %+v want %+v", dim, got, want)
		}
	}
}

func TestWorkspaceMinimizeSteadyStateAllocsZero(t *testing.T) {
	// A warm workspace performs a whole minimisation without allocating,
	// on both gradient paths.
	for _, analytic := range []bool{false, true} {
		p := rosenbrockProblem(analytic)
		x0 := []float64{-1.2, 1}
		ws := new(Workspace)
		if _, err := minimize(ws, p, x0, nil); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := minimize(ws, p, x0, nil); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Errorf("analytic=%v: warm workspace solve allocated %.1f times per run, want 0", analytic, allocs)
		}
	}
}

func TestWorkspaceResultAliasesWorkspace(t *testing.T) {
	// Documented contract: Result.X is only valid until the workspace's
	// next solve — it aliases ws.x.
	ws := new(Workspace)
	p := rosenbrockProblem(true)
	res, err := minimize(ws, p, []float64{-1.2, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if &res.X[0] != &ws.x[0] {
		t.Error("Result.X does not alias the workspace iterate buffer")
	}
}

func TestWorkspaceHistoryRingReusesRows(t *testing.T) {
	// Force enough iterations to wrap the L-BFGS ring (Memory defaults to 8
	// on a 2-dim Rosenbrock run with many iterations) and verify the row
	// storage is drawn from the preallocated pools, not fresh allocations.
	ws := new(Workspace)
	p := rosenbrockProblem(true)
	if _, err := minimize(ws, p, []float64{-1.2, 1}, nil); err != nil {
		t.Fatal(err)
	}
	if len(ws.sHist) == 0 {
		t.Fatal("expected non-empty curvature history after a Rosenbrock solve")
	}
	inPool := func(row []float64, pool [][]float64) bool {
		for _, p := range pool {
			if &p[0] == &row[0] {
				return true
			}
		}
		return false
	}
	for i := range ws.sHist {
		if !inPool(ws.sHist[i], ws.sPool) {
			t.Errorf("sHist[%d] is not backed by the workspace pool", i)
		}
		if !inPool(ws.yHist[i], ws.yPool) {
			t.Errorf("yHist[%d] is not backed by the workspace pool", i)
		}
	}
}
