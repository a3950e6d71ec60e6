package optimize

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func quadratic(center []float64) func([]float64) float64 {
	return func(x []float64) float64 {
		var s float64
		for i := range x {
			d := x[i] - center[i]
			s += d * d
		}
		return s
	}
}

// numericGradient writes a central-difference approximation of the
// gradient of f at x into grad. x is used as scratch but restored before
// returning.
func numericGradient(f func([]float64) float64, x, grad []float64) {
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

// fdGrad is a Problem.Grad of central differences of f, over its own
// scratch so a warm solve stays allocation-free.
func fdGrad(f func([]float64) float64, dim int) func(x, grad []float64) {
	scratch := make([]float64, dim)
	return func(x, grad []float64) {
		copy(scratch, x)
		numericGradient(f, scratch, grad)
	}
}

// fd fills p.Grad with central differences of p.Func.
func fd(p *Problem) *Problem {
	p.Grad = fdGrad(p.Func, p.Dim)
	return p
}

func TestMinimizeQuadratic(t *testing.T) {
	center := []float64{1, -2, 3}
	p := fd(&Problem{Dim: 3, Func: quadratic(center)})
	r, err := minimize(new(Workspace), p, []float64{0, 0, 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Converged {
		t.Fatalf("status = %v", r.Status)
	}
	for i := range center {
		if math.Abs(r.X[i]-center[i]) > 1e-5 {
			t.Errorf("X[%d] = %v, want %v", i, r.X[i], center[i])
		}
	}
}

func TestMinimizeWithAnalyticGradient(t *testing.T) {
	center := []float64{5, 5}
	p := &Problem{
		Dim:  2,
		Func: quadratic(center),
		Grad: func(x, g []float64) {
			for i := range x {
				g[i] = 2 * (x[i] - center[i])
			}
		},
	}
	r, err := minimize(new(Workspace), p, []float64{-3, 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.F > 1e-10 {
		t.Errorf("F = %v, want ~0", r.F)
	}
}

func TestMinimizeRosenbrock(t *testing.T) {
	// The classic banana function; minimum at (1, 1).
	p := fd(&Problem{
		Dim: 2,
		Func: func(x []float64) float64 {
			a := 1 - x[0]
			b := x[1] - x[0]*x[0]
			return a*a + 100*b*b
		},
	})
	r, err := minimize(new(Workspace), p, []float64{-1.2, 1}, &Options{MaxIterations: 500, Tolerance: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.X[0]-1) > 1e-4 || math.Abs(r.X[1]-1) > 1e-4 {
		t.Errorf("Rosenbrock minimiser = %v (f=%v, status=%v)", r.X, r.F, r.Status)
	}
}

func TestMinimizeBoxActiveConstraint(t *testing.T) {
	// Unconstrained minimum at (3, 3); the box caps it at (1, 1).
	p := fd(&Problem{
		Dim:   2,
		Func:  quadratic([]float64{3, 3}),
		Lower: []float64{-1, -1},
		Upper: []float64{1, 1},
	})
	r, err := minimize(new(Workspace), p, []float64{0, 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.X[0]-1) > 1e-6 || math.Abs(r.X[1]-1) > 1e-6 {
		t.Errorf("box-constrained minimiser = %v, want (1,1)", r.X)
	}
}

func TestMinimizeStartOutsideBoxIsProjected(t *testing.T) {
	p := fd(&Problem{
		Dim:   1,
		Func:  quadratic([]float64{0}),
		Lower: []float64{-2},
		Upper: []float64{2},
	})
	r, err := minimize(new(Workspace), p, []float64{50}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.X[0]) > 1e-6 {
		t.Errorf("X = %v, want 0", r.X)
	}
}

func TestMinimizeMixedBounds(t *testing.T) {
	// Only a lower bound; minimum of (x-(-5))² at the bound -1.
	p := fd(&Problem{
		Dim:   1,
		Func:  quadratic([]float64{-5}),
		Lower: []float64{-1},
	})
	r, err := minimize(new(Workspace), p, []float64{4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.X[0]-(-1)) > 1e-6 {
		t.Errorf("X = %v, want -1", r.X)
	}
}

func TestMinimizeValidation(t *testing.T) {
	if _, err := minimize(new(Workspace), &Problem{Dim: 2, Func: nil}, []float64{0, 0}, nil); err == nil {
		t.Error("nil Func accepted")
	}
	if _, err := minimize(new(Workspace), &Problem{Dim: 1, Func: quadratic([]float64{0})}, []float64{0}, nil); err == nil {
		t.Error("nil Grad accepted")
	}
	f := quadratic([]float64{0})
	if _, err := minimize(new(Workspace), fd(&Problem{Dim: 2, Func: f}), []float64{0}, nil); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if _, err := minimize(new(Workspace), fd(&Problem{Dim: 1, Func: f, Lower: []float64{1}, Upper: []float64{0}}), []float64{0}, nil); err == nil {
		t.Error("inverted bounds accepted")
	}
	if _, err := minimize(new(Workspace), fd(&Problem{Dim: 0, Func: f}), nil, nil); err == nil {
		t.Error("zero dim accepted")
	}
}

func TestMinimizeIllConditionedQuadratic(t *testing.T) {
	// f = x² + 1000 y²: steep valley, tests curvature adaptation.
	p := fd(&Problem{
		Dim: 2,
		Func: func(x []float64) float64 {
			return x[0]*x[0] + 1000*x[1]*x[1]
		},
	})
	r, err := minimize(new(Workspace), p, []float64{1, 1}, &Options{MaxIterations: 300})
	if err != nil {
		t.Fatal(err)
	}
	if r.F > 1e-8 {
		t.Errorf("F = %v, want ~0 (status %v after %d iters)", r.F, r.Status, r.Iterations)
	}
}

func TestMinimizeQuadraticRandomProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		center := make([]float64, n)
		x0 := make([]float64, n)
		for i := range center {
			center[i] = rng.NormFloat64() * 5
			x0[i] = rng.NormFloat64() * 5
		}
		p := fd(&Problem{Dim: n, Func: quadratic(center)})
		r, err := minimize(new(Workspace), p, x0, nil)
		if err != nil {
			return false
		}
		for i := range center {
			if math.Abs(r.X[i]-center[i]) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestNumericGradientMatchesAnalytic(t *testing.T) {
	f := func(x []float64) float64 {
		return math.Sin(x[0]) + x[1]*x[1]*x[0] + math.Exp(0.1*x[2])
	}
	x := []float64{0.7, -1.3, 2.1}
	grad := make([]float64, 3)
	numericGradient(f, x, grad)
	want := []float64{
		math.Cos(x[0]) + x[1]*x[1],
		2 * x[1] * x[0],
		0.1 * math.Exp(0.1*x[2]),
	}
	for i := range want {
		if math.Abs(grad[i]-want[i]) > 1e-6*(1+math.Abs(want[i])) {
			t.Errorf("grad[%d] = %v, want %v", i, grad[i], want[i])
		}
	}
	// x must be restored.
	if x[0] != 0.7 || x[1] != -1.3 || x[2] != 2.1 {
		t.Errorf("numericGradient mutated x: %v", x)
	}
}

func TestStatusString(t *testing.T) {
	if Converged.String() != "converged" {
		t.Error(Converged.String())
	}
	if MaxIterationsReached.String() != "max iterations reached" {
		t.Error(MaxIterationsReached.String())
	}
	if LineSearchStalled.String() != "line search stalled" {
		t.Error(LineSearchStalled.String())
	}
	if Status(42).String() != "Status(42)" {
		t.Error(Status(42).String())
	}
}

func TestMinimizeDoesNotMutateX0(t *testing.T) {
	x0 := []float64{3, 3}
	p := fd(&Problem{Dim: 2, Func: quadratic([]float64{0, 0})})
	if _, err := minimize(new(Workspace), p, x0, nil); err != nil {
		t.Fatal(err)
	}
	if x0[0] != 3 || x0[1] != 3 {
		t.Errorf("x0 mutated: %v", x0)
	}
}
