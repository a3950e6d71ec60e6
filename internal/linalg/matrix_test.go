package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// matrixFromRows builds a matrix from equal-length row slices.
func matrixFromRows(rows [][]float64) *Matrix {
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		for j, x := range r {
			m.Set(i, j, x)
		}
	}
	return m
}

// mulVec returns m·v, for residual checks.
func mulVec(m *Matrix, v []float64) []float64 {
	out := make([]float64, m.rows)
	for i := range out {
		for j, x := range v {
			out[i] += m.data[i*m.cols+j] * x
		}
	}
	return out
}

// randomSystem builds a random diagonally dominant n×n matrix (nonsingular)
// and a random right-hand side from the given source.
func randomSystem(rng *rand.Rand, n int) (*Matrix, []float64) {
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			x := rng.NormFloat64()
			if i == j {
				x += float64(n)
			}
			a.Set(i, j, x)
		}
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return a, b
}

// solveFresh factors a into a new LUFactor and solves a·x = b.
func solveFresh(a *Matrix, b []float64) ([]float64, error) {
	var f LUFactor
	if err := f.Factorize(a); err != nil {
		return nil, err
	}
	x := make([]float64, len(b))
	f.SolveTo(x, b)
	return x, nil
}

func TestMatrixBasicAccess(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, 7)
	want := []float64{1, 0, 0, 0, 0, 7}
	for i, x := range want {
		if m.data[i] != x {
			t.Fatalf("matrix contents %v, want %v", m.data, want)
		}
	}
	m.Zero()
	for i, x := range m.data {
		if x != 0 {
			t.Fatalf("after Zero, element %d = %v", i, x)
		}
	}
}

func TestMatrixSetPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMatrix(2, 2).Set(2, 0, 1)
}

func TestLUSolveKnownSystem(t *testing.T) {
	a := matrixFromRows([][]float64{
		{2, 1, 1},
		{4, -6, 0},
		{-2, 7, 2},
	})
	b := []float64{5, -2, 9}
	x, err := solveFresh(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Verify A·x = b.
	ax := mulVec(a, x)
	for i := range b {
		if math.Abs(ax[i]-b[i]) > 1e-10 {
			t.Errorf("A·x[%d] = %v, want %v", i, ax[i], b[i])
		}
	}
}

func TestLUSingular(t *testing.T) {
	a := matrixFromRows([][]float64{{1, 2}, {2, 4}})
	var f LUFactor
	if err := f.Factorize(a); err != ErrSingular {
		t.Errorf("Factorize of singular matrix: err = %v, want ErrSingular", err)
	}
}

func TestLURandomRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		a, want := randomSystem(rng, n)
		got, err := solveFresh(a, mulVec(a, want))
		if err != nil {
			return false
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-8*(1+math.Abs(want[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestSolveToMatchesSolve: a reused LUFactor must reproduce a fresh
// factor's solve bit-for-bit on random nonsingular systems of varying
// order, and SolveTo must overwrite dst rather than accumulate into it.
func TestSolveToMatchesSolve(t *testing.T) {
	var f LUFactor // reused across all property iterations
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		a, b := randomSystem(rng, n)
		want, err := solveFresh(a, b)
		if err != nil {
			return false
		}
		if err := f.Factorize(a); err != nil {
			return false
		}
		got := make([]float64, n)
		for i := range got {
			got[i] = 1e300
		}
		f.SolveTo(got, b)
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestLUFactorReusesStorage: refactorising with the same dimension must not
// reallocate the factor's backing storage, and refactorising after a larger
// system must still produce correct results.
func TestLUFactorReusesStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var f LUFactor
	a, _ := randomSystem(rng, 5)
	if err := f.Factorize(a); err != nil {
		t.Fatal(err)
	}
	lu0 := &f.lu.data[0]
	piv0 := &f.perm[0]
	x := make([]float64, 5)
	for round := 0; round < 3; round++ {
		a2, b2 := randomSystem(rng, 5)
		if err := f.Factorize(a2); err != nil {
			t.Fatal(err)
		}
		if &f.lu.data[0] != lu0 || &f.perm[0] != piv0 {
			t.Fatalf("round %d: Factorize reallocated same-dimension storage", round)
		}
		f.SolveTo(x, b2)
		want, err := solveFresh(a2, b2)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if x[i] != want[i] {
				t.Fatalf("round %d: reused SolveTo diverged from a fresh factor at %d", round, i)
			}
		}
	}
	// Dimension change: correctness must survive a grow.
	a3, b3 := randomSystem(rng, 8)
	if err := f.Factorize(a3); err != nil {
		t.Fatal(err)
	}
	x3 := make([]float64, 8)
	f.SolveTo(x3, b3)
	want, err := solveFresh(a3, b3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if x3[i] != want[i] {
			t.Fatalf("after grow: SolveTo diverged from a fresh factor at %d", i)
		}
	}
}

// TestFactorizeSolveToSteadyStateAllocsZero: the thermal stepper's inner
// pattern — Zero, refill, Factorize, SolveTo on owned storage — must not
// allocate once warm.
func TestFactorizeSolveToSteadyStateAllocsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a, b := randomSystem(rng, 6)
	var f LUFactor
	x := make([]float64, 6)
	if err := f.Factorize(a); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		a.Zero()
		for i := 0; i < 6; i++ {
			for j := 0; j < 6; j++ {
				v := float64(i*6 + j)
				if i == j {
					v += 100
				}
				a.Set(i, j, v)
			}
		}
		if err := f.Factorize(a); err != nil {
			t.Fatal(err)
		}
		f.SolveTo(x, b)
	})
	if allocs > 0 {
		t.Errorf("warm Factorize+SolveTo allocated %.1f times per run, want 0", allocs)
	}
}
