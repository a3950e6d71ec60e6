package vmath

import (
	"math"
	"math/rand"
	"testing"
)

// checkLog4 runs Log4 on x and fails unless every lane equals math.Log of
// its input bit for bit (NaN payloads included).
func checkLog4(t *testing.T, x [4]float64) {
	t.Helper()
	got := x
	Log4(&got)
	for i, xi := range x {
		want := math.Log(xi)
		if math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("Log4(%v) lane %d = %v (%#x), math.Log = %v (%#x)",
				x, i, got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
		}
	}
}

// hSqrt2 is math.archLog's √2/2 constant: a mantissa at or below its
// mantissa folds into the next lower binade.
var hSqrt2 = math.Float64frombits(0x3FE6A09E667F3BCD)

// randomLogArg draws from a mix: any positive normal bit pattern, the
// band around 1 where f is tiny, the mantissas either side of the √2/2
// fold, the currents the aging law takes, and any bit pattern at all
// (negatives, subnormals, infinities and NaNs, which the kernel declines).
func randomLogArg(r *rand.Rand) float64 {
	switch r.Intn(5) {
	case 0:
		return math.Float64frombits(0x0010000000000000 + r.Uint64()%(0x7FF0000000000000-0x0010000000000000))
	case 1:
		return 1 + (2*r.Float64()-1)*1e-6
	case 2:
		m := math.Float64bits(hSqrt2) + uint64(r.Intn(65)) - 32
		return math.Ldexp(math.Float64frombits(m), r.Intn(2000)-1000)
	case 3:
		return math.Ldexp(r.Float64(), r.Intn(30)-10)
	default:
		return math.Float64frombits(r.Uint64())
	}
}

// specialLogArgs are the boundaries of both paths: signed zeros, the
// subnormals, MinNormal and its neighbours, the √2/2 fold's mantissa
// edge, powers of two, MaxFloat64, infinities, NaN and negatives.
var specialLogArgs = []float64{
	0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000FFFFFFFFFFFFF), -math.Float64frombits(0x000FFFFFFFFFFFFF),
	0x1p-1022, math.Nextafter(0x1p-1022, 1), math.Nextafter(0x1p-1022, 0),
	hSqrt2, math.Nextafter(hSqrt2, 0), math.Nextafter(hSqrt2, 1), 2 * hSqrt2, 0x1p-600 * hSqrt2, 0x1p600 * hSqrt2,
	1, 2, 0.5, 0x1p-1000, 0x1p1000, 0x1p1023, math.Nextafter(1, 0), math.Nextafter(1, 2),
	math.E, 10, math.MaxFloat64, math.Nextafter(math.MaxFloat64, 0),
	math.Inf(1), math.Inf(-1), math.NaN(), -1, -0x1p-1022, -math.MaxFloat64,
}

func testLog4(t *testing.T, n int) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < n/4; i++ {
		var x [4]float64
		for j := range x {
			x[j] = randomLogArg(r)
		}
		checkLog4(t, x)
	}
	// Every special value in every lane, beside ordinary neighbours.
	for _, s := range specialLogArgs {
		for lane := 0; lane < 4; lane++ {
			x := [4]float64{0.5, 3, 12.25, 0.125}
			x[lane] = s
			checkLog4(t, x)
		}
	}
}

// TestLog4MatchesMathLog is the kernel's bit-identity contract: 16 M
// random inputs and every boundary value.
func TestLog4MatchesMathLog(t *testing.T) {
	if !Live() {
		t.Log("no AVX2+FMA on this host: checking the portable path only")
	}
	testLog4(t, 16<<20)
}

// TestLog4PortableMatchesMathLog forces the portable path, so its identity
// is covered on hosts where Log4 would normally run the vector kernel.
func TestLog4PortableMatchesMathLog(t *testing.T) {
	UsePortable(true)
	defer UsePortable(false)
	testLog4(t, 1<<20)
}

// TestLog4KernelDeclines pins the kernel's range gate: a call with any
// lane outside [MinNormal, MaxFloat64] is left untouched and reported, so
// Log4 can fall back.
func TestLog4KernelDeclines(t *testing.T) {
	if !Live() {
		t.Skip("no AVX2+FMA on this host")
	}
	for _, s := range []float64{0, math.Copysign(0, -1), math.Nextafter(0x1p-1022, 0), -1, math.Inf(1), math.Inf(-1), math.NaN()} {
		x := [4]float64{1, 2, s, 3}
		y := x
		if log4AVX(&y) {
			t.Fatalf("kernel accepted lane %v", s)
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				t.Fatalf("declined call modified lane %d: %v -> %v", i, x[i], y[i])
			}
		}
	}
	x := [4]float64{0x1p-1022, math.MaxFloat64, hSqrt2, 1}
	if !log4AVX(&x) {
		t.Fatal("kernel declined in-range lanes")
	}
}

// FuzzExp4 checks Exp4 against four math.Exp calls, NaN bits included.
// The seeds are the boundaries of TestExp4MatchesMathExp, so plain
// go test runs them as a corpus.
func FuzzExp4(f *testing.F) {
	for i, s := range specialExpArgs {
		f.Add(s, specialExpArgs[(i+1)%len(specialExpArgs)], -3.0, 0.5)
	}
	f.Fuzz(func(t *testing.T, a, b, c, d float64) {
		checkExp4(t, [4]float64{a, b, c, d})
	})
}

// FuzzLog4 checks Log4 against four math.Log calls, NaN bits included.
func FuzzLog4(f *testing.F) {
	for i, s := range specialLogArgs {
		f.Add(s, specialLogArgs[(i+1)%len(specialLogArgs)], 3.0, 0.125)
	}
	f.Fuzz(func(t *testing.T, a, b, c, d float64) {
		checkLog4(t, [4]float64{a, b, c, d})
	})
}

func BenchmarkLog4(b *testing.B) {
	x := [4]float64{0.7, 12.5, 3.1, 0.02}
	for i := 0; i < b.N; i++ {
		y := x
		Log4(&y)
		benchSink = y
	}
}

func BenchmarkLogScalar4(b *testing.B) {
	x := [4]float64{0.7, 12.5, 3.1, 0.02}
	for i := 0; i < b.N; i++ {
		y := x
		log4Scalar(&y)
		benchSink = y
	}
}
