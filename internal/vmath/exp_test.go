package vmath

import (
	"math"
	"math/rand"
	"testing"
)

// checkExp4 runs Exp4 on x and fails unless every lane equals math.Exp of
// its input bit for bit (NaN payloads included).
func checkExp4(t *testing.T, x [4]float64) {
	t.Helper()
	got := x
	Exp4(&got)
	for i, xi := range x {
		want := math.Exp(xi)
		if math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("Exp4(%v) lane %d = %v (%#x), math.Exp = %v (%#x)",
				x, i, got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
		}
	}
}

// randomExpArg draws from a mix of scales: most of the kernel's range,
// the narrow band around zero where the polynomial dominates, arguments
// the rollout actually takes, and the declined region past ±700.
func randomExpArg(r *rand.Rand) float64 {
	switch r.Intn(4) {
	case 0:
		return (2*r.Float64() - 1) * 700
	case 1:
		return (2*r.Float64() - 1) * 1e-3
	case 2:
		return (2*r.Float64() - 1) * 40
	default:
		return (2*r.Float64() - 1) * 800
	}
}

// specialExpArgs are the boundaries of both paths: signed zeros, the
// kernel's ±700 limit and its neighbours, math.Exp's overflow threshold,
// arguments whose result is subnormal or underflows, infinities and NaN.
var specialExpArgs = []float64{
	0, math.Copysign(0, -1), 1, -1, 1e-300, -1e-300, math.SmallestNonzeroFloat64,
	700, -700, math.Nextafter(700, 0), math.Nextafter(-700, 0),
	math.Nextafter(700, 1000), math.Nextafter(-700, -1000),
	709.78, 7.09782712893384e+02, math.Nextafter(7.09782712893384e+02, 1000), 710, -709.78,
	-708.4, -720, -740, -745.1, -746, -1000,
	math.Ln2 / 2, -math.Ln2 / 2, 0.5 * math.Ln2 * 1.0000001,
	math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, -math.MaxFloat64,
}

func testExp4(t *testing.T, n int) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < n/4; i++ {
		var x [4]float64
		for j := range x {
			x[j] = randomExpArg(r)
		}
		checkExp4(t, x)
	}
	// Every special value in every lane, beside ordinary neighbours.
	for _, s := range specialExpArgs {
		for lane := 0; lane < 4; lane++ {
			x := [4]float64{0.5, -3, 12.25, -0.125}
			x[lane] = s
			checkExp4(t, x)
		}
	}
}

// TestExp4MatchesMathExp is the kernel's bit-identity contract: 16 M
// random inputs and every boundary value.
func TestExp4MatchesMathExp(t *testing.T) {
	if !Live() {
		t.Log("no AVX2+FMA on this host: checking the portable path only")
	}
	testExp4(t, 16<<20)
}

// TestExp4PortableMatchesMathExp forces the portable path, so its identity
// is covered on hosts where Exp4 would normally run the vector kernel.
func TestExp4PortableMatchesMathExp(t *testing.T) {
	saved := useAVX2FMA
	useAVX2FMA = false
	defer func() { useAVX2FMA = saved }()
	testExp4(t, 1<<20)
}

// TestExp4KernelDeclines pins the kernel's range gate: a call with any lane
// outside |x| < 700 is left untouched and reported, so Exp4 can fall back.
func TestExp4KernelDeclines(t *testing.T) {
	if !Live() {
		t.Skip("no AVX2+FMA on this host")
	}
	for _, s := range []float64{700, -700, 1e4, math.Inf(1), math.Inf(-1), math.NaN()} {
		x := [4]float64{1, 2, s, 3}
		y := x
		if exp4AVX(&y) {
			t.Fatalf("kernel accepted lane %v", s)
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				t.Fatalf("declined call modified lane %d: %v -> %v", i, x[i], y[i])
			}
		}
	}
	x := [4]float64{math.Nextafter(700, 0), -math.Nextafter(700, 0), 0, 1}
	if !exp4AVX(&x) {
		t.Fatal("kernel declined in-range lanes")
	}
}

var benchSink [4]float64

func BenchmarkExp4(b *testing.B) {
	x := [4]float64{-0.7, -12.5, 3.1, 0.02}
	for i := 0; i < b.N; i++ {
		y := x
		Exp4(&y)
		benchSink = y
	}
}

func BenchmarkExpScalar4(b *testing.B) {
	x := [4]float64{-0.7, -12.5, 3.1, 0.02}
	for i := 0; i < b.N; i++ {
		y := x
		exp4Scalar(&y)
		benchSink = y
	}
}

// TestUsePortableSwitchesOffAVX512 pins that UsePortable takes the
// AVX-512 liveness down with Live, so callers' eight-lane kernels fall
// back with the four-lane ones, and that it never reports AVX-512 where
// the AVX2/FMA kernels are not live.
func TestUsePortableSwitchesOffAVX512(t *testing.T) {
	UsePortable(true)
	if LiveAVX512() {
		t.Error("LiveAVX512 under UsePortable(true)")
	}
	UsePortable(false)
	if LiveAVX512() != hostAVX512 || hostAVX512 && !Live() {
		t.Errorf("LiveAVX512 %v, host AVX-512 %v, Live %v", LiveAVX512(), hostAVX512, Live())
	}
	t.Logf("AVX-512 F/DQ live: %v", LiveAVX512())
}
