package battery

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core/floats"
	"repro/internal/units"
	"repro/internal/vmath"
)

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// powSpecials are the bases where math.Pow leaves its main algorithm or
// the direct form would round differently: zeros, subnormals, the edges
// of the normal range, infinities and NaN.
var powSpecials = []float64{
	0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 0x1p-1060, 0x1p-1023,
	math.Nextafter(0x1p-1022, 0), 0x1p-1022, 0x1p-1000, 0x1p-900, 1e-300, 1e-9,
	0.5, 1, 2, 3, 15, 1e9, 1e300, 0x1p900, 0x1p1000, math.MaxFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(), -1, -3, -0x1p-1022,
}

// TestPowMatchesMathPow is Pow's bit-identity property against math.Pow,
// for both presets' aging exponents and for exponents that take the
// fallback, over log-uniform bases spanning every float64 magnitude,
// bases in the cell-current range, and the special values.
func TestPowMatchesMathPow(t *testing.T) {
	exps := []float64{NCR18650A().L[2], LFP26650().L[2], 1, 1.5, 1.7, 2.2, 0.5, 0.3, -1.2, 0, math.Inf(1), math.NaN()}
	r := rand.New(rand.NewSource(7))
	for _, y := range exps {
		pw := NewPow(y)
		check := func(x float64) {
			if got, want := pw.At(x), math.Pow(x, y); !sameBits(got, want) {
				t.Fatalf("Pow(%v).At(%v) = %v (%#x), math.Pow = %v (%#x)",
					y, x, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		for _, x := range powSpecials {
			check(x)
		}
		for i := 0; i < 1<<20; i++ {
			check(math.Ldexp(1+r.Float64(), r.Intn(2100)-1075))
			check(20 * r.Float64())
		}
	}
}

// TestPowLogSplitMatchesExpArg pins the batched form the rollout uses:
// LogArg through vmath.Log4, four bases a call, then ExpArgFromLog, equals
// ExpArg bit for bit, for the presets' exponents and a fallback one.
func TestPowLogSplitMatchesExpArg(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	xs := append([]float64(nil), powSpecials...)
	for i := 0; i < 1<<16; i++ {
		xs = append(xs, math.Ldexp(1+r.Float64(), r.Intn(2100)-1075), 20*r.Float64())
	}
	for _, y := range []float64{NCR18650A().L[2], LFP26650().L[2], 2.3} {
		pw := NewPow(y)
		for i := 0; i+4 <= len(xs); i += 4 {
			var lx [4]float64
			for j := range lx {
				lx[j] = pw.LogArg(xs[i+j])
			}
			vmath.Log4(&lx)
			for j, x := range xs[i : i+4] {
				if got, want := pw.ExpArgFromLog(x, lx[j]), pw.ExpArg(x); !sameBits(got, want) {
					t.Fatalf("Pow(%v) at %v: split %v, ExpArg %v", y, x, got, want)
				}
			}
		}
	}
}

// TestAgingPresetsTakeFastPath pins that both presets' exponents use the
// direct form; otherwise the fast path would silently never run.
func TestAgingPresetsTakeFastPath(t *testing.T) {
	for _, p := range []CellParams{NCR18650A(), LFP26650()} {
		if !NewPow(p.L[2]).fast {
			t.Errorf("aging exponent %v falls back to math.Pow", p.L[2])
		}
	}
}

// Reference forms of Eqs. 2, 3 and 5 and their derivatives exactly as
// written before the split into ExpArg/FromExp parts.
func refOCV(p *CellParams, z float64) float64 {
	z = units.Clamp(z, 0, 1)
	z2 := z * z
	return p.V[0]*math.Exp(p.V[1]*z) + p.V[2]*z2*z2 + p.V[3]*z2*z + p.V[4]*z2 + p.V[5]*z + p.V[6]
}

func refResistance(p *CellParams, z, T float64) float64 {
	z = units.Clamp(z, 0, 1)
	r25 := p.R[0]*math.Exp(p.R[1]*z) + p.R[2]
	if floats.Zero(p.Kr) || T <= 0 {
		return r25
	}
	return r25 * math.Exp(p.Kr*(1/T-1/p.RefTemp))
}

func refAgingRate(p *CellParams, i, T float64) float64 {
	ai := math.Abs(i)
	if floats.Zero(ai) || T <= 0 {
		return 0
	}
	return p.L[0] * math.Exp(-p.L[1]/(units.GasConstant*T)) * math.Pow(ai, p.L[2])
}

func refOCVPrime(p *CellParams, z float64) float64 {
	z = units.Clamp(z, 0, 1)
	z2 := z * z
	return p.V[0]*p.V[1]*math.Exp(p.V[1]*z) +
		4*p.V[2]*z2*z + 3*p.V[3]*z2 + 2*p.V[4]*z + p.V[5]
}

func refResistancePrime(p *CellParams, z, T float64) float64 {
	z = units.Clamp(z, 0, 1)
	d := p.R[0] * p.R[1] * math.Exp(p.R[1]*z)
	if floats.Zero(p.Kr) || T <= 0 {
		return d
	}
	return d * math.Exp(p.Kr*(1/T-1/p.RefTemp))
}

// TestSplitFormsMatchReference pins the split cell formulas to the
// expressions they replaced, bit for bit, for both presets and a cell
// without a temperature correction, over SoC inside and outside [0, 1],
// temperatures including non-physical ones, and currents of both signs.
func TestSplitFormsMatchReference(t *testing.T) {
	noKr := NCR18650A()
	noKr.Kr = 0
	cells := []CellParams{NCR18650A(), LFP26650(), noKr}
	r := rand.New(rand.NewSource(3))
	for ci := range cells {
		p := &cells[ci]
		for n := 0; n < 200000; n++ {
			z := 1.4*r.Float64() - 0.2
			T := 230 + 120*r.Float64()
			i := 40 * (2*r.Float64() - 1)
			switch n % 50 {
			case 0:
				T = 0
			case 1:
				T = -5
			case 2:
				i = 0
			case 3:
				i = 1e-12
			}
			pairs := [][2]float64{
				{p.OCV(z), refOCV(p, z)},
				{p.Resistance(z, T), refResistance(p, z, T)},
				{p.AgingRate(i, T), refAgingRate(p, i, T)},
				{p.OCVPrime(z), refOCVPrime(p, z)},
				{p.ResistancePrime(z, T), refResistancePrime(p, z, T)},
			}
			for k, pr := range pairs {
				if !sameBits(pr[0], pr[1]) {
					t.Fatalf("cell %d form %d at z=%v T=%v i=%v: %v, reference %v", ci, k, z, T, i, pr[0], pr[1])
				}
			}
		}
	}
}

func BenchmarkMathPow(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += math.Pow(3+float64(i&7), 1.2)
	}
	_ = sink
}

func BenchmarkPowAt(b *testing.B) {
	pw := NewPow(1.2)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += pw.At(3 + float64(i&7))
	}
	_ = sink
}
