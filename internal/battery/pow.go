package battery

import "math"

// Pow evaluates x^y for one fixed exponent y, bit-identical to
// math.Pow(x, y), without paying math.Pow's per-call overhead.
//
// math.Pow splits y into integer and fractional parts (Modf) on every
// call, works through its special cases, and scales the result with
// Frexp/Ldexp. For y > 0 whose split has integer part 1 — after Pow's own
// fold of a fraction above 0.5 into the integer part, as for the aging
// exponents 1.2 and 1.1 — its algorithm reduces, at a finite normal x, to
//
//	a1 = Exp(yf·Log(x));  result = Ldexp(a1·x1, xe)   with x = x1·2^xe.
//
// Scaling by a power of two commutes with rounding while the result stays
// normal, so that is a1·x with the same bits. Pow precomputes the split
// once and evaluates a1·x directly wherever the result is safely normal,
// and calls math.Pow everywhere else: other exponents, zero, subnormal,
// infinite or NaN bases, and results near the edge of the normal range.
type Pow struct {
	y, yf float64
	fast  bool
}

// NewPow splits y the way math.Pow would.
func NewPow(y float64) Pow {
	e := Pow{y: y}
	if !(y > 0) || math.IsInf(y, 1) || y == 0.5 { //lint:ignore floatcompare mirrors math.Pow's exact y == 0.5 special case (Sqrt)
		return e
	}
	yi, yf := math.Modf(y)
	if yf > 0.5 {
		yf--
		yi++
	}
	e.yf = yf
	e.fast = yi == 1 //lint:ignore floatcompare yi is an integer-valued Modf part
	return e
}

// normalX reports whether the direct form applies at x: a finite, positive,
// normal base.
func (e Pow) normalX(x float64) bool {
	return e.fast && x >= 0x1p-1022 && x <= math.MaxFloat64
}

// ExpArg returns yf·Log(x), the argument of the exponential At takes at x,
// or 0 where the direct form does not apply (FromExp then ignores the
// exponential).
func (e Pow) ExpArg(x float64) float64 {
	if !e.normalX(x) {
		return 0
	}
	return e.yf * math.Log(x)
}

// FromExp returns x^y given ex = exp(ExpArg(x)).
func (e Pow) FromExp(x, ex float64) float64 {
	if e.normalX(x) {
		// Well inside the normal range on both sides, so the direct
		// product and math.Pow's Ldexp scaling round identically.
		if r := ex * x; r >= 0x1p-1020 && r <= 0x1p1020 {
			return r
		}
	}
	return math.Pow(x, e.y)
}

// At returns x^y, bit-identical to math.Pow(x, y).
func (e Pow) At(x float64) float64 {
	return e.FromExp(x, math.Exp(e.ExpArg(x)))
}
