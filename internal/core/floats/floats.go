// Package floats provides the epsilon comparisons the simulator uses in
// place of floating-point == and !=.
//
// OTEM's outputs are accumulated sums of thousands of Euler steps (Eq. 19
// cost terms, Arrhenius aging in Eq. 14, converter losses), so two
// mathematically equal quantities rarely share a bit pattern. The
// floatcompare analyzer in internal/lint therefore forbids == and !=
// between floating-point operands across the module; this package is the
// sanctioned replacement. It is a leaf package (no imports beyond math) so
// every layer — physics, policy, experiments, CLIs — can depend on it
// without cycles.
package floats

import "math"

// Eps is the default absolute tolerance. The simulator works in SI units
// where the interesting magnitudes (fractions of SoC, kelvin, percent
// capacity loss) are O(1e-3)..O(1e3), so 1e-9 is far below any physical
// signal yet far above accumulated rounding noise of double precision.
const Eps = 1e-9

// Zero reports whether x is indistinguishable from zero at tolerance Eps.
// It is the replacement for `x == 0` guards; a "field left at its zero
// value" check on a config struct wants Unset.
func Zero(x float64) bool { return ZeroTol(x, Eps) }

// Unset reports whether a config field holding x was left at its zero
// value, so its default applies: x is within Eps of zero and not
// negative. A negative x, however tiny, is an input for validation to
// judge, never a request for the default.
func Unset(x float64) bool { return x >= 0 && Zero(x) }

// ZeroTol reports whether |x| <= tol.
func ZeroTol(x, tol float64) bool { return math.Abs(x) <= tol }

// Eq reports whether a and b are equal to within Eps, absolutely for
// small magnitudes and relatively for large ones, so it stays meaningful
// both for SoC fractions and for multi-megajoule energy tallies.
func Eq(a, b float64) bool { return EqTol(a, b, Eps) }

// EqTol reports whether |a-b| <= tol*max(1, |a|, |b|).
func EqTol(a, b, tol float64) bool {
	if a == b { //lint:ignore floatcompare exact-equality fast path of the epsilon helper itself
		return true
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		// Unequal infinities (and Inf vs finite) are never approximately
		// equal; without this guard Inf <= tol*Inf would say they are.
		return false
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		scale = 1
	}
	return math.Abs(a-b) <= tol*scale
}
