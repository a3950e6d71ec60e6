// Package vmath holds vector forms of math functions that reproduce the
// scalar math package bit for bit. Exp4 evaluates four exponentials in one
// AVX2 pass on amd64 and equals four math.Exp calls on every input, so a
// caller may batch independent evaluations without changing a single
// result bit.
package vmath

import "math"

// expLimit bounds the arguments the vector kernel takes: below it in
// magnitude, math.Exp's reduction yields an exponent whose biased form is a
// normal float64 scale, so neither its overflow nor its denormal branch can
// fire. Any lane at or beyond it (or not finite) sends the whole call to
// the scalar path.
const expLimit = 700

// Live reports whether Exp4 runs the vector kernel on this host. Without
// AVX2 and FMA it falls back to four math.Exp calls: still bit-identical,
// but no faster than the scalar loop it would replace.
func Live() bool { return useAVX2FMA }

// UsePortable puts Exp4 (and Live) on the portable path when on is set,
// and back on the host's best path when it is not. No result changes
// either way; tests use it to run the scalar path on AVX2 hosts. It is
// not safe to call while another goroutine uses the package.
func UsePortable(on bool) { useAVX2FMA = hostAVX2FMA && !on }

// Exp4 replaces each element of x with its exponential, bit-identical to
// math.Exp.
func Exp4(x *[4]float64) {
	if useAVX2FMA && exp4AVX(x) {
		return
	}
	exp4Scalar(x)
}

// exp4Scalar is the portable path: one math.Exp per lane.
func exp4Scalar(x *[4]float64) {
	for i := range x {
		x[i] = math.Exp(x[i])
	}
}
