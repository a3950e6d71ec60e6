// Package vmath holds vector forms of math functions that reproduce the
// scalar math package bit for bit. Exp4 and Log4 evaluate four
// exponentials or logarithms in one AVX2 pass on amd64 and equal four
// math.Exp or math.Log calls on every input, so a caller may batch
// independent evaluations without changing a single result bit.
package vmath

import "math"

// expLimit bounds the arguments the vector kernel takes: below it in
// magnitude, math.Exp's reduction yields an exponent whose biased form is a
// normal float64 scale, so neither its overflow nor its denormal branch can
// fire. Any lane at or beyond it (or not finite) sends the whole call to
// the scalar path.
const expLimit = 700

// Live reports whether Exp4 and Log4 run their vector kernels on this
// host. Without AVX2 and FMA they fall back to four math.Exp or math.Log
// calls: still bit-identical, but no faster than the scalar loop they
// would replace. Packages with vector kernels of their own (core's state
// sweep, hees's bus bisection) run them exactly when Live holds, so this
// is the simulator's one dispatch switch.
func Live() bool { return useAVX2FMA }

// LiveAVX512 reports whether callers may run their own eight-lane AVX-512
// kernels beside Exp4 and Log4: Live holds, and the CPU advertises
// AVX-512 F and DQ with the opmask and zmm state enabled by the OS.
// UsePortable switches it off with Live.
func LiveAVX512() bool { return useAVX512 }

// UsePortable puts Exp4, Log4 (and Live) on the portable path when on is
// set, and back on the host's best path when it is not. No result changes
// either way; tests use it to run the scalar path on AVX2 hosts. It is
// not safe to call while another goroutine uses the package.
func UsePortable(on bool) {
	useAVX2FMA = hostAVX2FMA && !on
	useAVX512 = hostAVX512 && !on
}

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

// Log4 replaces each element of x with its natural logarithm,
// bit-identical to math.Log. The vector kernel takes a call only when
// every lane is a positive normal finite number; any other lane (zero,
// subnormal, negative, ±Inf, NaN) sends all four to math.Log.
func Log4(x *[4]float64) {
	if useAVX2FMA && log4AVX(x) {
		return
	}
	log4Scalar(x)
}

// log4Scalar is the portable path: one math.Log per lane.
func log4Scalar(x *[4]float64) {
	for i := range x {
		x[i] = math.Log(x[i])
	}
}
