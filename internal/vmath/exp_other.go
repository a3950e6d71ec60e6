//go:build !amd64

package vmath

// hostAVX2FMA, useAVX2FMA and their AVX-512 pair are always false off
// amd64: Exp4 and Log4 run the portable path.
var hostAVX2FMA, useAVX2FMA = false, false

var hostAVX512, useAVX512 = false, false

// exp4AVX is unreachable when useAVX2FMA is false; it declines every call.
func exp4AVX(x *[4]float64) bool { return false }

// log4AVX is unreachable when useAVX2FMA is false; it declines every call.
func log4AVX(x *[4]float64) bool { return false }
