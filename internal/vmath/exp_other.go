//go:build !amd64

package vmath

// hostAVX2FMA and useAVX2FMA are always false off amd64: Exp4 runs the
// portable path.
var hostAVX2FMA, useAVX2FMA = false, false

// exp4AVX is unreachable when useAVX2FMA is false; it declines every call.
func exp4AVX(x *[4]float64) bool { return false }
