//go:build !amd64

package vmath

// useAVX2FMA is always false off amd64: Exp4 runs the portable path.
var useAVX2FMA = false

// exp4AVX is unreachable when useAVX2FMA is false; it declines every call.
func exp4AVX(x *[4]float64) bool { return false }
