//go:build !amd64

package hees

// bisect8AVX is unreachable off amd64, where vmath.Live is false and
// Solve runs busBisect for every lane.
func bisect8AVX(l *lanes8) { panic("hees: bisect8AVX without AVX") }
