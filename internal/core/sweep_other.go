//go:build !amd64

package core

// useKernel is always false off amd64: the state sweep runs its portable
// stages.
func useKernel() bool { return false }

// useKernel8 is always false off amd64.
func useKernel8() bool { return false }

// sweepKernel is unreachable off amd64: objectiveFwd runs the Go stages
// whenever useKernel is false.
func (s *sweep) sweepKernel() {}
