//go:build !amd64

package core

// useKernel is always false off amd64: the state sweep runs its portable
// stages.
func useKernel() bool { return false }

// sweepKernel is unreachable when useKernel is false.
func (s *sweep) sweepKernel() { s.sweepStages() }
