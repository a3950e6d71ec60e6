package otem

import "repro/internal/runner"

// settings is the resolved option set shared by every run entry point in
// the package. Each entry point consumes the fields that make sense for it
// and ignores the rest, so any Option can be passed anywhere and the same
// slice of options composes across SimulateContext, RunBatch,
// ExploreDesignsContext, ProjectLifetimeContext and RunFleet.
type settings struct {
	trace       bool
	horizon     int
	parallelism int
	progress    func(done, total int)
}

// newSettings applies the options over the defaults (zero horizon =
// entry-point default, GOMAXPROCS parallelism).
func newSettings(opts []Option) settings {
	var s settings
	for _, o := range opts {
		if o != nil {
			o.applyOption(&s)
		}
	}
	return s
}

// pool builds the bounded worker pool the settings describe, progress
// callback included — for entry points whose unit of progress is the pool
// job (RunBatch, ExploreDesignsContext).
func (s settings) pool() *runner.Pool {
	return runner.New(runner.Workers(s.parallelism), runner.Progress(s.progress))
}

// workerPool is pool without the progress wiring — for entry points that
// report progress in their own units (RunFleet reports vehicles, not
// chunks).
func (s settings) workerPool() *runner.Pool {
	return runner.New(runner.Workers(s.parallelism))
}

// Option tunes any of the package's run entry points. The one mechanism
// spans all of them:
//
//	WithTrace()          per-step traces  (SimulateContext, SimulateHierarchical)
//	WithHorizon(n)       forecast window  (SimulateContext, SimulateHierarchical, ProjectLifetimeContext)
//	WithParallelism(n)   worker bound     (RunBatch, ExploreDesignsContext, RunFleet)
//	WithProgress(fn)     completion ticks (RunBatch, ExploreDesignsContext, ProjectLifetimeContext, RunFleet)
//
// Options outside an entry point's row are accepted and ignored, so one
// option slice can parameterise a whole pipeline. Cancellation is not an
// option: every run entry point takes its context as the first argument.
type Option interface {
	applyOption(*settings)
}

type optionFunc func(*settings)

func (f optionFunc) applyOption(s *settings) { f(s) }

// WithTrace captures per-step signals into Result.Trace.
func WithTrace() Option {
	return optionFunc(func(s *settings) { s.trace = true })
}

// WithHorizon overrides the forecast window handed to the controller
// (default: the OTEM default horizon). Non-positive values are ignored.
func WithHorizon(n int) Option {
	return optionFunc(func(s *settings) {
		if n > 0 {
			s.horizon = n
		}
	})
}

// WithParallelism bounds the number of concurrent jobs (batch specs, grid
// points, fleet chunks). Zero or negative selects the default, GOMAXPROCS.
func WithParallelism(n int) Option {
	return optionFunc(func(s *settings) { s.parallelism = n })
}

// WithProgress registers a callback invoked as a run advances, with the
// units done so far and the total (specs for RunBatch, grid points for
// ExploreDesignsContext, routes for ProjectLifetimeContext, vehicles for
// RunFleet).
// Calls are serialized and done is increasing, so the callback needs no
// locking.
func WithProgress(fn func(done, total int)) Option {
	return optionFunc(func(s *settings) { s.progress = fn })
}
