package otem

import (
	"context"
	"errors"

	"repro/internal/experiments"
	"repro/internal/runner"
)

// BatchResult pairs one RunSpec of a batch with its outcome. Exactly one
// of Result and Err is meaningful: Err is non-nil when that spec failed
// (the rest of the batch still ran).
type BatchResult struct {
	// Spec echoes the specification this result belongs to.
	Spec RunSpec
	// Result is the route summary when the run succeeded.
	Result Result
	// Err is the per-spec failure, nil on success.
	Err error
}

// RunBatch executes the specs concurrently on a bounded worker pool and
// returns one BatchResult per spec, in spec order — the ordering (and the
// numbers) are independent of the parallelism. A failing spec records its
// error in its BatchResult.Err and the rest of the batch continues; the
// batch-level error is non-nil only when ctx was canceled, in which case
// it matches ErrCanceled (and ctx.Err()) via errors.Is and the returned
// slice is nil.
func RunBatch(ctx context.Context, specs []RunSpec, opts ...Option) ([]BatchResult, error) {
	pool := newSettings(opts).pool()
	return runner.Map(ctx, pool, len(specs),
		func(ctx context.Context, i int) (BatchResult, error) {
			br := BatchResult{Spec: specs[i]}
			br.Result, br.Err = experiments.RunContext(ctx, specs[i])
			if br.Err != nil && errors.Is(br.Err, ErrCanceled) {
				// Cancellation is a batch-level outcome, not a per-spec one.
				return br, br.Err
			}
			return br, nil
		})
}
