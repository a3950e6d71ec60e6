package experiments

import (
	"context"
	"errors"
	"testing"

	"repro/internal/runner"
)

// TestEntryPointsHonourCancellation pins that every experiment entry point
// stops on its context: with one already canceled, each returns an error
// matching runner.ErrCanceled instead of running its simulations.
func TestEntryPointsHonourCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ablation := func(run func(context.Context, *runner.Pool) (*AblationResult, error)) func() error {
		return func() error { _, err := run(ctx, nil); return err }
	}
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"Fig1Context", func() error { _, err := Fig1Context(ctx, nil); return err }},
		{"Fig6Context", func() error { _, err := Fig6Context(ctx, nil); return err }},
		{"Fig7Context", func() error { _, err := Fig7Context(ctx); return err }},
		{"SweepContext", func() error { _, err := SweepContext(ctx, 1, nil); return err }},
		{"TableIContext", func() error { _, err := TableIContext(ctx, nil); return err }},
		{"HotspotContext", func() error { _, err := HotspotContext(ctx, nil); return err }},
		{"HMPCCompareContext", func() error { _, err := HMPCCompareContext(ctx, nil, HMPCScenarios()); return err }},
		{"AblationHorizonContext", ablation(AblationHorizonContext)},
		{"AblationWeightsContext", ablation(AblationWeightsContext)},
		{"AblationNoiseContext", ablation(AblationNoiseContext)},
		{"AblationPredictorContext", ablation(AblationPredictorContext)},
		{"AblationSensingContext", ablation(AblationSensingContext)},
		{"AblationChemistryContext", ablation(AblationChemistryContext)},
	} {
		if err := c.run(); !errors.Is(err, runner.ErrCanceled) {
			t.Errorf("%s on a canceled context: err = %v, want runner.ErrCanceled", c.name, err)
		}
	}
}

// TestSweepRepeatCount pins the repeat-count rule for the Fig. 8/9 sweep:
// zero plays each cycle once, a negative count is an error. The context
// is already canceled, so a count that gets past validation fails with
// runner.ErrCanceled before simulating anything.
func TestSweepRepeatCount(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SweepContext(ctx, 0, nil); !errors.Is(err, runner.ErrCanceled) {
		t.Errorf("repeats 0: err = %v, want runner.ErrCanceled", err)
	}
	if _, err := SweepContext(ctx, -3, nil); err == nil || errors.Is(err, runner.ErrCanceled) {
		t.Errorf("repeats -3: err = %v, want a validation error", err)
	}
}
