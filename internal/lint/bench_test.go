package lint

import (
	"context"
	"testing"

	"repro/internal/runner"
)

// The driver benchmarks (`go test -bench LintDriver ./internal/lint`): the
// same whole-module analysis on the sequential reference driver and on the
// parallel DAG scheduler, over the module repoModule loads once.

func BenchmarkLintDriverSequential(b *testing.B) {
	mod := repoModule(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mod.Run(All())
	}
}

func BenchmarkLintDriverParallel(b *testing.B) {
	mod := repoModule(b)
	pool := runner.New()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mod.RunParallel(ctx, pool, All()); err != nil {
			b.Fatal(err)
		}
	}
}
