package fleet

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/policy"
	"repro/internal/runner"
	"repro/internal/vmath"
)

// TestBatchedIdentityAcrossWidthsAndWorkers is the tentpole's hard
// constraint: the fleet digest and every quantile sketch must be
// bit-identical to the per-vehicle reference path at every batch width and
// worker count. Width spans the degenerate single-lane batch, a width that
// misaligns with the chunk size, the default, and whole-fleet lanes.
func TestBatchedIdentityAcrossWidthsAndWorkers(t *testing.T) {
	spec := testSpec()
	ref, err := runReference(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	refDigest := ref.Digest()
	for _, width := range []int{1, 7, DefaultBatch, testSpec().Vehicles} {
		for _, workers := range []int{1, runtime.NumCPU()} {
			got, err := runWith(context.Background(), spec, Options{Pool: runner.New(runner.Workers(workers))}, width)
			if err != nil {
				t.Fatalf("batch=%d workers=%d: %v", width, workers, err)
			}
			if d := got.Digest(); d != refDigest {
				t.Errorf("batch=%d workers=%d: digest %s != reference %s", width, workers, d, refDigest)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("batch=%d workers=%d: result differs structurally from reference", width, workers)
			}
		}
	}
}

// TestBatchedIdentityOtherMethods covers the kernel's slow path (cooling
// on, dual and hybrid architectures): methodologies that never take the
// lockstep bus solve, or mix it with scalar steps, must also digest
// identically to the reference.
func TestBatchedIdentityOtherMethods(t *testing.T) {
	for _, tc := range []struct {
		method   policy.Methodology
		vehicles int
		days     int
	}{
		{policy.MethodologyDual, 24, 3},
		{policy.MethodologyCooling, 24, 3},
		{policy.MethodologyBattery, 24, 3},
		{policy.MethodologyOTEM, 6, 1},
	} {
		spec := Spec{Vehicles: tc.vehicles, Days: tc.days, Seed: 99, Method: tc.method, RouteSeconds: 120}
		ref, err := runReference(context.Background(), spec)
		if err != nil {
			t.Fatalf("%s reference: %v", tc.method, err)
		}
		for _, width := range []int{1, 7, DefaultBatch} {
			got, err := runWith(context.Background(), spec, Options{}, width)
			if err != nil {
				t.Fatalf("%s batch=%d: %v", tc.method, width, err)
			}
			if got.Digest() != ref.Digest() {
				t.Errorf("%s batch=%d: digest %s != reference %s",
					tc.method, width, got.Digest(), ref.Digest())
			}
		}
	}
}

// TestBatchedIdentityPortable reruns the OTEM case of
// TestBatchedIdentityOtherMethods and the Parallel baseline with vmath
// forced onto its portable path: the replan packer puts one trial per
// vehicle into each round and speculates none, and every bus solve runs
// the scalar bisection. The digest must still equal the reference rolled
// on the host's default path.
func TestBatchedIdentityPortable(t *testing.T) {
	for _, spec := range []Spec{
		{Vehicles: 6, Days: 1, Seed: 99, Method: policy.MethodologyOTEM, RouteSeconds: 120},
		{Vehicles: 24, Days: 3, Seed: 99, Method: policy.MethodologyParallel, RouteSeconds: 120},
	} {
		ref, err := runReference(context.Background(), spec)
		if err != nil {
			t.Fatalf("%s reference: %v", spec.Method, err)
		}
		func() {
			vmath.UsePortable(true)
			defer vmath.UsePortable(false)
			for _, width := range []int{1, DefaultBatch} {
				got, err := runWith(context.Background(), spec, Options{}, width)
				if err != nil {
					t.Fatalf("%s batch=%d: %v", spec.Method, width, err)
				}
				if got.Digest() != ref.Digest() {
					t.Errorf("%s portable batch=%d: digest %s != reference %s", spec.Method, width, got.Digest(), ref.Digest())
				}
			}
		}()
	}
}

// TestRunUsesBatchedDefault pins that the plain Run entry point (the
// facade's path, lockstep groups of DefaultBatch) produces the reference
// outcome too.
func TestRunUsesBatchedDefault(t *testing.T) {
	spec := testSpec()
	ref, err := runReference(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunWith(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest() != ref.Digest() {
		t.Fatalf("default Run digest %s != per-vehicle reference %s", got.Digest(), ref.Digest())
	}
}
