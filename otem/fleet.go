package otem

import (
	"context"

	"repro/internal/canon"
	"repro/internal/fleet"
)

// Fleet types, aliased from the implementation package so their documented
// fields and methods are part of the public API.
type (
	// FleetSpec describes a Monte Carlo fleet run (size, seed, methodology,
	// per-vehicle route shape). The zero value of every optional field is
	// completed with the documented default.
	FleetSpec = fleet.Spec
	// FleetResult aggregates a fleet run into streaming quantile sketches
	// and per-scenario-family breakdowns.
	FleetResult = fleet.Result
	// FleetFamilyResult is one scenario family's share of a FleetResult.
	FleetFamilyResult = fleet.FamilyResult
	// QuantileSketch is the deterministic streaming quantile summary the
	// fleet results are made of (Quantile, Mean, Min, Max, ErrorBound).
	QuantileSketch = fleet.Sketch
)

// FleetFamilyNames lists every scenario family ("usage/climate") in the
// order FleetResult.Families uses.
func FleetFamilyNames() []string { return fleet.FamilyNames() }

// RunFleet steps Spec.Vehicles simulated vehicles through seeded
// stochastic scenarios — synthesized daily routes, climate-band ambients,
// plug-in/vacation day sequences — and aggregates per-vehicle capacity
// loss, energy and peak temperature into quantile sketches, in O(workers)
// memory regardless of fleet size.
//
// Vehicles advance in lockstep groups over structure-of-arrays state, so
// their bus solves and forecast windows are shared across a group.
//
// Determinism: the same spec (seed included) produces a bit-identical
// result at any parallelism. RunFleet consumes the WithParallelism and
// WithProgress options (progress ticks are vehicles); the explicit context
// wins over WithContext. A nil ctx means context.Background().
func RunFleet(ctx context.Context, spec FleetSpec, opts ...Option) (*FleetResult, error) {
	s := newSettings(opts)
	if ctx == nil {
		ctx = s.ctx
	}
	return fleet.RunWith(ctx, spec, fleet.Options{
		Pool:     s.workerPool(),
		Progress: s.progress,
	})
}

// CanonicalSpec is the canonical-encoding contract shared by RunSpec,
// DSEConfig, LifetimeConfig and FleetSpec: a stable, self-describing
// encoding of every outcome-determining field. Serve cache keys, CLI JSON
// output and fleet digests all derive from it.
type CanonicalSpec = canon.Spec

// Canonical renders a specification's canonical encoding — the string the
// otem-serve result cache keys on.
func Canonical(s CanonicalSpec) string { return canon.String(s) }
