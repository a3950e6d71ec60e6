package otem

import (
	"context"

	"repro/internal/hmpc"
	"repro/internal/sim"
)

// Hierarchical (two-layer) MPC types, aliased from the implementation
// package so their documented fields and methods are part of the public
// API.
type (
	// PlanSpec describes one hierarchical run: the route (a registered
	// cycle or a synthesized fleet-class realization), the plant and the
	// two-layer geometry. Zero fields take the documented defaults;
	// tunables with nonzero defaults (tracking weights, divergence
	// tolerances) treat a negative value as the explicit off switch.
	PlanSpec = hmpc.Spec
	// Plan is the outer scheduling layer's solution for a route: the
	// block-boundary SoC/SoE/temperature reference trajectories plus the
	// coarse decisions. It is a pure function of its PlanSpec, which is
	// what makes the otem-serve /v1/plan endpoint cacheable.
	Plan = hmpc.Plan
	// HierarchicalResult is the summary of one two-layer simulated route:
	// the flat Result fields plus the route-start Plan and the per-layer
	// replan counters.
	HierarchicalResult = hmpc.Result
)

// ErrBadPlanSpec reports a PlanSpec that fails validation (out-of-range
// geometry, unknown usage class); errors.Is matches it through any
// wrapping PlanRoute and SimulateHierarchical apply.
var ErrBadPlanSpec = hmpc.ErrBadSpec

// PlanRoute solves only the outer scheduling layer of the two-layer
// hierarchical MPC (arXiv 1809.10002): a coarse block-grid OTEM instance
// over the route preview, whose predicted trajectory becomes the tracking
// reference for the fast inner controller. The returned Plan is
// deterministic in the spec — the same spec always yields the same plan —
// so it can be computed once per route and cached (POST /v1/plan does
// exactly that, keyed on Canonical(spec)).
func PlanRoute(spec PlanSpec) (*Plan, error) { return hmpc.PlanRoute(spec) }

// SimulateHierarchical runs the full two-layer controller over the spec's
// route: the outer planner schedules block-averaged SoC and pack-
// temperature references from the route preview, and the inner OTEM
// tracks them, re-planning early when the realized state diverges.
//
// With the outer layer collapsed to a single block and every tracking
// weight and tolerance negative (explicitly off), the hierarchical run is
// bit-identical to the flat SimulateContext with the default OTEM
// controller — the property test in this package pins that on every
// registered cycle.
//
// It consumes the WithTrace and WithHorizon options.
func SimulateHierarchical(ctx context.Context, spec PlanSpec, opts ...Option) (*HierarchicalResult, error) {
	s := newSettings(opts)
	return hmpc.Run(ctx, spec, sim.Config{RecordTrace: s.trace, Horizon: s.horizon})
}
