// Package hmpc implements the two-layer hierarchical MPC of Amini, Sun &
// Kolmanovsky (arXiv 1809.10002) on top of the flat OTEM controller.
//
// The flat controller (internal/core) optimises over a short receding
// horizon — 40 s by default — and is therefore blind to everything the
// route holds beyond it: a highway merge ten minutes out, a long climb, a
// hot second half. The two-layer split fixes that without giving up the
// fast inner replan:
//
//   - The OUTER layer (Planner) consumes a route preview — segment mean
//     speeds, grades and ambient derived from internal/drivecycle or the
//     fleet scenario synthesiser — on a coarse grid (one decision block
//     per BlockSeconds) covering the whole trip. It is literally a second
//     core.OTEM instance run against a coarse clone of the plant
//     (Δt = BlockSeconds), so its optimize.Workspace solve and the
//     hand-derived adjoint are reused unchanged. Its solution is turned
//     into per-second SoC and battery-temperature reference trajectories.
//   - The INNER layer is the unmodified fast OTEM controller with the
//     reference-tracking terms of core.Config.SoCRefWeight/TempRefWeight
//     enabled, pulling each short-horizon solve toward the schedule. When
//     the realized state drifts past Reference tolerances the inner layer
//     replans early; past the coarser outer tolerances the outer layer
//     re-solves the remaining trip and rewrites the references in place.
//
// The outer plan is a pure function of the canonical Spec, which is what
// makes it cacheable: otem-serve's POST /v1/plan keys the plan cache on
// Spec's canonical encoding while the per-step tracking stays in the
// simulation path. With zero tracking weights and disabled tolerances the
// hierarchical controller is bit-identical to flat OTEM — pinned by a
// property test over every registered drive cycle.
package hmpc
