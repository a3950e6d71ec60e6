// Package otem is the public API of the OTEM reproduction: optimized
// thermal and energy management for hybrid electrical energy storage in
// electric vehicles (Vatanparvar & Al Faruque, DATE 2016).
//
// The package re-exports the stable surface of the internal packages:
//
//   - construct a plant (battery pack + ultracapacitor + converters +
//     active cooling loop) with NewPlant,
//   - construct the OTEM model-predictive controller with New, or a
//     state-of-the-art baseline with Baseline or ControllerFor,
//   - obtain EV power-request series from standard drive cycles with
//     PowerSeries,
//   - simulate a route with Simulate / SimulateContext, run a canned paper
//     experiment with Run / RunContext, or fan a whole grid of experiments
//     out on the bounded worker pool with RunBatch,
//   - roll a Monte Carlo fleet of seeded stochastic vehicle scenarios into
//     streaming quantile sketches with RunFleet,
//   - run the two-layer hierarchical MPC with SimulateHierarchical, or
//     solve just its cacheable outer route plan with PlanRoute.
//
// A minimal session:
//
//	requests, _ := otem.PowerSeries("US06", 5)
//	plant, _ := otem.NewPlant(otem.PlantConfig{})
//	ctrl, _ := otem.New(otem.DefaultConfig())
//	res, _ := otem.Simulate(plant, ctrl, requests, otem.WithTrace())
//	fmt.Println(res.QlossPct, res.AvgPowerW)
//
// # Batch runs
//
// RunBatch executes many RunSpecs concurrently on a bounded worker pool
// and returns one BatchResult per spec, in spec order, regardless of
// parallelism — results are bit-identical at -parallel 1 and -parallel N:
//
//	specs := []otem.RunSpec{
//		{Method: otem.MethodologyParallel, Cycle: "US06", Repeats: 3},
//		{Method: otem.MethodologyOTEM, Cycle: "US06", Repeats: 3},
//	}
//	batch, err := otem.RunBatch(ctx, specs,
//		otem.WithParallelism(4),
//		otem.WithProgress(func(done, total int) {
//			fmt.Fprintf(os.Stderr, "\r%d/%d", done, total)
//		}))
//
// A spec that fails (unknown cycle, diverged simulation, …) records its
// error in its BatchResult.Err without aborting the rest of the batch.
// Only cancellation aborts the whole batch: when ctx is canceled RunBatch
// stops dispatching, in-flight simulations abandon mid-route, and the
// returned error matches ErrCanceled via errors.Is.
//
// # Fleet Monte Carlo
//
// RunFleet steps a fleet of vehicles through per-vehicle seeded scenarios
// (usage class, climate band, synthesized daily routes, plug-in and
// vacation behaviour) and aggregates the outcomes into constant-memory
// quantile sketches — memory stays O(workers) however large the fleet:
//
//	res, err := otem.RunFleet(ctx,
//		otem.FleetSpec{Vehicles: 10000, Seed: 42, Method: otem.MethodologyParallel},
//		otem.WithParallelism(8))
//	fmt.Println(res.Qloss.Quantile(0.95), res.Digest())
//
// The same spec and seed produce a bit-identical result (same Digest, same
// otem.fleet/v1 JSON from EncodeFleet) at any parallelism. Each worker
// rolls its vehicles in structure-of-arrays batches with vectorized
// lockstep bus solves, bit-identical to stepping them one at a time.
//
// # Two-layer hierarchical MPC
//
// SimulateHierarchical runs a route-preview scheduling layer over the
// fast OTEM tracker, after the hierarchical EMS literature
// (arXiv:1809.10002). The outer planner sees only a segment-level
// preview of the route — block-averaged power derived from speeds,
// grades and ambient — and schedules SoC/pack-temperature reference
// trajectories; the inner controller tracks them and forces an early
// outer replan when the realized state diverges past the spec's
// tolerances:
//
//	res, err := otem.SimulateHierarchical(ctx,
//		otem.PlanSpec{Cycle: "UDDS", AmbientK: 308})
//	fmt.Println(res.Plan.Blocks, res.OuterReplans, res.DivergenceReplans)
//
// PlanRoute solves only the outer layer; EncodePlan renders the
// golden-pinned otem.plan/v1 schema the serve subsystem caches under the
// spec's canonical encoding. A PlanSpec with MaxBlocks 1 and negative
// tracking weights and tolerances (negative = explicitly off; zero means
// "use the default") collapses the stack to the flat controller bit for
// bit — the identity is property-tested on every registered cycle.
// Validation failures wrap ErrBadPlanSpec.
//
// # Options
//
// All run entry points accept the same functional Option values —
// WithTrace, WithHorizon, WithContext, WithParallelism, WithProgress.
// Each entry point consumes the options that apply to it and ignores the
// rest, so one option slice can parameterise a Simulate, a RunBatch and a
// RunFleet alike.
//
// # Canonical spec encoding
//
// RunSpec, DSEConfig, LifetimeConfig and FleetSpec implement
// CanonicalSpec; Canonical(spec) renders the versioned, default-resolved
// string identity used for serve cache keys, fleet digests and the spec
// field of JSON results.
//
// # Context and cancellation
//
// Every long-running entry point has a Context variant — SimulateContext,
// RunContext, RunBatch, ExploreDesignsContext, ProjectLifetimeContext —
// that checks ctx between simulation steps and returns an error wrapping
// both ErrCanceled and ctx.Err(). The plain variants are equivalent to
// passing context.Background().
//
// # Errors
//
// Failures from name lookups and cancellation wrap the package's sentinel
// errors, so callers can branch with errors.Is:
//
//	if _, err := otem.CycleByName(name); errors.Is(err, otem.ErrUnknownCycle) { … }
//	if _, err := otem.Baseline(name); errors.Is(err, otem.ErrUnknownBaseline) { … }
//	if err := doBatch(ctx); errors.Is(err, otem.ErrCanceled) { … }
package otem
