package hmpc

import (
	"context"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/vehicle"
)

// Result is one hierarchical run: the simulation result plus the
// route-start outer plan and the layer replan counters.
type Result struct {
	sim.Result
	// Plan is the outer plan solved at the route start (what POST
	// /v1/plan returns for the same spec).
	Plan *Plan
	// OuterReplans counts outer solves including the route-start one;
	// InnerReplans the inner horizon solves; DivergenceReplans the inner
	// solves forced early by the reference trigger.
	OuterReplans, InnerReplans, DivergenceReplans int
}

// Build constructs the full two-layer stack for a spec: the realized
// request series, the plant, and the hierarchical controller with its
// route-start outer plan already solved and installed.
func Build(spec Spec) (*Controller, *sim.Plant, []float64, error) {
	spec = spec.Resolved()
	if err := spec.Validate(); err != nil {
		return nil, nil, nil, err
	}
	cycle, err := spec.route()
	if err != nil {
		return nil, nil, nil, err
	}
	params := vehicle.MidSizeEV()
	// The realized series the simulation drives: per-second power from
	// the actual speed trace. The outer layer never sees it — only the
	// segment-level preview below.
	requests := params.PowerSeriesAt(cycle, spec.AmbientK)
	route := RouteFromCycle(cycle, params, spec.BlockSeconds, spec.AmbientK)
	preview := route.Preview(params, cycle.DT, make([]float64, 0, len(requests)))

	plantCfg := sim.PlantConfig{UltracapF: spec.UltracapF, Ambient: spec.AmbientK, DT: cycle.DT}
	plant, err := sim.NewPlant(plantCfg)
	if err != nil {
		return nil, nil, nil, err
	}
	planner, err := NewPlanner(spec, preview, plantCfg)
	if err != nil {
		return nil, nil, nil, err
	}

	innerCfg := core.DefaultConfig()
	innerCfg.Horizon = spec.Horizon
	innerCfg.SoCRefWeight = enabled(spec.SoCRefWeight)
	innerCfg.TempRefWeight = enabled(spec.TempRefWeight)
	inner, err := core.New(innerCfg)
	if err != nil {
		return nil, nil, nil, err
	}

	// Solve the route-start outer plan from the plant's initial state —
	// the same state the simulation starts from — and install the
	// reference before the first inner decision.
	if err := planner.Replan(plant, 0); err != nil {
		return nil, nil, nil, err
	}
	inner.SetReference(planner.Reference())

	ctrl := &Controller{planner: planner, inner: inner, initial: planner.Snapshot()}
	return ctrl, plant, requests, nil
}

// PlanRoute solves only the outer layer: the cacheable per-route plan.
func PlanRoute(spec Spec) (*Plan, error) {
	ctrl, _, _, err := Build(spec)
	if err != nil {
		return nil, err
	}
	return ctrl.Plan(), nil
}

// Run simulates the two-layer controller over the spec's route. cfg's
// Horizon defaults to the spec's inner horizon.
func Run(ctx context.Context, spec Spec, cfg sim.Config) (*Result, error) {
	ctrl, plant, requests, err := Build(spec)
	if err != nil {
		return nil, err
	}
	if cfg.Horizon == 0 {
		cfg.Horizon = ctrl.planner.spec.Horizon
	}
	res, err := sim.RunContext(ctx, plant, ctrl, requests, cfg)
	if err != nil {
		return nil, err
	}
	return &Result{
		Result:            res,
		Plan:              ctrl.Plan(),
		OuterReplans:      ctrl.OuterReplans(),
		InnerReplans:      ctrl.InnerReplans(),
		DivergenceReplans: ctrl.DivergenceReplans(),
	}, nil
}
