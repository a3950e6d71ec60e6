package otem

import (
	"context"

	"repro/internal/core"
	"repro/internal/drivecycle"
	"repro/internal/dse"
	"repro/internal/experiments"
	"repro/internal/lifetime"
	"repro/internal/policy"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/vehicle"
)

// Core types, aliased from the implementation packages so their documented
// fields and methods are part of the public API.
type (
	// Config tunes the OTEM controller (horizon, Eq. 19 weights, …).
	Config = core.Config
	// OTEM is the model-predictive controller (implements Controller).
	OTEM = core.OTEM
	// PlantConfig selects the experimental system (pack topology,
	// ultracapacitor size, initial conditions).
	PlantConfig = sim.PlantConfig
	// Plant is the simulated physical system.
	Plant = sim.Plant
	// Controller is the driving-time decision interface shared by OTEM and
	// the baselines.
	Controller = sim.Controller
	// Result summarises one simulated route (Algorithm 1 outputs).
	Result = sim.Result
	// Trace holds per-step signals when tracing is enabled.
	Trace = sim.Trace
	// RunSpec names a canned experiment run (methodology × cycle × size).
	RunSpec = experiments.RunSpec
	// VehicleParams is the EV road-load model used to derive power requests.
	VehicleParams = vehicle.Params
)

// Methodology is the typed name of a compared energy-management strategy.
// Untyped string literals convert implicitly, so Methodology("OTEM") and
// MethodologyOTEM are interchangeable.
type Methodology = policy.Methodology

// The four methodologies of the paper's evaluation (§IV).
const (
	// MethodologyParallel is the passive battery‖ultracapacitor baseline.
	MethodologyParallel = policy.MethodologyParallel
	// MethodologyCooling is the battery with threshold-triggered cooling.
	MethodologyCooling = policy.MethodologyCooling
	// MethodologyDual combines the parallel HEES with threshold cooling.
	MethodologyDual = policy.MethodologyDual
	// MethodologyOTEM is the paper's model-predictive controller.
	MethodologyOTEM = policy.MethodologyOTEM
)

// Methodologies lists the compared methodologies in presentation order.
func Methodologies() []Methodology { return experiments.Methods() }

// Sentinel errors, matchable with errors.Is through any wrapping the
// package applies.
var (
	// ErrUnknownCycle reports a drive-cycle name CycleByName (and everything
	// built on it) does not know.
	ErrUnknownCycle = drivecycle.ErrUnknown
	// ErrUnknownBaseline reports a methodology or baseline name Baseline and
	// ControllerFor do not know.
	ErrUnknownBaseline = policy.ErrUnknown
	// ErrCanceled reports that a context-aware run was canceled before
	// completing; errors.Is also matches the causing ctx.Err().
	ErrCanceled = runner.ErrCanceled
)

// DefaultConfig returns the controller configuration used for the paper
// experiments.
func DefaultConfig() Config { return core.DefaultConfig() }

// New constructs the OTEM controller. A zero Config selects DefaultConfig.
func New(cfg Config) (*OTEM, error) { return core.New(cfg) }

// NewPlant builds a plant; zero fields of the config take the paper's
// experimental defaults (96S24P NCR18650A pack, 25 kF bank, 298 K).
func NewPlant(cfg PlantConfig) (*Plant, error) { return sim.NewPlant(cfg) }

// Baseline constructs one of the paper's comparison methodologies by name:
// "parallel", "cooling", "dual" or "battery" (canonical Methodology names
// are accepted too, case-insensitively). Unknown names wrap
// ErrUnknownBaseline.
func Baseline(name string) (Controller, error) { return policy.ByName(name) }

// ControllerFor builds a fresh controller for a methodology, including the
// OTEM controller itself (with DefaultConfig) — the typed counterpart of
// Baseline for RunSpec-style code. Controllers are stateful: build one per
// run. Unknown methodologies wrap ErrUnknownBaseline.
func ControllerFor(m Methodology) (Controller, error) {
	if m == MethodologyOTEM {
		return core.New(core.DefaultConfig())
	}
	return policy.ByMethodology(m)
}

// MidSizeEV returns the road-load parameters of the experiments' vehicle.
func MidSizeEV() VehicleParams { return vehicle.MidSizeEV() }

// PowerSeries returns the bus power-request series for a named standard
// drive cycle ("US06", "UDDS", "HWFET", "NYCC", "LA92", "SC03") repeated
// the given number of times, using the MidSizeEV road-load model.
func PowerSeries(cycleName string, repeats int) ([]float64, error) {
	c, err := drivecycle.ByName(cycleName)
	if err != nil {
		return nil, err
	}
	if repeats > 1 {
		c = c.Repeat(repeats)
	}
	return vehicle.MidSizeEV().PowerSeries(c), nil
}

// Simulate runs the power-request series through the plant under the given
// controller (the paper's Algorithm 1) and returns the route summary. The
// plant is mutated in place. It consumes the WithTrace, WithHorizon and
// WithContext options (see Option).
func Simulate(plant *Plant, ctrl Controller, requests []float64, opts ...Option) (Result, error) {
	s := newSettings(opts)
	if s.horizon < 1 {
		s.horizon = core.DefaultConfig().Horizon
	}
	return sim.RunContext(s.ctx, plant, ctrl, requests, sim.Config{
		RecordTrace: s.trace,
		Horizon:     s.horizon,
	})
}

// SimulateContext is Simulate with cooperative cancellation: when ctx is
// canceled the simulation abandons mid-route and the returned error
// matches both ErrCanceled and ctx.Err() via errors.Is.
func SimulateContext(ctx context.Context, plant *Plant, ctrl Controller, requests []float64, opts ...Option) (Result, error) {
	return Simulate(plant, ctrl, requests, append([]Option{WithContext(ctx)}, opts...)...)
}

// Run executes one canned experiment specification (fresh default plant and
// vehicle), as used by the paper-reproduction suite.
func Run(spec RunSpec) (Result, error) { return experiments.Run(spec) }

// RunContext is Run with cooperative cancellation; see SimulateContext for
// the error semantics. RunBatch fans many specs out concurrently.
func RunContext(ctx context.Context, spec RunSpec) (Result, error) {
	return experiments.RunContext(ctx, spec)
}

// CycleNames lists the available standard drive cycles.
func CycleNames() []string { return drivecycle.Names() }

// Cycle is a speed-versus-time trace; obtain standard ones with CycleByName
// or build custom ones with Synthesize.
type Cycle = drivecycle.Cycle

// SynthConfig parameterises the random micro-trip cycle synthesiser.
type SynthConfig = drivecycle.SynthConfig

// CycleByName returns a standard drive cycle ("US06", "UDDS", …). Unknown
// names wrap ErrUnknownCycle.
func CycleByName(name string) (*Cycle, error) { return drivecycle.ByName(name) }

// Synthesize generates a deterministic random drive cycle from the
// configuration (see DefaultSynthConfig).
func Synthesize(cfg SynthConfig) (*Cycle, error) { return drivecycle.Synthesize(cfg) }

// DefaultSynthConfig returns a moderate suburban synthesis profile for the
// given seed.
func DefaultSynthConfig(seed int64) SynthConfig { return drivecycle.DefaultSynthConfig(seed) }

// PowerSeriesFor converts any cycle into a bus power-request series with
// the MidSizeEV road-load model.
func PowerSeriesFor(c *Cycle) []float64 { return vehicle.MidSizeEV().PowerSeries(c) }

// PowerSeriesAt is PowerSeries at an explicit ambient temperature (kelvin):
// the vehicle's HVAC load for that climate is added to every sample.
func PowerSeriesAt(cycleName string, repeats int, ambientK float64) ([]float64, error) {
	c, err := drivecycle.ByName(cycleName)
	if err != nil {
		return nil, err
	}
	if repeats > 1 {
		c = c.Repeat(repeats)
	}
	return vehicle.MidSizeEV().PowerSeriesAt(c, ambientK), nil
}

// LifetimeConfig tunes a routes-to-end-of-life projection.
type LifetimeConfig = lifetime.Config

// LifetimeProjection is the outcome of ProjectLifetime.
type LifetimeProjection = lifetime.Projection

// ProjectLifetime projects the battery to end of life (20 % capacity loss)
// driving the given request series repeatedly under a controller built by
// newController, carrying capacity fade and impedance growth forward. It
// consumes the WithContext, WithHorizon and WithProgress options (progress
// ticks are routes driven, out of LifetimeConfig.MaxRoutes).
func ProjectLifetime(plantCfg PlantConfig, newController func() (Controller, error), requests []float64, cfg LifetimeConfig, opts ...Option) (*LifetimeProjection, error) {
	s := newSettings(opts)
	return projectLifetime(s.ctx, s, plantCfg, newController, requests, cfg)
}

// ProjectLifetimeContext is ProjectLifetime with cooperative cancellation:
// the projection is sequential (each block feeds the accumulated fade
// forward), but canceling ctx aborts the in-flight route simulation with
// an error matching ErrCanceled. The explicit context wins over any
// WithContext option.
func ProjectLifetimeContext(ctx context.Context, plantCfg PlantConfig, newController func() (Controller, error), requests []float64, cfg LifetimeConfig, opts ...Option) (*LifetimeProjection, error) {
	return projectLifetime(ctx, newSettings(opts), plantCfg, newController, requests, cfg)
}

func projectLifetime(ctx context.Context, s settings, plantCfg PlantConfig, newController func() (Controller, error), requests []float64, cfg LifetimeConfig) (*LifetimeProjection, error) {
	if s.horizon > 0 {
		cfg.Horizon = s.horizon
	}
	if s.progress != nil {
		cfg.Progress = s.progress
	}
	return lifetime.ProjectContext(ctx,
		lifetime.DefaultPlantFactory(plantCfg),
		func() (sim.Controller, error) { return newController() },
		requests, cfg)
}

// DSEConfig tunes a design-space exploration; DSEResult carries the grid
// and its Pareto frontier.
type (
	DSEConfig = dse.Config
	DSEResult = dse.Result
)

// ExploreDesigns sweeps ultracapacitor size × cooler capacity under the
// OTEM controller and extracts the cost-vs-capacity-loss Pareto frontier —
// the design-space exploration the paper defers to future work. It
// consumes the WithContext, WithParallelism and WithProgress options
// (progress ticks are grid points).
func ExploreDesigns(cfg DSEConfig, opts ...Option) (*DSEResult, error) {
	s := newSettings(opts)
	return dse.ExploreContext(s.ctx, cfg, s.pool())
}

// ExploreDesignsContext is ExploreDesigns with the context as an explicit
// leading argument (which wins over any WithContext option).
func ExploreDesignsContext(ctx context.Context, cfg DSEConfig, opts ...Option) (*DSEResult, error) {
	return dse.ExploreContext(ctx, cfg, newSettings(opts).pool())
}
