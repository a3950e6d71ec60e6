package otem

import (
	"context"
	"fmt"

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
	// ErrUnknownBaseline reports a methodology ControllerFor (and everything
	// built on it) does not know.
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

// ControllerFor builds a fresh controller for a methodology, the OTEM
// controller (with DefaultConfig) included. Controllers are stateful:
// build one per run. Unknown methodologies wrap ErrUnknownBaseline.
func ControllerFor(m Methodology) (Controller, error) { return experiments.NewController(m) }

// MidSizeEV returns the road-load parameters of the experiments' vehicle.
func MidSizeEV() VehicleParams { return vehicle.MidSizeEV() }

// PowerSeries returns the bus power-request series for a named standard
// drive cycle ("US06", "UDDS", "HWFET", "NYCC", "LA92", "SC03") repeated
// the given number of times (zero means once; a negative count is an
// error), using the MidSizeEV road-load model.
func PowerSeries(cycleName string, repeats int) ([]float64, error) {
	c, err := repeatedCycle(cycleName, repeats)
	if err != nil {
		return nil, err
	}
	return vehicle.MidSizeEV().PowerSeries(c), nil
}

// repeatedCycle looks up a standard cycle and plays it back repeats times;
// zero repeats means one pass and a negative count is an error.
func repeatedCycle(name string, repeats int) (*Cycle, error) {
	if repeats < 0 {
		return nil, fmt.Errorf("otem: repeats %d is negative", repeats)
	}
	c, err := drivecycle.ByName(name)
	if err != nil {
		return nil, err
	}
	if repeats > 1 {
		c = c.Repeat(repeats)
	}
	return c, nil
}

// SimulateContext runs the power-request series through the plant under
// the given controller (the paper's Algorithm 1) and returns the route
// summary. The plant is mutated in place. It consumes the WithTrace and
// WithHorizon options (see Option). When ctx is canceled the simulation
// abandons mid-route and the returned error matches both ErrCanceled and
// ctx.Err() via errors.Is.
func SimulateContext(ctx context.Context, plant *Plant, ctrl Controller, requests []float64, opts ...Option) (Result, error) {
	s := newSettings(opts)
	if s.horizon < 1 {
		s.horizon = core.DefaultConfig().Horizon
	}
	return sim.RunContext(ctx, plant, ctrl, requests, sim.Config{
		RecordTrace: s.trace,
		Horizon:     s.horizon,
	})
}

// RunContext executes one canned experiment specification (fresh default
// plant and vehicle), as used by the paper-reproduction suite; see
// SimulateContext for the error semantics. RunBatch fans many specs out
// concurrently.
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
	c, err := repeatedCycle(cycleName, repeats)
	if err != nil {
		return nil, err
	}
	return vehicle.MidSizeEV().PowerSeriesAt(c, ambientK), nil
}

// LifetimeConfig tunes a routes-to-end-of-life projection.
type LifetimeConfig = lifetime.Config

// LifetimeProjection is the outcome of ProjectLifetimeContext.
type LifetimeProjection = lifetime.Projection

// ProjectLifetimeContext projects the battery to end of life (20 %
// capacity loss) driving the given request series repeatedly under a
// controller built by newController (ControllerFor fits), carrying
// capacity fade and impedance growth forward. The projection is
// sequential (each block feeds the accumulated fade forward), but
// canceling ctx aborts the in-flight route simulation with an error
// matching ErrCanceled. It consumes the WithHorizon and WithProgress
// options (progress ticks are routes driven, out of
// LifetimeConfig.MaxRoutes).
func ProjectLifetimeContext(ctx context.Context, plantCfg PlantConfig, newController func() (Controller, error), requests []float64, cfg LifetimeConfig, opts ...Option) (*LifetimeProjection, error) {
	s := newSettings(opts)
	if s.horizon > 0 {
		cfg.Horizon = s.horizon
	}
	if s.progress != nil {
		cfg.Progress = s.progress
	}
	return lifetime.ProjectContext(ctx,
		lifetime.DefaultPlantFactory(plantCfg), newController, requests, cfg)
}

// DSEConfig tunes a design-space exploration; DSEResult carries the grid
// and its Pareto frontier.
type (
	DSEConfig = dse.Config
	DSEResult = dse.Result
)

// ExploreDesignsContext sweeps ultracapacitor size × cooler capacity
// under the OTEM controller and extracts the cost-vs-capacity-loss Pareto
// frontier — the design-space exploration the paper defers to future
// work. Canceling ctx aborts it mid-grid with an error matching
// ErrCanceled. It consumes the WithParallelism and WithProgress options
// (progress ticks are grid points).
func ExploreDesignsContext(ctx context.Context, cfg DSEConfig, opts ...Option) (*DSEResult, error) {
	return dse.ExploreContext(ctx, cfg, newSettings(opts).pool())
}
