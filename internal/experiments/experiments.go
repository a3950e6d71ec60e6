// Package experiments reproduces every table and figure of the paper's
// evaluation (§IV): Fig. 1 (thermal case study), Fig. 6 (temperature
// traces), Fig. 7 (TEB preparation), Fig. 8 (battery lifetime), Fig. 9
// (power consumption) and Table I (ultracapacitor sizing). Each experiment
// returns a structured result that the CLI tools and the benchmark harness
// render; absolute numbers differ from the paper (our substrate is a
// synthetic simulator — see DESIGN.md), but the qualitative shape is
// asserted by tests.
package experiments

import (
	"context"

	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/core/floats"
	"repro/internal/drivecycle"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/vehicle"
)

// Methodology is the typed methodology name shared with the policy package
// and the public facade.
type Methodology = policy.Methodology

// Methodology names in canonical presentation order.
const (
	MethodParallel = policy.MethodologyParallel
	MethodCooling  = policy.MethodologyCooling
	MethodDual     = policy.MethodologyDual
	MethodOTEM     = policy.MethodologyOTEM
)

// Methods lists the four compared methodologies in presentation order.
func Methods() []Methodology {
	return []Methodology{MethodParallel, MethodCooling, MethodDual, MethodOTEM}
}

// MethodNames lists the methodologies as plain strings, for flag help texts
// and joins.
func MethodNames() []string {
	ms := Methods()
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = string(m)
	}
	return out
}

// newController builds a fresh controller for a methodology. Controllers
// are stateful, so each run needs its own.
func newController(method Methodology) (sim.Controller, error) {
	if method == MethodOTEM {
		return core.New(core.DefaultConfig())
	}
	return policy.ByMethodology(method)
}

// RunSpec describes one simulation run of the experiment suite.
type RunSpec struct {
	// Method is one of the Methods names.
	Method Methodology
	// Cycle is a standard drive-cycle name (drivecycle.Names).
	Cycle string
	// Repeats plays the cycle back to back (default 1).
	Repeats int
	// UltracapF is the bank size in farads (default 25000).
	UltracapF float64
	// Trace enables per-step recording.
	Trace bool
}

// AppendCanonical implements the canonical-encoding contract (see package
// canon): a stable rendering of every outcome-determining field, after
// defaulting — the serve result cache keys on it.
func (s RunSpec) AppendCanonical(dst []byte) []byte {
	if s.Repeats < 1 {
		s.Repeats = 1
	}
	if floats.Zero(s.UltracapF) {
		s.UltracapF = 25000
	}
	dst = append(dst, "otem.run"...)
	dst = canon.Str(dst, "m", string(s.Method))
	dst = canon.Str(dst, "c", s.Cycle)
	dst = canon.Int(dst, "r", s.Repeats)
	dst = canon.Float(dst, "u", s.UltracapF)
	dst = canon.Bool(dst, "t", s.Trace)
	return dst
}

// Run executes one specification on a fresh default plant and vehicle.
func Run(spec RunSpec) (sim.Result, error) {
	return RunContext(context.Background(), spec)
}

// RunContext is Run with cooperative cancellation, for batch engines and
// interruptible CLIs: canceling ctx abandons the simulation mid-route with
// an error matching runner.ErrCanceled.
func RunContext(ctx context.Context, spec RunSpec) (sim.Result, error) {
	if spec.Repeats < 1 {
		spec.Repeats = 1
	}
	if floats.Zero(spec.UltracapF) {
		spec.UltracapF = 25000
	}
	cycle, err := drivecycle.ByName(spec.Cycle)
	if err != nil {
		return sim.Result{}, err
	}
	requests := vehicle.MidSizeEV().PowerSeries(cycle.Repeat(spec.Repeats))

	plant, err := sim.NewPlant(sim.PlantConfig{UltracapF: spec.UltracapF})
	if err != nil {
		return sim.Result{}, err
	}
	ctrl, err := newController(spec.Method)
	if err != nil {
		return sim.Result{}, err
	}
	return sim.RunContext(ctx, plant, ctrl, requests, sim.Config{
		RecordTrace: spec.Trace,
		Horizon:     core.DefaultConfig().Horizon,
	})
}

// toCelsius converts a kelvin series for charting.
func toCelsius(k []float64) []float64 {
	out := make([]float64, len(k))
	for i, v := range k {
		out[i] = units.KToC(v)
	}
	return out
}
