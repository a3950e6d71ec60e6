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
	"fmt"

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

// NewController builds a fresh controller for a methodology, the OTEM
// controller (with core.DefaultConfig) included. Controllers are
// stateful, so each run needs its own. Unknown methodologies wrap
// policy.ErrUnknown.
func NewController(method Methodology) (sim.Controller, error) {
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

// Resolved returns s with its unset fields at their documented defaults:
// a zero Repeats becomes 1 and an unset UltracapF (floats.Unset) 25000 F.
// A negative Repeats is left for RunContext to reject. It is idempotent.
func (s RunSpec) Resolved() RunSpec {
	if s.Repeats == 0 {
		s.Repeats = 1
	}
	if floats.Unset(s.UltracapF) {
		s.UltracapF = 25000
	}
	return s
}

// AppendCanonical implements the canonical-encoding contract (see package
// canon): a stable rendering of every outcome-determining field, after
// defaulting — the serve result cache keys on it.
func (s RunSpec) AppendCanonical(dst []byte) []byte {
	s = s.Resolved()
	dst = append(dst, "otem.run"...)
	dst = canon.Str(dst, "m", string(s.Method))
	dst = canon.Str(dst, "c", s.Cycle)
	dst = canon.Int(dst, "r", s.Repeats)
	dst = canon.Float(dst, "u", s.UltracapF)
	dst = canon.Bool(dst, "t", s.Trace)
	return dst
}

// RunContext executes one specification on a fresh default plant and
// vehicle. Canceling ctx abandons the simulation mid-route with an error
// matching runner.ErrCanceled. A negative Repeats is an error.
func RunContext(ctx context.Context, spec RunSpec) (sim.Result, error) {
	spec = spec.Resolved()
	if spec.Repeats < 0 {
		return sim.Result{}, fmt.Errorf("experiments: repeats %d is negative", spec.Repeats)
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
	ctrl, err := NewController(spec.Method)
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
