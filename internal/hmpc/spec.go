package hmpc

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/core/floats"
	"repro/internal/drivecycle"
	"repro/internal/fleet"
)

// ErrBadSpec marks spec validation failures so transport layers can map
// them onto client-error statuses; match with errors.Is.
var ErrBadSpec = errors.New("hmpc: invalid spec")

// Spec parameterises one hierarchical run: the route (a registered cycle
// or a synthesized fleet-class realization), the plant, and the two-layer
// geometry. The zero value takes the defaults below. Because the weights
// and tolerances default to nonzero values, a NEGATIVE value is the
// explicit off switch — the collapsed-outer identity test relies on it.
type Spec struct {
	// Cycle names a registered drive cycle; empty synthesizes a route
	// from Usage/RouteSeconds/Seed instead.
	Cycle string
	// Usage is the fleet usage class shaping a synthesized route
	// (commuter, delivery, highway).
	Usage string
	// Seed drives the route synthesiser.
	Seed int64
	// RouteSeconds is the synthesized route duration.
	RouteSeconds float64
	// Repeats drives the route back to back this many times.
	Repeats int
	// UltracapF sizes the ultracapacitor bank, farads.
	UltracapF float64
	// AmbientK is the outside-air temperature, kelvin.
	AmbientK float64
	// Horizon is the inner controller's window, steps.
	Horizon int
	// BlockSeconds is the outer coarse-grid block length.
	BlockSeconds float64
	// MaxBlocks caps the outer horizon; 1 collapses the outer layer to a
	// single block.
	MaxBlocks int
	// SoCRefWeight and TempRefWeight are the inner tracking weights
	// (core.Config); negative disables tracking.
	SoCRefWeight, TempRefWeight float64
	// SoCTol and TempTolK are the inner early-replan divergence
	// tolerances; negative disables the trigger.
	SoCTol, TempTolK float64
	// OuterSoCTol and OuterTempTolK trigger a full outer re-plan of the
	// remaining trip; negative disables.
	OuterSoCTol, OuterTempTolK float64
}

// offable implements the 0-means-default / negative-means-off convention
// for a tunable with a nonzero default. Negative values pass through
// unchanged (every consumer treats "> 0" as enabled), which keeps
// Resolved idempotent: a resolved spec re-resolves to itself. A negative
// value within floats.Zero's tolerance of zero is still the off switch,
// not a request for the default (floats.Unset).
func offable(v, def float64) float64 {
	if floats.Unset(v) {
		return def
	}
	return v
}

// enabled clamps an offable tunable at its point of use: negative (the
// explicit off switch) reads as zero.
func enabled(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

// Resolved returns s with every unset field filled with its documented
// default: the spec a plan or run executes. It is idempotent.
func (s Spec) Resolved() Spec {
	if s.Cycle == "" && s.Usage == "" {
		s.Usage = string(fleet.UsageCommuter)
	}
	if s.Cycle == "" && floats.Unset(s.RouteSeconds) {
		s.RouteSeconds = 900
	}
	if s.Cycle == "" && s.Seed == 0 {
		s.Seed = 1
	}
	if s.Repeats == 0 {
		s.Repeats = 1
	}
	if floats.Unset(s.UltracapF) {
		s.UltracapF = 25000
	}
	if floats.Unset(s.AmbientK) {
		s.AmbientK = 298
	}
	if s.Horizon == 0 {
		s.Horizon = core.DefaultConfig().Horizon
	}
	if floats.Unset(s.BlockSeconds) {
		s.BlockSeconds = 30
	}
	if s.MaxBlocks == 0 {
		s.MaxBlocks = 64
	}
	s.SoCRefWeight = offable(s.SoCRefWeight, 2e6)
	s.TempRefWeight = offable(s.TempRefWeight, 4e4)
	s.SoCTol = offable(s.SoCTol, 0.04)
	s.TempTolK = offable(s.TempTolK, 1.5)
	s.OuterSoCTol = offable(s.OuterSoCTol, 0.08)
	s.OuterTempTolK = offable(s.OuterTempTolK, 3)
	return s
}

// Validate reports an error for an unusable spec (after defaults, so a
// spec and its Resolved form validate alike). Each check is written so
// that NaN fails it, and every float must be finite; a negative offable
// tunable is still the off switch.
func (s Spec) Validate() error {
	s = s.Resolved()
	switch {
	case s.Cycle == "" && s.Usage != string(fleet.UsageCommuter) &&
		s.Usage != string(fleet.UsageDelivery) && s.Usage != string(fleet.UsageHighway):
		return fmt.Errorf("%w: unknown usage class %q", ErrBadSpec, s.Usage)
	case s.Cycle == "" && !(s.RouteSeconds >= 60 && s.RouteSeconds <= 7200):
		return fmt.Errorf("%w: RouteSeconds = %g outside [60, 7200]", ErrBadSpec, s.RouteSeconds)
	case s.Repeats < 1 || s.Repeats > 50:
		return fmt.Errorf("%w: Repeats = %d outside [1, 50]", ErrBadSpec, s.Repeats)
	case !(s.UltracapF > 0) || math.IsInf(s.UltracapF, 1):
		return fmt.Errorf("%w: UltracapF = %g, must be finite and > 0", ErrBadSpec, s.UltracapF)
	case !(s.AmbientK >= 230 && s.AmbientK <= 330):
		return fmt.Errorf("%w: AmbientK = %g outside [230, 330]", ErrBadSpec, s.AmbientK)
	case s.Horizon < 1:
		return fmt.Errorf("%w: Horizon = %d, must be >= 1", ErrBadSpec, s.Horizon)
	case !(s.BlockSeconds >= 1) || math.IsInf(s.BlockSeconds, 1):
		return fmt.Errorf("%w: BlockSeconds = %g, must be finite and >= 1", ErrBadSpec, s.BlockSeconds)
	case s.MaxBlocks < 1 || s.MaxBlocks > 256:
		return fmt.Errorf("%w: MaxBlocks = %d outside [1, 256]", ErrBadSpec, s.MaxBlocks)
	case !finite(s.SoCRefWeight) || !finite(s.TempRefWeight):
		return fmt.Errorf("%w: tracking weights (%g, %g) must be finite (negative is off)", ErrBadSpec, s.SoCRefWeight, s.TempRefWeight)
	case !finite(s.SoCTol) || !finite(s.TempTolK) || !finite(s.OuterSoCTol) || !finite(s.OuterTempTolK):
		return fmt.Errorf("%w: divergence tolerances (%g, %g, %g, %g) must be finite (negative is off)",
			ErrBadSpec, s.SoCTol, s.TempTolK, s.OuterSoCTol, s.OuterTempTolK)
	}
	return nil
}

// finite reports whether v is neither NaN nor infinite.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// AppendCanonical implements canon.Spec: every field that influences the
// outer plan or the hierarchical run, post-defaults and in fixed order.
// The serve plan cache keys on this encoding.
func (s Spec) AppendCanonical(dst []byte) []byte {
	s = s.Resolved()
	dst = append(dst, "otem.hmpc"...)
	dst = canon.Str(dst, "c", s.Cycle)
	dst = canon.Str(dst, "g", s.Usage)
	dst = canon.Int64(dst, "s", s.Seed)
	dst = canon.Float(dst, "r", s.RouteSeconds)
	dst = canon.Int(dst, "n", s.Repeats)
	dst = canon.Float(dst, "u", s.UltracapF)
	dst = canon.Float(dst, "a", s.AmbientK)
	dst = canon.Int(dst, "h", s.Horizon)
	dst = canon.Float(dst, "b", s.BlockSeconds)
	dst = canon.Int(dst, "mb", s.MaxBlocks)
	dst = canon.Float(dst, "ws", s.SoCRefWeight)
	dst = canon.Float(dst, "wt", s.TempRefWeight)
	dst = canon.Float(dst, "ts", s.SoCTol)
	dst = canon.Float(dst, "tt", s.TempTolK)
	dst = canon.Float(dst, "os", s.OuterSoCTol)
	dst = canon.Float(dst, "ot", s.OuterTempTolK)
	return dst
}

// route resolves the spec's realized drive cycle.
func (s Spec) route() (*drivecycle.Cycle, error) {
	var (
		c   *drivecycle.Cycle
		err error
	)
	if s.Cycle != "" {
		c, err = drivecycle.ByName(s.Cycle)
	} else {
		c, err = SynthCycle(fleet.UsageClass(s.Usage), s.RouteSeconds, s.Seed)
	}
	if err != nil {
		return nil, err
	}
	if s.Repeats > 1 {
		c = c.Repeat(s.Repeats)
	}
	return c, nil
}

var _ canon.Spec = Spec{}
