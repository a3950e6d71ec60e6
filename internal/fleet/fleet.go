// Package fleet is the Monte Carlo fleet simulator: it steps N simulated
// vehicles, each through its own seeded stochastic scenario (a synthesized
// route shaped by a usage class, an ambient drawn from a climate band, and
// a day-by-day plug/vacation sequence), and aggregates the per-vehicle
// outcomes into streaming quantile sketches — so battery-lifetime claims
// become the distributional statements the roadmap asks for, at O(workers)
// memory no matter the fleet size.
//
// Determinism contract: vehicle i's outcome is a pure function of
// (Spec, i) — fresh plant and controller per vehicle, all randomness from
// the per-vehicle seeded RNG — and vehicles are partitioned into chunks
// whose boundaries depend only on Spec.Vehicles, merged in chunk order.
// The same spec therefore produces bit-identical sketches at one worker
// and at NumCPU, which TestRunParallelIdentity gates.
package fleet

import (
	"fmt"
	"math"

	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/core/floats"
	"repro/internal/policy"
	"repro/internal/sim"
)

// Spec describes one fleet run. The zero value of every field is completed
// by Resolved, so the facade can pass specs straight through.
type Spec struct {
	// Vehicles is the fleet size (required, ≥ 1).
	Vehicles int
	// Days is how many daily routes each vehicle drives (default 1).
	Days int
	// Seed is the fleet master seed every per-vehicle stream derives from.
	Seed int64
	// Method is the control methodology (default OTEM).
	Method policy.Methodology
	// UltracapF is the bank size in farads (default 25000; finite).
	UltracapF float64
	// RouteSeconds is the target duration of each synthesized daily route
	// (default 600; within [60, 7200], the bound hmpc.Spec uses).
	RouteSeconds float64
	// Horizon is the controller forecast window (default: the paper's MPC
	// horizon from core.DefaultConfig).
	Horizon int
	// SketchK overrides the quantile-sketch buffer size (default 256).
	SketchK int
}

// Resolved returns s with every zero field set to its documented default:
// the spec a run executes. It is idempotent.
func (s Spec) Resolved() Spec {
	if s.Days == 0 {
		s.Days = 1
	}
	if s.Method == "" {
		s.Method = policy.MethodologyOTEM
	}
	if floats.Unset(s.UltracapF) {
		s.UltracapF = 25000
	}
	if floats.Unset(s.RouteSeconds) {
		s.RouteSeconds = 600
	}
	if s.Horizon == 0 {
		s.Horizon = core.DefaultConfig().Horizon
	}
	if s.SketchK == 0 {
		s.SketchK = defaultSketchK
	}
	return s
}

// Validate reports an error for an unusable spec (after defaults).
func (s Spec) Validate() error {
	s = s.Resolved()
	switch {
	case s.Vehicles < 1:
		return fmt.Errorf("fleet: Vehicles = %d, must be >= 1", s.Vehicles)
	case s.Days < 1:
		return fmt.Errorf("fleet: Days = %d, must be >= 1", s.Days)
	case !(s.UltracapF > 0) || math.IsInf(s.UltracapF, 1):
		return fmt.Errorf("fleet: UltracapF = %g, must be finite and > 0", s.UltracapF)
	case !(s.RouteSeconds >= 60 && s.RouteSeconds <= 7200):
		return fmt.Errorf("fleet: RouteSeconds = %g outside [60, 7200]", s.RouteSeconds)
	case s.Horizon < 1:
		return fmt.Errorf("fleet: Horizon = %d, must be >= 1", s.Horizon)
	}
	if _, err := newController(s.Method, s.Horizon); err != nil {
		return err
	}
	return nil
}

// AppendCanonical implements canon.Spec: every field that influences the
// deterministic outcome, in fixed order. Serve cache keys and result
// digests derive from this encoding.
func (s Spec) AppendCanonical(dst []byte) []byte {
	s = s.Resolved()
	dst = append(dst, "otem.fleet"...)
	dst = canon.Int(dst, "n", s.Vehicles)
	dst = canon.Int(dst, "d", s.Days)
	dst = canon.Int64(dst, "s", s.Seed)
	dst = canon.Str(dst, "m", string(s.Method))
	dst = canon.Float(dst, "u", s.UltracapF)
	dst = canon.Float(dst, "r", s.RouteSeconds)
	dst = canon.Int(dst, "h", s.Horizon)
	dst = canon.Int(dst, "k", s.SketchK)
	return dst
}

// FamilyResult is the per-scenario-family breakdown: how many vehicles the
// family drew and the capacity-loss distribution within it.
type FamilyResult struct {
	// Name is the "usage/climate" family label.
	Name string
	// Vehicles counts fleet members that drew this family.
	Vehicles uint64
	// Qloss sketches the per-vehicle capacity loss (percent) within the
	// family, at a reduced buffer size.
	Qloss *Sketch
}

// Result is the aggregated outcome of a fleet run. All distributions are
// per-vehicle totals over the whole simulated horizon (driving plus
// charging).
type Result struct {
	// Spec is the (defaulted) specification that produced the result.
	Spec Spec
	// Vehicles and Days echo the fleet shape; Steps is the total number of
	// simulated drive steps across the fleet.
	Vehicles int
	Days     int
	Steps    uint64
	// Qloss sketches per-vehicle capacity loss, percent of rated capacity.
	Qloss *Sketch
	// EnergyJ sketches per-vehicle total energy: HEES consumption while
	// driving plus wall energy while charging, joules.
	EnergyJ *Sketch
	// PeakTempK sketches each vehicle's peak battery temperature, kelvin.
	PeakTempK *Sketch
	// Families breaks Qloss down by scenario family, in FamilyNames order.
	Families []FamilyResult
	// FallbackSteps counts infeasible-action fallbacks across the fleet.
	FallbackSteps uint64
	// ThermalViolationSec sums constraint-C1 violation time, seconds.
	ThermalViolationSec float64
}

// Digest fingerprints the complete result state (spec encoding included):
// two runs digest equal exactly when they are bit-identical.
func (r *Result) Digest() string {
	d := NewDigest()
	d.Text(canon.String(r.Spec))
	d.Uint64(uint64(r.Vehicles))
	d.Uint64(uint64(r.Days))
	d.Uint64(r.Steps)
	d.Uint64(r.FallbackSteps)
	d.Float(r.ThermalViolationSec)
	r.Qloss.AppendDigest(d)
	r.EnergyJ.AppendDigest(d)
	r.PeakTempK.AppendDigest(d)
	for _, f := range r.Families {
		d.Text(f.Name)
		d.Uint64(f.Vehicles)
		f.Qloss.AppendDigest(d)
	}
	return d.Sum()
}

// familySketchK sizes the per-family sketches: families see a fraction of
// the fleet, so a smaller buffer holds the same relative accuracy.
const familySketchK = 64

// newAccumulator builds an empty per-chunk (or final) accumulator.
func newAccumulator(spec Spec) *Result {
	r := &Result{
		Spec:      spec,
		Qloss:     NewSketch(spec.SketchK),
		EnergyJ:   NewSketch(spec.SketchK),
		PeakTempK: NewSketch(spec.SketchK),
	}
	for _, name := range FamilyNames() {
		r.Families = append(r.Families, FamilyResult{Name: name, Qloss: NewSketch(familySketchK)})
	}
	return r
}

// add folds one vehicle's outcome in.
func (r *Result) add(o vehicleOutcome) {
	r.Vehicles++
	r.Steps += uint64(o.steps)
	r.FallbackSteps += uint64(o.fallbackSteps)
	r.ThermalViolationSec += o.thermalViolationSec
	r.Qloss.Add(o.qlossPct)
	r.EnergyJ.Add(o.energyJ)
	r.PeakTempK.Add(o.peakTempK)
	f := &r.Families[o.family]
	f.Vehicles++
	f.Qloss.Add(o.qlossPct)
}

// merge folds a chunk accumulator into the final result. Merge order is
// the chunk order, fixed by the caller.
func (r *Result) merge(c *Result) {
	r.Vehicles += c.Vehicles
	r.Steps += c.Steps
	r.FallbackSteps += c.FallbackSteps
	r.ThermalViolationSec += c.ThermalViolationSec
	r.Qloss.Merge(c.Qloss)
	r.EnergyJ.Merge(c.EnergyJ)
	r.PeakTempK.Merge(c.PeakTempK)
	for i := range r.Families {
		r.Families[i].Vehicles += c.Families[i].Vehicles
		r.Families[i].Qloss.Merge(c.Families[i].Qloss)
	}
}

// familyIndex maps a scenario to its position in FamilyNames order.
func familyIndex(sc *scenario) int {
	ui, ci := 0, 0
	for i, m := range usageMix {
		if m.class == sc.usage {
			ui = i
		}
	}
	for i, m := range climateMix {
		if m.band == sc.climate {
			ci = i
		}
	}
	return ui*len(climateMix) + ci
}

// vehicleOutcome is the flat per-vehicle summary the accumulators consume.
type vehicleOutcome struct {
	family              int
	qlossPct            float64
	energyJ             float64
	peakTempK           float64
	steps               int
	fallbackSteps       int
	thermalViolationSec float64
}

// newController builds a fresh controller for a methodology (controllers
// are stateful, so every vehicle gets its own).
func newController(method policy.Methodology, horizon int) (sim.Controller, error) {
	if method == policy.MethodologyOTEM {
		cfg := core.DefaultConfig()
		cfg.Horizon = horizon
		return core.New(cfg)
	}
	return policy.ByMethodology(method)
}

// lowSoCGuard forces an opportunistic charge on an unplugged day once the
// state of charge falls this low — a real fleet visits a public charger
// rather than strand the vehicle.
const lowSoCGuard = 0.35

// Chunking: vehicles are partitioned into at most maxChunks contiguous
// ranges of at least minChunkVehicles each. The partition depends only on
// Spec.Vehicles — never on the worker count — so the merge order (chunk
// index order) is identical at any parallelism, and peak memory is
// O(chunks) accumulators, a constant w.r.t. fleet size.
const (
	maxChunks        = 128
	minChunkVehicles = 8
)

// numChunks returns the chunk count for a fleet size.
func numChunks(vehicles int) int {
	n := (vehicles + minChunkVehicles - 1) / minChunkVehicles
	if n > maxChunks {
		n = maxChunks
	}
	if n < 1 {
		n = 1
	}
	return n
}

// chunkBounds returns chunk c's half-open vehicle range [lo, hi).
func chunkBounds(vehicles, chunks, c int) (lo, hi int) {
	lo = c * vehicles / chunks
	hi = (c + 1) * vehicles / chunks
	return lo, hi
}
