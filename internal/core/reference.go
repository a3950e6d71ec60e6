package core

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// This file is the inner half of the two-layer hierarchical MPC (Amini,
// Sun & Kolmanovsky, arXiv 1809.10002): an outer scheduling layer turns
// route preview into slow SoC/temperature reference trajectories, and the
// flat OTEM controller gains (a) quadratic tracking terms that pull the
// horizon rollout toward those references and (b) a divergence trigger
// that forces an early replan when the realized state drifts past a
// tolerance. With zero tracking weights and disabled tolerances the
// controller is bit-identical to flat OTEM — a property the tests pin on
// every registered drive cycle.

// Reference is an outer-layer state trajectory for the inner controller
// to track. Entries are indexed by absolute plant step: SoC[t] and
// TempK[t] are the scheduled battery state of charge and temperature at
// the END of plant step t. The controller holds the pointer, so an outer
// replan may rewrite the slices in place and the next inner replan picks
// the new values up; the slices themselves must not be resized while
// installed.
type Reference struct {
	// SoC is the scheduled battery state-of-charge path (fractions).
	// Empty disables SoC tracking.
	SoC []float64
	// TempK is the scheduled battery-temperature path (kelvin). Empty
	// disables temperature tracking.
	TempK []float64
	// SoCTol forces an early inner replan when the realized SoC deviates
	// from the reference by more than this fraction; ≤ 0 disables the
	// trigger.
	SoCTol float64
	// TempTolK is SoCTol's temperature counterpart, kelvin.
	TempTolK float64
}

// SetReference installs (or, with nil, removes) the reference trajectory
// the tracking terms follow. The absolute step clock keeps running across
// calls so an outer layer can refresh the trajectory mid-route; a fresh
// route takes a fresh controller.
func (o *OTEM) SetReference(ref *Reference) { o.ref = ref }

// Replans reports how many horizon problems the controller has solved.
func (o *OTEM) Replans() int { return o.replans }

// DivergenceReplans reports how many of those replans were forced early
// by the reference divergence trigger.
func (o *OTEM) DivergenceReplans() int { return o.nudges }

// prepareRefWindow latches the tracking gates and copies the horizon
// window of the installed reference into the objective's buffers. It runs
// once per replan, so the objective and adjoint read plain slices and
// booleans on every evaluation.
func (o *OTEM) prepareRefWindow() {
	o.trackSoC = false
	o.trackTb = false
	ref := o.ref
	if ref == nil {
		return
	}
	if o.cfg.SoCRefWeight > 0 && len(ref.SoC) > 0 {
		o.trackSoC = true
		fillWindow(o.refSoC, ref.SoC, o.stepAbs)
	}
	if o.cfg.TempRefWeight > 0 && len(ref.TempK) > 0 {
		o.trackTb = true
		fillWindow(o.refTb, ref.TempK, o.stepAbs)
	}
}

// fillWindow copies src[start:start+len(dst)] into dst, holding the last
// reference sample past the end of the route.
func fillWindow(dst, src []float64, start int) {
	last := src[len(src)-1]
	for k := range dst {
		if i := start + k; i < len(src) {
			dst[k] = src[i]
		} else {
			dst[k] = last
		}
	}
}

// refAt reads a reference sample, holding the last value past the end.
func refAt(s []float64, i int) float64 {
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// divergedFromRef reports whether the realized plant state has drifted
// past the installed reference's tolerances since the last completed
// step. It is the inner layer's replan trigger: false without a
// reference, at the first step, or with the tolerances disabled.
func (o *OTEM) divergedFromRef(p *sim.Plant) bool {
	ref := o.ref
	if ref == nil || o.stepAbs == 0 {
		return false
	}
	i := o.stepAbs - 1
	if ref.SoCTol > 0 && len(ref.SoC) > 0 &&
		math.Abs(p.HEES.Battery.SoC-refAt(ref.SoC, i)) > ref.SoCTol {
		return true
	}
	if ref.TempTolK > 0 && len(ref.TempK) > 0 &&
		math.Abs(p.Loop.BatteryTemp-refAt(ref.TempK, i)) > ref.TempTolK {
		return true
	}
	return false
}

// Trajectory receives the predicted state path of a PlanTrip solve, one
// sample per horizon step: the state at the end of each step, clamps
// applied exactly as the objective rollout applies them. The caller
// preallocates every slice to at least the horizon length so the warm
// path writes in place.
type Trajectory struct {
	SoC, SoE     []float64
	BatteryTempK []float64
	CoolantTempK []float64
}

// errTrajectoryShort builds the precondition error off the hot path.
//
//lint:coldpath precondition failure constructs the error outside the warm replan
func errTrajectoryShort(h int) error {
	return fmt.Errorf("core: trajectory buffers shorter than horizon %d", h)
}

// PlanTrip solves the horizon problem once from the plant's current state
// and extracts the predicted per-step state trajectory from the rollout
// tape. It is the outer layer's solver entry point: internal/hmpc runs a
// coarse-grid OTEM instance (one block per step, Δt = the block length)
// over the whole trip and turns the returned trajectory into the inner
// layer's Reference. The returned plan slice aliases the controller's
// plan buffer and is valid until the next solve. Successive calls warm
// start from the previous solution; call AdvanceWarmStart first when the
// trip window has shifted.
//
//lint:hotpath the warm outer replan fires mid-route on the divergence trigger; allocflow proves it allocation-free
func (o *OTEM) PlanTrip(p *sim.Plant, forecast []float64, traj *Trajectory) ([]float64, error) {
	h := o.cfg.Horizon
	if traj != nil && (len(traj.SoC) < h || len(traj.SoE) < h ||
		len(traj.BatteryTempK) < h || len(traj.CoolantTempK) < h) {
		return nil, errTrajectoryShort(h)
	}
	o.cursor = 0
	o.replan(p, forecast)
	if traj == nil {
		return o.plan, nil
	}
	// The solver's last objective evaluation is usually the accepted
	// point, so a slot's tape column already holds this rollout; otherwise
	// replay the forward pass at the final plan (same cost path as the
	// line search).
	lane := o.tapeLane(o.plan)
	if lane < 0 {
		o.objective(o.plan)
		lane = 0
	}
	tape, c := o.tapeOwner[lane].tape[:h], o.tapeCol[lane]&3
	for k := 0; k < h; k++ {
		tp := &tape[k]
		soc, soe := tp.socPre[c], tp.soePre[c]
		if on(tp.socClampHi, c) {
			soc = 1
		}
		if on(tp.soeClampHi, c) {
			soe = 1
		}
		traj.SoC[k] = soc
		traj.SoE[k] = soe
		traj.BatteryTempK[k] = tp.tb1[c]
		traj.CoolantTempK[k] = tp.tc1[c]
	}
	return o.plan, nil
}
