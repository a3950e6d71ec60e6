// Package sim is the driving-time simulation engine implementing the outer
// loop of the paper's Algorithm 1: at each time step the controller observes
// the plant state and the predicted EV power requests, decides how to
// actuate the HEES and the active cooling system, and the engine advances
// the physical models and accumulates Q_loss and the HEES energy.
//
// The engine is controller-agnostic: the baselines (parallel, active
// cooling, dual) and the OTEM MPC all implement the same Controller
// interface, so every experiment runs the identical plant.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/cooling"
	"repro/internal/core/floats"
	"repro/internal/hees"
	"repro/internal/ultracap"
)

// Plant bundles the physical system under control.
type Plant struct {
	// HEES holds the battery, ultracapacitor and converters.
	HEES *hees.System
	// Loop is the thermal model (battery + coolant nodes); its battery
	// temperature is mirrored into the battery pack each step.
	Loop *cooling.Loop
	// Ambient is the outside-air temperature in kelvin (used when a
	// controller leaves the cooling system off).
	Ambient float64
	// DT is the integration/control period in seconds.
	DT float64
}

// Validate reports an error for an incomplete plant.
func (p *Plant) Validate() error {
	switch {
	case p.HEES == nil:
		return errors.New("sim: plant has no HEES")
	case p.Loop == nil:
		return errors.New("sim: plant has no cooling loop")
	case p.Ambient <= 0:
		return fmt.Errorf("sim: ambient %g K invalid", p.Ambient)
	case p.DT <= 0:
		return fmt.Errorf("sim: dt %g invalid", p.DT)
	}
	return nil
}

// ArchKind selects how an Action drives the HEES.
type ArchKind int

const (
	// ArchParallel executes the passive parallel architecture (Eqs. 10–13).
	ArchParallel ArchKind = iota
	// ArchBatteryDirect connects only the battery, with no converter — the
	// pure active-cooling baseline's storage path.
	ArchBatteryDirect
	// ArchDual executes the switched dual architecture.
	ArchDual
	// ArchHybrid executes the converter-coupled hybrid architecture.
	ArchHybrid
)

// String implements fmt.Stringer.
func (k ArchKind) String() string {
	switch k {
	case ArchParallel:
		return "parallel"
	case ArchBatteryDirect:
		return "battery-direct"
	case ArchDual:
		return "dual"
	case ArchHybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("ArchKind(%d)", int(k))
	}
}

// Action is one step's actuation decision.
type Action struct {
	// Arch selects the storage path.
	Arch ArchKind
	// CapBusPower is the ultracapacitor bus power command for ArchHybrid
	// (positive discharge, negative pre-charge); the battery covers the
	// remainder of the request.
	CapBusPower float64
	// DualMode and DualChargePower configure ArchDual.
	DualMode hees.DualMode
	// DualChargePower is the capacitor recharge power in DualBatteryCharge
	// mode, watts.
	DualChargePower float64
	// CoolingOn runs the pump; when false the pack is passively coupled to
	// ambient.
	CoolingOn bool
	// InletTemp is the commanded coolant inlet temperature T_i (kelvin)
	// while cooling is on; the plant clamps it to the feasible range
	// (constraints C2/C3).
	InletTemp float64
}

// Controller decides the actuation at every step of Algorithm 1.
type Controller interface {
	// Name identifies the methodology in results and traces.
	Name() string
	// Decide returns the action for the current step. forecast[0] is the
	// present power request P_e^t in watts; the remaining entries are the
	// estimated requests for future steps (the MPC control window). The
	// controller must not mutate the plant, and must treat the forecast
	// window as read-only: the engine may hand the same backing array to
	// every vehicle of a batch, or a view straight into the route series.
	Decide(p *Plant, forecast []float64) Action
}

// ForecastReader is an optional Controller extension declaring how many
// leading forecast entries Decide actually reads. The batched rollout uses
// it to fill only the prefix a controller consumes — outcome-invariant,
// because entries past the declared depth are never read — instead of
// writing the full horizon for every vehicle at every step. Entries beyond
// the depth hold stale values; a controller implementing this interface
// must never read past its declared depth. Controllers without the
// interface receive the fully filled window.
type ForecastReader interface {
	// ForecastDepth returns the number of leading forecast entries Decide
	// reads: 0 for none, 1 for just the present request, a negative value
	// for the whole window.
	ForecastDepth() int
}

// GroupDecider is an optional Controller extension for controllers that
// decide many vehicles faster together than one by one. RunBatch gathers
// the lanes whose controllers implement it and, once per step, hands them
// all to the first one's DecideGroup, each lane with its own forecast
// window.
type GroupDecider interface {
	Controller
	// DecideGroup sets every lane's Action to exactly what
	// lane.Ctrl.Decide(lane.Plant, lane.Forecast) would return, with the
	// same effect on each controller. The receiver is one of the lanes'
	// controllers; lanes whose controllers it cannot decide together it
	// decides through their own Decide.
	DecideGroup(lanes []GroupLane)
}

// GroupLane is one lane of a GroupDecider call: Decide's inputs and, on
// return, its Action.
type GroupLane struct {
	Ctrl     Controller
	Plant    *Plant
	Forecast []float64
	Action   Action
}

// Trace records per-step signals for the figure-style experiments.
type Trace struct {
	// Time holds the step start times, seconds.
	Time []float64
	// PowerRequest is P_e per step, watts.
	PowerRequest []float64
	// BatteryTemp and CoolantTemp are kelvin.
	BatteryTemp, CoolantTemp []float64
	// SoC and SoE are fractions.
	SoC, SoE []float64
	// CoolerPower is the cooling system electrical power (cooler + pump), W.
	CoolerPower []float64
	// BatteryPower is the battery terminal power, W.
	BatteryPower []float64
	// CapPower is the ultracapacitor terminal power, W.
	CapPower []float64
	// BatteryHeat is the internal heat generation Q_b, W.
	BatteryHeat []float64
}

// Reset truncates every series to zero length while keeping the backing
// arrays, so the next run appends into the same storage.
func (tr *Trace) Reset() {
	tr.Time = tr.Time[:0]
	tr.PowerRequest = tr.PowerRequest[:0]
	tr.BatteryTemp = tr.BatteryTemp[:0]
	tr.CoolantTemp = tr.CoolantTemp[:0]
	tr.SoC = tr.SoC[:0]
	tr.SoE = tr.SoE[:0]
	tr.CoolerPower = tr.CoolerPower[:0]
	tr.BatteryPower = tr.BatteryPower[:0]
	tr.CapPower = tr.CapPower[:0]
	tr.BatteryHeat = tr.BatteryHeat[:0]
}

// reserve grows each series to capacity n (keeping contents), so a run of n
// steps appends without reallocating.
//
//lint:coldpath per-lane trace capacity growth; a BatchScratch reused across batches hits the cap check and returns
func (tr *Trace) reserve(n int) {
	if cap(tr.Time) >= n {
		return
	}
	grow := func(s []float64) []float64 {
		out := make([]float64, len(s), n)
		copy(out, s)
		return out
	}
	tr.Time = grow(tr.Time)
	tr.PowerRequest = grow(tr.PowerRequest)
	tr.BatteryTemp = grow(tr.BatteryTemp)
	tr.CoolantTemp = grow(tr.CoolantTemp)
	tr.SoC = grow(tr.SoC)
	tr.SoE = grow(tr.SoE)
	tr.CoolerPower = grow(tr.CoolerPower)
	tr.BatteryPower = grow(tr.BatteryPower)
	tr.CapPower = grow(tr.CapPower)
	tr.BatteryHeat = grow(tr.BatteryHeat)
}

// append records one step in every series. The appends stay within the
// capacity reserve preallocated for the route, so they never grow.
//
//lint:coldpath appends land in the capacity reserve preallocated for the route
func (tr *Trace) append(t, pe, tb, tc, soc, soe, pcool, pbatt, pcap, qb float64) {
	tr.Time = append(tr.Time, t)
	tr.PowerRequest = append(tr.PowerRequest, pe)
	tr.BatteryTemp = append(tr.BatteryTemp, tb)
	tr.CoolantTemp = append(tr.CoolantTemp, tc)
	tr.SoC = append(tr.SoC, soc)
	tr.SoE = append(tr.SoE, soe)
	tr.CoolerPower = append(tr.CoolerPower, pcool)
	tr.BatteryPower = append(tr.BatteryPower, pbatt)
	tr.CapPower = append(tr.CapPower, pcap)
	tr.BatteryHeat = append(tr.BatteryHeat, qb)
}

// Result aggregates one simulated route (the outputs of Algorithm 1 plus
// the derived metrics the paper reports).
type Result struct {
	// Controller is the methodology name.
	Controller string
	// Steps is the number of simulated steps; DT their length in seconds.
	Steps int
	// DT is the step length in seconds.
	DT float64

	// QlossPct is the accumulated battery capacity loss (Algorithm 1
	// output Q_loss), percent of rated capacity.
	QlossPct float64
	// HEESEnergyJ is the accumulated energy drawn from the storages
	// including internal and converter losses (Algorithm 1 output Energy),
	// joules. Cooling-system consumption is folded in, because the cooler
	// and pump draw from the same bus.
	HEESEnergyJ float64
	// CoolingEnergyJ is the cooling subsystem's share of the consumption,
	// joules.
	CoolingEnergyJ float64
	// AvgPowerW is HEESEnergyJ divided by the route duration — the paper's
	// Fig. 9 / Table I "average power" metric.
	AvgPowerW float64
	// MaxBatteryTemp is the peak T_b over the route, kelvin.
	MaxBatteryTemp float64
	// AvgBatteryTemp is the time-averaged T_b, kelvin.
	AvgBatteryTemp float64
	// ThermalViolationSec counts seconds with T_b above the safe limit
	// (constraint C1).
	ThermalViolationSec float64
	// FallbackSteps counts steps where the commanded action was infeasible
	// and the engine fell back to the battery path.
	FallbackSteps int
	// FinalSoC and FinalSoE are the terminal storage states, fractions.
	FinalSoC, FinalSoE float64
	// Trace is per-step data when tracing was enabled, else nil.
	Trace *Trace
}

// BLTRatio returns the battery-lifetime figure used in the paper's Fig. 8:
// the capacity loss of this run relative to a baseline run (lower is
// better; the baseline is 1.0 by construction).
func (r Result) BLTRatio(baseline Result) float64 {
	if floats.Zero(baseline.QlossPct) {
		return math.Inf(1)
	}
	return r.QlossPct / baseline.QlossPct
}

// LifetimeExtensionPct converts the capacity-loss reduction into the BLT
// improvement the paper headlines: driving the same route repeatedly, the
// time to reach end-of-life (20 % capacity loss, §I) scales inversely with
// the per-route loss.
func (r Result) LifetimeExtensionPct(baseline Result) float64 {
	if floats.Zero(r.QlossPct) {
		return math.Inf(1)
	}
	return (baseline.QlossPct/r.QlossPct - 1) * 100
}

// Config tunes a simulation run.
type Config struct {
	// RecordTrace enables per-step trace capture.
	RecordTrace bool
	// Horizon is how many future samples are shown to the controller
	// (≥ 1; the first entry is the current step).
	Horizon int
}

// Run simulates the power-request series through the plant under the given
// controller — the paper's Algorithm 1. The plant is mutated in place.
func Run(plant *Plant, ctrl Controller, requests []float64, cfg Config) (Result, error) {
	return RunContext(context.Background(), plant, ctrl, requests, cfg)
}

// RunContext is Run with cooperative cancellation: the engine checks ctx
// between steps and, when it fires, abandons the route with an error
// matching runner.ErrCanceled (and the context's own error) via errors.Is.
// A canceled or failed run returns a zero Result; the plant is left in its
// mid-route state. The route runs as a one-lane RunBatch on a private
// scratch, so the returned trace, if any, belongs to the caller.
func RunContext(ctx context.Context, plant *Plant, ctrl Controller, requests []float64, cfg Config) (Result, error) {
	var sc BatchScratch
	res, err := RunBatch(ctx, []BatchVehicle{{Plant: plant, Ctrl: ctrl, Requests: requests}}, cfg, &sc)
	if err != nil {
		return Result{}, err
	}
	return res[0], nil
}

// fillForecast writes the window starting at step t into dst, zero-padded
// past the route end. RunBatch passes a depth-limited dst when the
// controller declares (via ForecastReader) that it reads fewer entries.
func fillForecast(dst, requests []float64, t int) {
	for k := range dst {
		if t+k < len(requests) {
			dst[k] = requests[t+k]
		} else {
			dst[k] = 0
		}
	}
}

// coolingLoad returns the cooling system's electrical draw for an action.
// It is drawn from the same bus, so it adds to the storage load.
func coolingLoad(plant *Plant, act Action) float64 {
	if !act.CoolingOn {
		return 0
	}
	return plant.Loop.CoolerPowerFor(
		clampInlet(plant.Loop, act.InletTemp)) + plant.Loop.Params.PumpPower
}

// advanceThermal integrates the thermal network with this step's battery
// heat, active or passive per the action.
func advanceThermal(plant *Plant, act *Action, heat float64) (cooling.StepResult, error) {
	if act.CoolingOn {
		return plant.Loop.StepActive(heat, act.InletTemp, plant.DT)
	}
	return plant.Loop.StepPassive(heat, plant.Ambient, plant.DT)
}

// accumulateStep folds one step's outputs into the route result — the
// single definition of Algorithm 1's accumulators (lines 17–18).
func (res *Result) accumulateStep(rep *hees.StepReport, coolRes cooling.StepResult, fellBack bool, tb, safe, dt float64) {
	res.QlossPct += rep.Batt.AgingPct
	res.HEESEnergyJ += rep.HEESEnergyJ
	res.CoolingEnergyJ += (coolRes.CoolerPower + coolRes.PumpPower) * dt
	if fellBack {
		res.FallbackSteps++
	}
	if tb > res.MaxBatteryTemp {
		res.MaxBatteryTemp = tb
	}
	if tb > safe {
		res.ThermalViolationSec += dt
	}
}

// finishRoute derives the end-of-route metrics.
func (res *Result) finishRoute(plant *Plant, tempSum float64) {
	duration := float64(res.Steps) * plant.DT
	res.AvgPowerW = res.HEESEnergyJ / duration
	res.AvgBatteryTemp = tempSum / float64(res.Steps)
	res.FinalSoC = plant.HEES.Battery.SoC
	res.FinalSoE = plant.HEES.Cap.SoE
}

// unknownArch builds the cannot-happen error for an unmatched ArchKind;
// a separate cold function so executeAction stays allocation-free on the
// matched branches.
//
//lint:coldpath unreachable guard: every ArchKind has a case; the error only routes to the battery fallback
func unknownArch(arch ArchKind) error {
	return fmt.Errorf("sim: unknown arch %v", arch)
}

// executeAction runs the storage step, falling back to the battery path on
// infeasible commands so baseline policies cannot crash the route.
func executeAction(plant *Plant, act Action, load float64) (hees.StepReport, bool) {
	s := plant.HEES
	dt := plant.DT
	var (
		rep hees.StepReport
		err error
	)
	switch act.Arch {
	case ArchParallel:
		rep, err = s.StepParallel(load, dt)
	case ArchBatteryDirect:
		rep, err = stepBatteryDirect(s, load, dt)
	case ArchDual:
		rep, err = s.StepDual(act.DualMode, load, act.DualChargePower, dt)
		if errors.Is(err, ultracap.ErrEmpty) {
			// Depleted capacitor: complete the step on the battery.
			rep, err = stepBatteryDirect(s, load, dt)
			if err == nil {
				return rep, true
			}
		}
	case ArchHybrid:
		// Clamp the capacitor command to what the bank can actually deliver
		// or absorb during this step — power capability AND stored energy —
		// before the battery branch is committed, so the bus balance stays
		// energy-conserving even when the controller's model has drifted.
		capBus := act.CapBusPower
		requested := capBus
		if capBus > 0 {
			// 0.97 margin keeps the quadratic solve away from its marginal
			// (50 %-efficiency) root where rounding makes it infeasible.
			if maxP := 0.97 * s.CapMaxBusPower(); capBus > maxP {
				capBus = maxP
			}
			vcap := s.Cap.Voltage()
			// Storage-side energy available this step, viewed at the bus.
			if maxByEnergy := s.CapConv.BusPower(s.Cap.StoredEnergy()/dt, vcap); capBus > maxByEnergy {
				capBus = maxByEnergy
			}
			if capBus < 0 {
				capBus = 0
			}
		} else if capBus < 0 {
			// Charging: the storage receives |busP|·η, bounded by headroom.
			eta := s.CapConv.Efficiency(s.Cap.Voltage())
			if maxAbsorb := s.Cap.HeadroomEnergy() / dt / eta; -capBus > maxAbsorb {
				capBus = -maxAbsorb
			}
		}
		clamped := math.Abs(capBus-requested) > 1
		rep, err = s.StepHybrid(load-capBus, capBus, dt)
		if err == nil && clamped {
			return rep, true
		}
		if errors.Is(err, ultracap.ErrEmpty) {
			return rep, true // residual rounding; the shortfall is ≤ the ESR loss
		}
	default:
		err = unknownArch(act.Arch)
	}
	if err == nil {
		return rep, false
	}
	return batteryFallback(s, load, dt)
}

// batteryFallback is the last-resort path for an infeasible command:
// battery alone, clamped to its capability. RunBatch's parked bus lanes
// share it, so an infeasible lane recovers through exactly the
// executeAction sequence.
func batteryFallback(s *hees.System, load, dt float64) (hees.StepReport, bool) {
	rep2, err2 := stepBatteryDirect(s, load, dt)
	if err2 != nil {
		// Clamp to whatever the battery can deliver.
		maxP := s.Battery.MaxDischargePower() * 0.99
		if load > maxP {
			rep2, err2 = stepBatteryDirect(s, maxP, dt)
		}
		if err2 != nil {
			return hees.StepReport{}, true
		}
	}
	return rep2, true
}

func stepBatteryDirect(s *hees.System, load, dt float64) (hees.StepReport, error) {
	battRes, err := s.Battery.Step(load, dt)
	if err != nil {
		return hees.StepReport{}, err
	}
	return hees.StepReport{
		Batt:        battRes,
		HEESEnergyJ: battRes.ChemicalEnergy,
		BusVoltage:  battRes.TerminalVoltage,
	}, nil
}

func clampInlet(l *cooling.Loop, ti float64) float64 {
	lo := l.MinFeasibleInlet()
	if ti < lo {
		return lo
	}
	if ti > l.CoolantTemp {
		return l.CoolantTemp
	}
	return ti
}
