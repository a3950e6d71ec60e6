// The Algorithm 1 step loop. RunBatch advances many independent vehicles
// through it in lockstep, one global step at a time, so the per-step work
// of a whole batch runs back to back over contiguous state instead of one
// vehicle monopolising the pipeline for its whole route; Run and
// RunContext drive a single vehicle through it as a one-lane batch. The
// payoff is twofold: the parallel-architecture bus solves of all lanes go
// through one hees.BusBatch lockstep bisection (independent lanes hide
// each other's divide latency), and controllers that declare a
// ForecastDepth skip the per-step horizon fill entirely.
//
// Lanes whose controllers implement GroupDecider are decided together, in
// one DecideGroup call per step, so a controller can share work across
// vehicles (core.OTEM packs every vehicle's replan trials into shared
// rollouts); each such lane's outcome is still its solo outcome.
//
// Bit-identity contract: every lane's floating-point sequence is exactly
// the one its vehicle follows when stepped alone through executeAction —
// the fast path reuses PrepareParallel / FinishParallel / batteryFallback
// and the lockstep solver is bit-identical to solveParallelBus
// (property-tested in hees), the slow path calls executeAction itself —
// so a batched fleet digests identically at any batch size. The scalar
// reference loop in the package tests pins this, traces included.

package sim

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/hees"
	"repro/internal/runner"
)

// BatchVehicle is one lane of a batched rollout: its plant, its controller
// and its route. Plants and controllers must be distinct per lane (both
// are mutated).
type BatchVehicle struct {
	// Plant is the lane's physical system, mutated in place.
	Plant *Plant
	// Ctrl is the lane's controller.
	Ctrl Controller
	// Requests is the lane's route power-request series, watts.
	Requests []float64
}

// BatchScratch holds the worker-owned structure-of-arrays state of a
// batched rollout — the lockstep bus solver, the per-lane accumulators,
// traces and forecast windows, and the GroupDecider lanes — so repeated
// batches run allocation-free. Single-goroutine state: give each worker
// its own.
type BatchScratch struct {
	windows []float64 // per-lane forecast windows, horizon each, one block
	horizon int
	bus     hees.BusBatch
	pre     []hees.ParallelPrep // per bus slot, parallel to bus lanes
	busLane []int               // lane index per bus slot
	act     []Action            // per bus slot: the lane's action this step
	depth   []int               // per-lane forecast fill depth
	grouped []bool              // per lane: its controller is a GroupDecider
	group   []GroupLane         // this step's GroupDecider lanes, in lane order
	active  []int               // packed indices of lanes still driving
	tempSum []float64           // per-lane running T_b sum
	results []Result            // per-lane accumulators, returned by RunBatch
	traces  []Trace             // per-lane trace storage when tracing
}

// ensure sizes the scratch for n lanes and horizon-length windows, with
// per-lane trace storage when trace is set.
//
//lint:coldpath per-batch capacity growth of the lane arrays and trace slots; warmed scratch returns at the cap checks
func (sc *BatchScratch) ensure(n, horizon int, trace bool) {
	if cap(sc.windows) < n*horizon {
		sc.windows = make([]float64, n*horizon)
	}
	sc.windows = sc.windows[:n*horizon]
	sc.horizon = horizon
	if cap(sc.results) < n {
		sc.pre = make([]hees.ParallelPrep, n)
		sc.busLane = make([]int, n)
		sc.act = make([]Action, n)
		sc.depth = make([]int, n)
		sc.grouped = make([]bool, n)
		sc.group = make([]GroupLane, n)
		sc.active = make([]int, n)
		sc.tempSum = make([]float64, n)
		sc.results = make([]Result, n)
	}
	if trace && len(sc.traces) < n {
		sc.traces = make([]Trace, n)
	}
	sc.bus.Ensure(n)
}

// window returns lane k's horizon-long forecast window.
func (sc *BatchScratch) window(k int) []float64 {
	return sc.windows[k*sc.horizon : (k+1)*sc.horizon : (k+1)*sc.horizon]
}

// forecastDepth resolves a controller's declared window consumption.
func forecastDepth(ctrl Controller, horizon int) int {
	if fr, ok := ctrl.(ForecastReader); ok {
		if d := fr.ForecastDepth(); d >= 0 && d < horizon {
			return d
		}
	}
	return horizon
}

// RunBatch simulates every lane's route in lockstep and returns the
// per-lane results, indexed like lanes. The returned slice and the results
// it holds — traces included, when cfg.RecordTrace is set — are owned by
// the scratch and valid until the next RunBatch call on it. On
// cancellation or failure it returns a nil slice; the plants are left in
// their mid-route state.
//
//lint:hotpath the lockstep batch loop is the simulator's inner loop; with a warmed scratch it must not allocate
func RunBatch(ctx context.Context, lanes []BatchVehicle, cfg Config, sc *BatchScratch) ([]Result, error) {
	if len(lanes) == 0 {
		return nil, errors.New("sim: empty batch")
	}
	horizon := max(cfg.Horizon, 1)
	sc.ensure(len(lanes), horizon, cfg.RecordTrace)

	maxSteps := 0
	for k := range lanes {
		ln := &lanes[k]
		if err := ln.Plant.Validate(); err != nil {
			return nil, fmt.Errorf("sim: batch lane %d: %w", k, err)
		}
		if ln.Ctrl == nil {
			return nil, fmt.Errorf("sim: batch lane %d: nil controller", k)
		}
		if len(ln.Requests) == 0 {
			return nil, fmt.Errorf("sim: batch lane %d: empty request series", k)
		}
		sc.depth[k] = forecastDepth(ln.Ctrl, horizon)
		_, sc.grouped[k] = ln.Ctrl.(GroupDecider)
		sc.active[k] = k
		sc.tempSum[k] = 0
		sc.results[k] = Result{Controller: ln.Ctrl.Name(), Steps: len(ln.Requests), DT: ln.Plant.DT}
		if cfg.RecordTrace {
			tr := &sc.traces[k]
			tr.Reset()
			tr.reserve(len(ln.Requests))
			sc.results[k].Trace = tr
		}
		maxSteps = max(maxSteps, len(ln.Requests))
	}

	bus := &sc.bus
	na := len(lanes)
	done := ctx.Done() // nil for context.Background(): the select never fires
	for t := 0; t < maxSteps && na > 0; t++ {
		select {
		case <-done:
			return nil, fmt.Errorf("sim: run canceled at step %d: %w", t, runner.Canceled(ctx.Err()))
		default:
		}

		// Pass 0 — observe: mirror every lane's thermal state into its
		// battery model and fill its forecast window, zero-padded past the
		// route end (Algorithm 1 lines 11–12); then decide the
		// GroupDecider lanes in one call.
		ng := 0
		for a := 0; a < na; a++ {
			k := sc.active[a]
			ln := &lanes[k]
			plant := ln.Plant
			plant.HEES.Battery.Temp = plant.Loop.BatteryTemp
			win := sc.window(k)
			fillForecast(win[:sc.depth[k]], ln.Requests, t)
			if sc.grouped[k] {
				sc.group[ng] = GroupLane{Ctrl: ln.Ctrl, Plant: plant, Forecast: win}
				ng++
			}
		}
		if ng > 0 {
			sc.group[0].Ctrl.(GroupDecider).DecideGroup(sc.group[:ng])
		}

		// Pass 1 — decide every other lane; parallel-architecture lanes
		// park their bus solve in the lockstep batch, everything else
		// steps through executeAction immediately.
		nb, g := 0, 0
		for a := 0; a < na; a++ {
			k := sc.active[a]
			ln := &lanes[k]
			plant := ln.Plant
			var act Action
			if sc.grouped[k] {
				act = sc.group[g].Action
				g++
			} else {
				act = ln.Ctrl.Decide(plant, sc.window(k))
			}
			load := ln.Requests[t] + coolingLoad(plant, act)
			if act.Arch == ArchParallel {
				pre := plant.HEES.PrepareParallel()
				sc.pre[nb] = pre
				sc.busLane[nb] = k
				sc.act[nb] = act
				bus.VB[nb] = pre.Batt.VOC
				bus.RB[nb] = pre.Batt.R
				bus.VC[nb] = pre.VC
				bus.RC[nb] = pre.RC
				bus.P[nb] = load
				nb++
				continue
			}
			rep, fellBack := executeAction(plant, act, load)
			if err := sc.finishStep(ln, k, t, &act, &rep, fellBack); err != nil {
				return nil, err
			}
		}

		// Pass 2 — one lockstep bisection over every parked bus solve.
		bus.Solve(nb)

		// Pass 3 — finish the parked lanes: integrate the storages with
		// the solved bus voltage, or recover through the battery fallback.
		for j := 0; j < nb; j++ {
			k := sc.busLane[j]
			ln := &lanes[k]
			hs, dt := ln.Plant.HEES, ln.Plant.DT
			var rep hees.StepReport
			fellBack := false
			if bus.Feasible[j] {
				var err error
				rep, err = hs.FinishParallel(sc.pre[j], bus.VL[j], dt)
				if err != nil {
					rep, fellBack = batteryFallback(hs, bus.P[j], dt)
				}
			} else {
				rep, fellBack = batteryFallback(hs, bus.P[j], dt)
			}
			if err := sc.finishStep(ln, k, t, &sc.act[j], &rep, fellBack); err != nil {
				return nil, err
			}
		}

		// Retire lanes whose route ended this step.
		nw := 0
		for a := 0; a < na; a++ {
			k := sc.active[a]
			if t+1 < len(lanes[k].Requests) {
				sc.active[nw] = k
				nw++
				continue
			}
			sc.results[k].finishRoute(lanes[k].Plant, sc.tempSum[k])
		}
		na = nw
	}
	return sc.results[:len(lanes)], nil
}

// finishStep completes lane k's step t once its storages have stepped:
// advance the thermal network with the step's battery heat, mirror T_b
// into the pack, and fold the step into the lane's result and trace
// (Algorithm 1 lines 15–18).
func (sc *BatchScratch) finishStep(ln *BatchVehicle, k, t int, act *Action, rep *hees.StepReport, fellBack bool) error {
	plant := ln.Plant
	coolRes, err := advanceThermal(plant, act, rep.Batt.HeatRate)
	if err != nil {
		return fmt.Errorf("sim: batch lane %d thermal step %d: %w", k, t, err)
	}
	plant.HEES.Battery.Temp = plant.Loop.BatteryTemp
	tb := plant.Loop.BatteryTemp
	res := &sc.results[k]
	res.accumulateStep(rep, coolRes, fellBack, tb, plant.HEES.Battery.Cell.SafeTemp, plant.DT)
	sc.tempSum[k] += tb
	if res.Trace != nil {
		res.Trace.append(float64(t)*plant.DT, ln.Requests[t], tb, plant.Loop.CoolantTemp,
			plant.HEES.Battery.SoC, plant.HEES.Cap.SoE,
			coolRes.CoolerPower+coolRes.PumpPower,
			rep.Batt.TerminalVoltage*rep.Batt.Current,
			rep.Cap.TerminalVoltage*rep.Cap.Current,
			rep.Batt.HeatRate)
	}
	return nil
}
