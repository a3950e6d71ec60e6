package sim

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/runner"
)

// ReferenceRun is the scalar Algorithm 1 loop — one vehicle, one step at a
// time, every storage step through executeAction (so parallel-architecture
// steps take hees.System.StepParallel's scalar bus solve). It is the
// reference RunBatch is checked against: every lane of a batch, traces
// included, must reproduce its result bit for bit.
func ReferenceRun(ctx context.Context, plant *Plant, ctrl Controller, requests []float64, cfg Config) (Result, error) {
	if err := plant.Validate(); err != nil {
		return Result{}, err
	}
	if ctrl == nil {
		return Result{}, errors.New("sim: nil controller")
	}
	if len(requests) == 0 {
		return Result{}, errors.New("sim: empty request series")
	}
	horizon := cfg.Horizon
	if horizon < 1 {
		horizon = 1
	}

	res := Result{Controller: ctrl.Name(), Steps: len(requests), DT: plant.DT}
	forecast := make([]float64, horizon)
	if cfg.RecordTrace {
		res.Trace = &Trace{}
	}
	safe := plant.HEES.Battery.Cell.SafeTemp
	done := ctx.Done() // nil for context.Background(): the select never fires

	var tempSum float64
	for t, pe := range requests {
		select {
		case <-done:
			return res, fmt.Errorf("sim: run canceled at step %d: %w", t, runner.Canceled(ctx.Err()))
		default:
		}
		// Mirror the thermal state into the battery model before deciding.
		plant.HEES.Battery.Temp = plant.Loop.BatteryTemp

		// Build the forecast window (zero-padded past the route end,
		// matching Algorithm 1 lines 11–12).
		fillForecast(forecast, requests, t)

		act := ctrl.Decide(plant, forecast)
		load := pe + coolingLoad(plant, act)

		rep, fellBack := executeAction(plant, act, load)
		// Advance the thermal network with the battery heat of this step.
		coolRes, err := advanceThermal(plant, &act, rep.Batt.HeatRate)
		if err != nil {
			return res, fmt.Errorf("sim: thermal step %d: %w", t, err)
		}
		plant.HEES.Battery.Temp = plant.Loop.BatteryTemp

		// Accumulate Algorithm 1 outputs (lines 17–18).
		tb := plant.Loop.BatteryTemp
		res.accumulateStep(&rep, coolRes, fellBack, tb, safe, plant.DT)
		tempSum += tb
		if res.Trace != nil {
			res.Trace.append(float64(t)*plant.DT, pe, tb, plant.Loop.CoolantTemp,
				plant.HEES.Battery.SoC, plant.HEES.Cap.SoE,
				coolRes.CoolerPower+coolRes.PumpPower,
				rep.Batt.TerminalVoltage*rep.Batt.Current,
				rep.Cap.TerminalVoltage*rep.Cap.Current,
				rep.Batt.HeatRate)
		}
	}

	res.finishRoute(plant, tempSum)
	return res, nil
}
