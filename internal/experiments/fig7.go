package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/chart"
	"repro/internal/sim"
	"repro/internal/units"
)

// Fig7Result reproduces the paper's Fig. 7: the temporal TEB analysis under
// OTEM — battery temperature, ultracapacitor SoE and the EV power request
// over US06 ×5. The paper's claim: the controller allocates charge to the
// ultracapacitor (or pre-cools) ahead of large power requests.
type Fig7Result struct {
	// Result is the traced OTEM run.
	Result sim.Result
	// PrechargeEvents counts windows where the SoE rose while driving and a
	// large power burst followed within the MPC horizon — the signature of
	// TEB preparation.
	PrechargeEvents int
	// BurstThresholdW defines what counted as a burst.
	BurstThresholdW float64
}

// Fig7Context runs the traced OTEM experiment and detects TEB preparation
// events.
func Fig7Context(ctx context.Context) (*Fig7Result, error) {
	res, err := RunContext(ctx, RunSpec{Method: MethodOTEM, Cycle: "US06", Repeats: 5, Trace: true})
	if err != nil {
		return nil, fmt.Errorf("fig7: %w", err)
	}
	out := &Fig7Result{Result: res, BurstThresholdW: 50e3}
	out.PrechargeEvents = countPrechargeEvents(res.Trace, out.BurstThresholdW, 40)
	return out, nil
}

// countPrechargeEvents scans the trace for bursts (power above threshold)
// preceded by a net SoE rise within the preceding lookahead window.
func countPrechargeEvents(tr *sim.Trace, threshold float64, lookahead int) int {
	events := 0
	inBurst := false
	for i := range tr.PowerRequest {
		if tr.PowerRequest[i] < threshold {
			inBurst = false
			continue
		}
		if inBurst {
			continue // count each burst once
		}
		inBurst = true
		lo := i - lookahead
		if lo < 0 {
			lo = 0
		}
		// Net SoE change across the pre-burst window.
		if tr.SoE[i] > tr.SoE[lo]+0.005 {
			events++
		}
	}
	return events
}

// Write renders the joint series: power request, SoE and temperature.
func (r *Fig7Result) Write(w io.Writer) {
	fmt.Fprintln(w, "Fig. 7 — TEB preparation under OTEM, US06 ×5, 25 kF")
	fmt.Fprintf(w, "pre-charge events ahead of >%.0f kW bursts: %d\n\n", r.BurstThresholdW/1e3, r.PrechargeEvents)

	tr := r.Result.Trace
	xmax := tr.Time[len(tr.Time)-1]
	pc := chart.New("EV power request (kW)")
	pc.XMax = xmax
	pc.XLabel = "s"
	kw := make([]float64, len(tr.PowerRequest))
	for i, p := range tr.PowerRequest {
		kw[i] = p / 1e3
	}
	pc.Add("P_e", kw)
	pc.Render(w)
	fmt.Fprintln(w)

	sc := chart.New("ultracapacitor SoE (TEB preparation)")
	sc.XMax = xmax
	sc.XLabel = "s"
	sc.Add("SoE", tr.SoE)
	sc.Render(w)
	fmt.Fprintln(w)

	tc := chart.New("battery temperature (°C)")
	tc.XMax = xmax
	tc.XLabel = "s"
	tc.WithHLine(40)
	tc.Add("T_b", toCelsius(tr.BatteryTemp))
	tc.Render(w)
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%8s %12s %8s %10s %12s\n", "t (s)", "P_e (kW)", "SoE", "T_b (°C)", "P_cool (kW)")
	for i := 0; i < len(tr.Time); i += 60 {
		fmt.Fprintf(w, "%8.0f %12.1f %8.3f %10.2f %12.2f\n",
			tr.Time[i], tr.PowerRequest[i]/1e3, tr.SoE[i],
			units.KToC(tr.BatteryTemp[i]), tr.CoolerPower[i]/1e3)
	}
}
