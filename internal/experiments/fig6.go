package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/chart"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/units"
)

// Fig6Result reproduces the paper's Fig. 6: the battery temperature over
// US06 ×5 (25 kF bank) for each methodology. The paper's claim: the dual
// architecture reacts only at its threshold, while OTEM keeps the
// temperature lower throughout by jointly scheduling the cooler and the
// ultracapacitor.
type Fig6Result struct {
	// MethodsList holds the methodology names.
	MethodsList []Methodology
	// Results holds the per-method runs with traces, aligned to MethodsList.
	Results []sim.Result
}

// Fig6 runs all four methodologies on the Fig. 6 workload with the default
// pool. See Fig6Context.
func Fig6() (*Fig6Result, error) {
	return Fig6Context(context.Background(), nil)
}

// Fig6Context runs the per-methodology traced simulations on the batch
// runner; a nil pool uses the defaults.
func Fig6Context(ctx context.Context, pool *runner.Pool) (*Fig6Result, error) {
	out := &Fig6Result{MethodsList: Methods()}
	results, err := runner.Map(ctx, pool, len(out.MethodsList),
		func(ctx context.Context, i int) (sim.Result, error) {
			m := out.MethodsList[i]
			res, err := RunContext(ctx, RunSpec{Method: m, Cycle: "US06", Repeats: 5, Trace: true})
			if err != nil {
				return sim.Result{}, fmt.Errorf("fig6 %s: %w", m, err)
			}
			return res, nil
		})
	if err != nil {
		return nil, err
	}
	out.Results = results
	return out, nil
}

// Write renders peak/average temperatures per methodology plus series.
func (r *Fig6Result) Write(w io.Writer) {
	fmt.Fprintln(w, "Fig. 6 — Battery temperature per methodology, US06 ×5, 25 kF")
	fmt.Fprintf(w, "%-14s %12s %12s %16s\n", "Methodology", "Max T (°C)", "Avg T (°C)", "Violation (s)")
	for i, m := range r.MethodsList {
		res := r.Results[i]
		fmt.Fprintf(w, "%-14s %12.2f %12.2f %16.0f\n",
			m, units.KToC(res.MaxBatteryTemp), units.KToC(res.AvgBatteryTemp), res.ThermalViolationSec)
	}
	fmt.Fprintln(w)
	c := chart.New("battery temperature (°C) vs time — US06 ×5, 25 kF")
	c.YLabel = "°C"
	c.XLabel = "s"
	c.WithHLine(40)
	for i, m := range r.MethodsList {
		c.XMax = r.Results[i].Trace.Time[len(r.Results[i].Trace.Time)-1]
		c.Add(string(m), toCelsius(r.Results[i].Trace.BatteryTemp))
	}
	c.Render(w)
}
