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

// Fig1Result reproduces the paper's motivational case study (Fig. 1):
// battery temperature under the dual architecture's thermal management for
// several ultracapacitor sizes on US06. Small banks deplete before the
// battery is cooled, so the safe threshold is violated; large banks hold.
type Fig1Result struct {
	// SizesF are the ultracapacitor sizes in farads.
	SizesF []float64
	// Results holds the per-size run summaries, aligned with SizesF.
	Results []sim.Result
	// SafeTempK is the C1 threshold for reference.
	SafeTempK float64
}

// Fig1Context runs the case study: the dual thermal-management policy on
// US06 ×3 with 5 kF, 10 kF and 20 kF banks (the paper's Fig. 1 sizes), the
// three runs on the batch runner; a nil pool uses the defaults. At this
// route length the small banks deplete and cross the 40 °C threshold while
// the 20 kF bank holds below it — the paper's headline observation.
func Fig1Context(ctx context.Context, pool *runner.Pool) (*Fig1Result, error) {
	out := &Fig1Result{
		SizesF:    []float64{5000, 10000, 20000},
		SafeTempK: units.CToK(40),
	}
	results, err := runner.Map(ctx, pool, len(out.SizesF),
		func(ctx context.Context, i int) (sim.Result, error) {
			size := out.SizesF[i]
			res, err := RunContext(ctx, RunSpec{
				Method:    MethodDual,
				Cycle:     "US06",
				Repeats:   3,
				UltracapF: size,
				Trace:     true,
			})
			if err != nil {
				return sim.Result{}, fmt.Errorf("fig1 size %.0f F: %w", size, err)
			}
			return res, nil
		})
	if err != nil {
		return nil, err
	}
	out.Results = results
	return out, nil
}

// Write renders the figure as a table of peak temperatures and violation
// times plus downsampled temperature series.
func (r *Fig1Result) Write(w io.Writer) {
	fmt.Fprintln(w, "Fig. 1 — Battery temperature, dual thermal management, US06 ×3")
	fmt.Fprintf(w, "%-10s %12s %16s\n", "Size (F)", "Max T (°C)", "Violation (s)")
	for i, size := range r.SizesF {
		fmt.Fprintf(w, "%-10.0f %12.2f %16.0f\n",
			size, units.KToC(r.Results[i].MaxBatteryTemp), r.Results[i].ThermalViolationSec)
	}
	fmt.Fprintln(w)
	c := chart.New("battery temperature (°C) vs time — dual thermal management")
	c.YLabel = "°C"
	c.XLabel = "s"
	c.WithHLine(units.KToC(r.SafeTempK))
	for i, size := range r.SizesF {
		c.XMax = r.Results[i].Trace.Time[len(r.Results[i].Trace.Time)-1]
		c.Add(fmt.Sprintf("%.0fF", size), toCelsius(r.Results[i].Trace.BatteryTemp))
	}
	c.Render(w)
}
