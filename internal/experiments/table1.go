package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/runner"
	"repro/internal/sim"
)

// TableIResult reproduces the paper's Table I: average power and capacity
// loss for ultracapacitor sizes {5, 10, 20, 25} kF under the Parallel, Dual
// and OTEM methodologies on US06 ×5. Capacity losses are normalised to the
// parallel architecture at 25 kF (= 100 %), as in the paper.
type TableIResult struct {
	// SizesF are the swept bank sizes in farads (rows).
	SizesF []float64
	// MethodsList are the compared methodologies (columns).
	MethodsList []Methodology
	// Results[i][j] is the run at SizesF[i] under MethodsList[j].
	Results [][]sim.Result
	// BaselineLoss is the parallel@25 kF capacity loss used for the 100 %
	// normalisation.
	BaselineLoss float64
}

// TableIContext runs the size×methodology grid (12 simulations, 4 of them
// MPC) on the batch runner; a nil pool uses the defaults.
func TableIContext(ctx context.Context, pool *runner.Pool) (*TableIResult, error) {
	out := &TableIResult{
		SizesF:      []float64{5000, 10000, 20000, 25000},
		MethodsList: []Methodology{MethodParallel, MethodDual, MethodOTEM},
	}
	m := len(out.MethodsList)
	flat, err := runner.Map(ctx, pool, len(out.SizesF)*m,
		func(ctx context.Context, k int) (sim.Result, error) {
			size, meth := out.SizesF[k/m], out.MethodsList[k%m]
			res, err := RunContext(ctx, RunSpec{Method: meth, Cycle: "US06", Repeats: 5, UltracapF: size})
			if err != nil {
				return sim.Result{}, fmt.Errorf("table1 %.0fF/%s: %w", size, meth, err)
			}
			return res, nil
		})
	if err != nil {
		return nil, err
	}
	out.Results = make([][]sim.Result, len(out.SizesF))
	for i := range out.Results {
		out.Results[i] = flat[i*m : (i+1)*m : (i+1)*m]
	}
	// Normalisation: parallel at 25 kF.
	out.BaselineLoss = out.Results[len(out.SizesF)-1][0].QlossPct
	return out, nil
}

// LossPct returns the normalised capacity loss (percent of parallel@25 kF)
// for row i, column j.
func (r *TableIResult) LossPct(i, j int) float64 {
	return 100 * r.Results[i][j].QlossPct / r.BaselineLoss
}

// Write renders the table in the paper's layout.
func (r *TableIResult) Write(w io.Writer) {
	fmt.Fprintln(w, "Table I — Influence of ultracapacitor size, US06 ×5")
	fmt.Fprintf(w, "%-10s |", "Size (F)")
	for _, m := range r.MethodsList {
		fmt.Fprintf(w, " %12s", m+" P̄(W)")
	}
	fmt.Fprint(w, " |")
	for _, m := range r.MethodsList {
		fmt.Fprintf(w, " %12s", m+" Q(%)")
	}
	fmt.Fprintln(w)
	for i, size := range r.SizesF {
		fmt.Fprintf(w, "%-10.0f |", size)
		for j := range r.MethodsList {
			fmt.Fprintf(w, " %12.0f", r.Results[i][j].AvgPowerW)
		}
		fmt.Fprint(w, " |")
		for j := range r.MethodsList {
			fmt.Fprintf(w, " %12.2f", r.LossPct(i, j))
		}
		fmt.Fprintln(w)
	}
}
