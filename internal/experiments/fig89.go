package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/drivecycle"
	"repro/internal/runner"
	"repro/internal/sim"
)

// SweepResult holds the multi-cycle × multi-methodology sweep both Fig. 8
// (battery lifetime) and Fig. 9 (power consumption) are derived from —
// the paper runs the same simulations for both figures.
type SweepResult struct {
	// Cycles are the drive-cycle names (rows).
	Cycles []string
	// MethodsList are the methodology names (columns).
	MethodsList []Methodology
	// Results[i][j] is the run of Cycles[i] under MethodsList[j].
	Results [][]sim.Result
	// Repeats is how many times each cycle was repeated.
	Repeats int
}

// SweepContext runs the full cycle×methodology grid on the batch runner.
// This is the expensive experiment of the suite (24 simulations, four of
// them MPC); every run owns a fresh plant and controller and results land
// in fixed matrix slots, so the outcome is bit-identical at any
// parallelism. A zero repeats plays each cycle once and a negative count
// is an error. A nil pool uses the defaults (GOMAXPROCS workers).
func SweepContext(ctx context.Context, repeats int, pool *runner.Pool) (*SweepResult, error) {
	if repeats < 0 {
		return nil, fmt.Errorf("experiments: sweep repeats %d is negative", repeats)
	}
	if repeats == 0 {
		repeats = 1
	}
	out := &SweepResult{
		Cycles:      drivecycle.Names(),
		MethodsList: Methods(),
		Repeats:     repeats,
	}
	m := len(out.MethodsList)
	flat, err := runner.Map(ctx, pool, len(out.Cycles)*m,
		func(ctx context.Context, k int) (sim.Result, error) {
			cyc, meth := out.Cycles[k/m], out.MethodsList[k%m]
			res, err := RunContext(ctx, RunSpec{Method: meth, Cycle: cyc, Repeats: repeats})
			if err != nil {
				return sim.Result{}, fmt.Errorf("sweep %s/%s: %w", cyc, meth, err)
			}
			return res, nil
		})
	if err != nil {
		return nil, err
	}
	out.Results = make([][]sim.Result, len(out.Cycles))
	for i := range out.Results {
		out.Results[i] = flat[i*m : (i+1)*m : (i+1)*m]
	}
	return out, nil
}

func (s *SweepResult) methodIndex(method Methodology) int {
	for j, m := range s.MethodsList {
		if m == method {
			return j
		}
	}
	return -1
}

// Fig8Result is the paper's Fig. 8: the battery capacity-loss ratio of each
// methodology relative to the parallel architecture, per drive cycle.
type Fig8Result struct {
	*SweepResult
}

// Fig8 derives the lifetime comparison from a sweep.
func Fig8(s *SweepResult) *Fig8Result { return &Fig8Result{SweepResult: s} }

// Ratio returns capacity loss of (cycle i, method j) relative to parallel
// on the same cycle (parallel ≡ 1).
func (r *Fig8Result) Ratio(i, j int) float64 {
	p := r.methodIndex(MethodParallel)
	return r.Results[i][j].BLTRatio(r.Results[i][p])
}

// OTEMAvgReductionPct returns the headline number: the average capacity-loss
// reduction of OTEM vs the parallel architecture across cycles (paper:
// 16.38 %, abstract 16.8 % BLT improvement).
func (r *Fig8Result) OTEMAvgReductionPct() float64 {
	o := r.methodIndex(MethodOTEM)
	var sum float64
	for i := range r.Cycles {
		sum += 1 - r.Ratio(i, o)
	}
	return 100 * sum / float64(len(r.Cycles))
}

// Write renders the per-cycle loss-ratio table.
func (r *Fig8Result) Write(w io.Writer) {
	fmt.Fprintf(w, "Fig. 8 — Capacity-loss ratio vs Parallel, cycles ×%d, 25 kF\n", r.Repeats)
	fmt.Fprintf(w, "%-8s", "Cycle")
	for _, m := range r.MethodsList {
		fmt.Fprintf(w, " %14s", m)
	}
	fmt.Fprintln(w)
	for i, cyc := range r.Cycles {
		fmt.Fprintf(w, "%-8s", cyc)
		for j := range r.MethodsList {
			fmt.Fprintf(w, " %14.3f", r.Ratio(i, j))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "\nOTEM average capacity-loss reduction vs Parallel: %.1f %% (paper: 16.38 %%)\n",
		r.OTEMAvgReductionPct())
}

// Fig9Result is the paper's Fig. 9: average power consumption (EV plus
// active cooling) per methodology per cycle.
type Fig9Result struct {
	*SweepResult
}

// Fig9 derives the power comparison from a sweep.
func Fig9(s *SweepResult) *Fig9Result { return &Fig9Result{SweepResult: s} }

// AvgPower returns the average power of (cycle i, method j), watts.
func (r *Fig9Result) AvgPower(i, j int) float64 { return r.Results[i][j].AvgPowerW }

// OTEMSavingVsCoolingPct returns the headline number: OTEM's average power
// reduction vs the pure active-cooling methodology across cycles (paper:
// 12.1 %).
func (r *Fig9Result) OTEMSavingVsCoolingPct() float64 {
	o := r.methodIndex(MethodOTEM)
	c := r.methodIndex(MethodCooling)
	var sum float64
	for i := range r.Cycles {
		sum += 1 - r.Results[i][o].AvgPowerW/r.Results[i][c].AvgPowerW
	}
	return 100 * sum / float64(len(r.Cycles))
}

// Write renders the per-cycle average-power table.
func (r *Fig9Result) Write(w io.Writer) {
	fmt.Fprintf(w, "Fig. 9 — Average power consumption (W), cycles ×%d, 25 kF\n", r.Repeats)
	fmt.Fprintf(w, "%-8s", "Cycle")
	for _, m := range r.MethodsList {
		fmt.Fprintf(w, " %14s", m)
	}
	fmt.Fprintln(w)
	for i, cyc := range r.Cycles {
		fmt.Fprintf(w, "%-8s", cyc)
		for j := range r.MethodsList {
			fmt.Fprintf(w, " %14.0f", r.AvgPower(i, j))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "\nOTEM average power saving vs ActiveCooling: %.1f %% (paper: 12.1 %%)\n",
		r.OTEMSavingVsCoolingPct())
}
