// Package dse implements the design-space exploration the paper defers
// ("the design space exploration for the HEES and active battery cooling
// system in terms of size and cost is out of the scope of this paper"):
// it sweeps ultracapacitor size × cooler capacity under a chosen
// methodology, prices each design, and extracts the Pareto frontier of
// cost versus battery capacity loss subject to the thermal-safety
// constraint.
package dse

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"

	"repro/internal/canon"
	"repro/internal/cooling"
	"repro/internal/core"
	"repro/internal/core/floats"
	"repro/internal/drivecycle"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/vehicle"
)

// Design is one point of the space.
type Design struct {
	// UltracapF is the bank nameplate capacitance, farads.
	UltracapF float64
	// CoolerMaxPower is the cooler electrical capacity, watts.
	CoolerMaxPower float64
}

// CostModel prices a design.
type CostModel struct {
	// DollarsPerFarad follows the paper's ≈$12,000 / 20,000 F quote.
	DollarsPerFarad float64
	// DollarsPerCoolerWatt prices the chiller capacity.
	DollarsPerCoolerWatt float64
}

// DefaultCostModel uses the paper's ultracapacitor pricing and a typical
// automotive chiller cost.
func DefaultCostModel() CostModel {
	return CostModel{DollarsPerFarad: 0.6, DollarsPerCoolerWatt: 0.25}
}

// Price returns the component cost of a design in dollars.
func (c CostModel) Price(d Design) float64 {
	return c.DollarsPerFarad*d.UltracapF + c.DollarsPerCoolerWatt*d.CoolerMaxPower
}

// Evaluation is a priced, simulated design point.
type Evaluation struct {
	Design
	// CostDollars is the component cost.
	CostDollars float64
	// QlossPct, AvgPowerW, MaxTempK and ViolationSec summarise the run.
	QlossPct     float64
	AvgPowerW    float64
	MaxTempK     float64
	ViolationSec float64
}

// Feasible reports whether the design held the thermal-safety constraint.
func (e Evaluation) Feasible() bool { return floats.Zero(e.ViolationSec) }

// Config describes an exploration.
type Config struct {
	// UltracapSizesF and CoolerPowersW span the grid.
	UltracapSizesF []float64
	CoolerPowersW  []float64
	// Cycle and Repeats define the workload (default US06 ×3).
	Cycle   string
	Repeats int
	// Cost prices the designs (default DefaultCostModel).
	Cost CostModel
}

func (c Config) withDefaults() Config {
	if len(c.UltracapSizesF) == 0 {
		c.UltracapSizesF = []float64{5000, 10000, 15000, 20000, 25000}
	}
	if len(c.CoolerPowersW) == 0 {
		c.CoolerPowersW = []float64{2e3, 4e3, 8e3, 12e3}
	}
	if c.Cycle == "" {
		c.Cycle = "US06"
	}
	if c.Repeats < 1 {
		c.Repeats = 3
	}
	//lint:ignore floatcompare the zero-value CostModel is the documented use-defaults sentinel; exact compare intended
	if c.Cost == (CostModel{}) {
		c.Cost = DefaultCostModel()
	}
	return c
}

// AppendCanonical implements the canonical-encoding contract (see package
// canon) over the defaulted grid, workload and cost model.
func (c Config) AppendCanonical(dst []byte) []byte {
	c = c.withDefaults()
	dst = append(dst, "otem.dse"...)
	dst = canon.Floats(dst, "u", c.UltracapSizesF)
	dst = canon.Floats(dst, "p", c.CoolerPowersW)
	dst = canon.Str(dst, "c", c.Cycle)
	dst = canon.Int(dst, "r", c.Repeats)
	dst = canon.Float(dst, "cf", c.Cost.DollarsPerFarad)
	dst = canon.Float(dst, "cw", c.Cost.DollarsPerCoolerWatt)
	return dst
}

// Result holds the explored grid and its Pareto frontier.
type Result struct {
	// Evaluations lists every design point, grid order (sizes × coolers).
	Evaluations []Evaluation
	// ParetoIdx indexes the feasible, non-dominated points (minimising
	// cost and capacity loss), sorted by cost.
	ParetoIdx []int
	// Config echoes the exploration setup.
	Config Config
}

// ExploreContext evaluates the size×cooler grid on the batch runner: every
// design point is an independent simulation job, results land in grid
// order, and canceling ctx aborts the exploration mid-grid with an error
// matching runner.ErrCanceled. A nil pool uses the defaults (GOMAXPROCS
// workers).
func ExploreContext(ctx context.Context, cfg Config, pool *runner.Pool) (*Result, error) {
	cfg = cfg.withDefaults()
	cycle, err := drivecycle.ByName(cfg.Cycle)
	if err != nil {
		return nil, err
	}
	requests := vehicle.MidSizeEV().PowerSeries(cycle.Repeat(cfg.Repeats))

	cols := len(cfg.CoolerPowersW)
	n := len(cfg.UltracapSizesF) * cols
	evals, err := runner.Map(ctx, pool, n,
		func(ctx context.Context, k int) (Evaluation, error) {
			size := cfg.UltracapSizesF[k/cols]
			cool := cfg.CoolerPowersW[k%cols]
			return evaluate(ctx, size, cool, requests, cfg.Cost)
		})
	if err != nil {
		return nil, err
	}
	out := &Result{Evaluations: evals, Config: cfg}
	out.ParetoIdx = paretoFront(out.Evaluations)
	return out, nil
}

func evaluate(ctx context.Context, size, coolerMax float64, requests []float64, cost CostModel) (Evaluation, error) {
	coolParams := cooling.DefaultParams()
	coolParams.MaxCoolerPower = coolerMax
	plant, err := sim.NewPlant(sim.PlantConfig{UltracapF: size, Cooling: &coolParams})
	if err != nil {
		return Evaluation{}, err
	}
	ctrl, err := core.New(core.DefaultConfig())
	if err != nil {
		return Evaluation{}, err
	}
	res, err := sim.RunContext(ctx, plant, ctrl, requests, sim.Config{Horizon: core.DefaultConfig().Horizon})
	if err != nil {
		return Evaluation{}, fmt.Errorf("dse %gF/%gW: %w", size, coolerMax, err)
	}
	d := Design{UltracapF: size, CoolerMaxPower: coolerMax}
	return Evaluation{
		Design:       d,
		CostDollars:  cost.Price(d),
		QlossPct:     res.QlossPct,
		AvgPowerW:    res.AvgPowerW,
		MaxTempK:     res.MaxBatteryTemp,
		ViolationSec: res.ThermalViolationSec,
	}, nil
}

// paretoFront returns the indices of feasible designs not dominated in
// (cost, capacity loss): a design dominates another when it is no worse in
// both objectives and strictly better in at least one.
func paretoFront(evals []Evaluation) []int {
	var front []int
	for i, a := range evals {
		if !a.Feasible() {
			continue
		}
		dominated := false
		for j, b := range evals {
			if i == j || !b.Feasible() {
				continue
			}
			if b.CostDollars <= a.CostDollars && b.QlossPct <= a.QlossPct &&
				(b.CostDollars < a.CostDollars || b.QlossPct < a.QlossPct) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, i)
		}
	}
	sort.Slice(front, func(x, y int) bool {
		return evals[front[x]].CostDollars < evals[front[y]].CostDollars
	})
	return front
}

// ErrEmptyFront is returned by Best when no feasible design exists.
var ErrEmptyFront = errors.New("dse: no feasible design on the frontier")

// Best returns the cheapest Pareto design whose capacity loss is within
// the given multiple of the frontier's best loss (e.g. 1.1 = within 10 %).
func (r *Result) Best(lossSlack float64) (Evaluation, error) {
	if len(r.ParetoIdx) == 0 {
		return Evaluation{}, ErrEmptyFront
	}
	bestLoss := r.Evaluations[r.ParetoIdx[0]].QlossPct
	for _, i := range r.ParetoIdx {
		if l := r.Evaluations[i].QlossPct; l < bestLoss {
			bestLoss = l
		}
	}
	for _, i := range r.ParetoIdx { // sorted by cost ascending
		if r.Evaluations[i].QlossPct <= bestLoss*lossSlack {
			return r.Evaluations[i], nil
		}
	}
	return r.Evaluations[r.ParetoIdx[0]], nil
}

// Write renders the grid and the frontier.
func (r *Result) Write(w io.Writer) {
	fmt.Fprintf(w, "Design-space exploration — OTEM on %s ×%d\n", r.Config.Cycle, r.Config.Repeats)
	fmt.Fprintf(w, "%-10s %-10s %10s %12s %12s %10s %8s\n",
		"ucap (F)", "cooler(W)", "cost ($)", "loss (%)", "avg P (W)", "maxT (K)", "pareto")
	onFront := map[int]bool{}
	for _, i := range r.ParetoIdx {
		onFront[i] = true
	}
	for i, e := range r.Evaluations {
		mark := ""
		if onFront[i] {
			mark = "*"
		}
		if !e.Feasible() {
			mark = "viol"
		}
		fmt.Fprintf(w, "%-10.0f %-10.0f %10.0f %12.6f %12.0f %10.2f %8s\n",
			e.UltracapF, e.CoolerMaxPower, e.CostDollars, e.QlossPct, e.AvgPowerW, e.MaxTempK, mark)
	}
}
