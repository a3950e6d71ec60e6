package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/hmpc"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/units"
)

// HMPCScenario is one preview scenario of the flat-versus-hierarchical
// comparison: a named route (registered cycle or synthesized usage route)
// at a fixed ambient.
type HMPCScenario struct {
	// Name labels the row.
	Name string
	// Spec is the hierarchical spec; the flat baseline is derived from it
	// by collapsing the outer layer (see collapse).
	Spec hmpc.Spec
}

// HMPCRow holds the flat and hierarchical runs of one scenario.
type HMPCRow struct {
	Scenario HMPCScenario
	// Flat is the collapsed-outer run: bit-identical to the single-layer
	// OTEM controller on the same plant and realized power series (the
	// identity is property-tested in the otem package), so the baseline
	// sees exactly the same route, ambient and ultracapacitor bank.
	Flat *hmpc.Result
	// Hier is the two-layer run with route preview enabled.
	Hier *hmpc.Result
}

// EnergySavedPct is the hierarchical HEES energy saving relative to flat.
func (r HMPCRow) EnergySavedPct() float64 {
	return 100 * (r.Flat.HEESEnergyJ - r.Hier.HEESEnergyJ) / r.Flat.HEESEnergyJ
}

// QlossSavedPct is the hierarchical capacity-loss saving relative to flat.
func (r HMPCRow) QlossSavedPct() float64 {
	return 100 * (r.Flat.QlossPct - r.Hier.QlossPct) / r.Flat.QlossPct
}

// PeakTempDropK is how much cooler the hierarchical peak pack temperature
// runs (positive = cooler).
func (r HMPCRow) PeakTempDropK() float64 {
	return r.Flat.MaxBatteryTemp - r.Hier.MaxBatteryTemp
}

// EqualComfort reports whether both runs kept the pack inside the thermal
// limit for the same number of seconds — the comparison is only fair at
// equal comfort.
func (r HMPCRow) EqualComfort() bool {
	//lint:ignore floatcompare violation seconds are whole-second counters accumulated in steps of 1; exact compare intended
	return r.Flat.ThermalViolationSec == r.Hier.ThermalViolationSec
}

// Wins reports whether the hierarchical run beats flat at equal comfort,
// in either of the two ways route preview can pay off:
//
//   - the efficiency win: less HEES energy without aging regression (the
//     preview lets the planner bank ultracapacitor charge before demand
//     peaks instead of reacting to them), or
//   - the thermal win: a cooler peak pack temperature AND less capacity
//     loss (the planner pre-cools ahead of a predicted hot stretch),
//     possibly spending extra cooling energy to buy it — the paper's
//     headline trade.
func (r HMPCRow) Wins() bool {
	if !r.EqualComfort() {
		return false
	}
	const eps = 0.05 // percent / kelvin noise floor
	efficiency := r.EnergySavedPct() > eps && r.QlossSavedPct() > -eps
	thermal := r.QlossSavedPct() > eps && r.PeakTempDropK() > eps
	return efficiency || thermal
}

// HMPCResult is the flat-versus-two-layer comparison over the preview
// scenarios.
type HMPCResult struct {
	Rows []HMPCRow
}

// HMPCScenarios returns the committed comparison grid: hot-ambient routes
// where the outer layer's route preview (upcoming highway merges, long
// grades, duty transitions) is informative. 308 K ≈ 35 °C.
func HMPCScenarios() []HMPCScenario {
	return []HMPCScenario{
		{Name: "UDDS @35°C", Spec: hmpc.Spec{Cycle: "UDDS", AmbientK: 308}},
		{Name: "US06 @37°C", Spec: hmpc.Spec{Cycle: "US06", AmbientK: 310}},
		{Name: "commuter @35°C", Spec: hmpc.Spec{Usage: "commuter", RouteSeconds: 900, Seed: 1, AmbientK: 308}},
		{Name: "highway @35°C", Spec: hmpc.Spec{Usage: "highway", RouteSeconds: 900, Seed: 1, AmbientK: 308}},
	}
}

// collapse derives the flat baseline spec: a single outer block with every
// tracking weight and divergence tolerance explicitly disabled (negative is
// the off switch), which reduces the stack to the plain OTEM controller.
func collapse(s hmpc.Spec) hmpc.Spec {
	s.MaxBlocks = 1
	s.SoCRefWeight, s.TempRefWeight = -1, -1
	s.SoCTol, s.TempTolK = -1, -1
	s.OuterSoCTol, s.OuterTempTolK = -1, -1
	return s
}

// HMPCCompareContext runs flat and hierarchical simulations for every
// scenario on the batch runner; a nil pool uses the defaults.
func HMPCCompareContext(ctx context.Context, pool *runner.Pool, scenarios []HMPCScenario) (*HMPCResult, error) {
	// Flatten to 2N independent runs: even index = flat, odd = hierarchical.
	runs, err := runner.Map(ctx, pool, 2*len(scenarios),
		func(ctx context.Context, k int) (*hmpc.Result, error) {
			sc := scenarios[k/2]
			spec := sc.Spec
			if k%2 == 0 {
				spec = collapse(spec)
			}
			res, err := hmpc.Run(ctx, spec, sim.Config{})
			if err != nil {
				return nil, fmt.Errorf("hmpc %s: %w", sc.Name, err)
			}
			return res, nil
		})
	if err != nil {
		return nil, err
	}
	out := &HMPCResult{Rows: make([]HMPCRow, len(scenarios))}
	for i, sc := range scenarios {
		out.Rows[i] = HMPCRow{Scenario: sc, Flat: runs[2*i], Hier: runs[2*i+1]}
	}
	return out, nil
}

// Write renders the comparison table.
func (r *HMPCResult) Write(w io.Writer) {
	fmt.Fprintln(w, "Hierarchical MPC — flat OTEM vs two-layer route preview (equal comfort)")
	fmt.Fprintf(w, "%-16s %10s %10s %9s %9s %8s %8s %6s %5s\n",
		"Scenario", "flat MJ", "hmpc MJ", "ΔE %", "ΔQloss %", "flat °C", "hmpc °C", "ΔT K", "win")
	for _, row := range r.Rows {
		win := " "
		if row.Wins() {
			win = "✓"
		}
		fmt.Fprintf(w, "%-16s %10.2f %10.2f %9.2f %9.2f %8.2f %8.2f %6.2f %5s\n",
			row.Scenario.Name,
			row.Flat.HEESEnergyJ/1e6, row.Hier.HEESEnergyJ/1e6,
			row.EnergySavedPct(), row.QlossSavedPct(),
			units.KToC(row.Flat.MaxBatteryTemp), units.KToC(row.Hier.MaxBatteryTemp),
			row.PeakTempDropK(), win)
	}
}
