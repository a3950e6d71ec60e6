package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/cooling"
	"repro/internal/runner"
	"repro/internal/thermal"
	"repro/internal/units"
)

// HotspotRow reports the distributed-model replay of one methodology.
type HotspotRow struct {
	// Method is the methodology name.
	Method Methodology
	// LumpedMaxT is the peak battery temperature the lumped (two-node)
	// plant reported, kelvin.
	LumpedMaxT float64
	// DistributedMaxT is the peak module temperature when the same heat
	// and cooling profile is replayed through the N-module network.
	DistributedMaxT float64
	// MaxGradient is the largest hot-to-cold module spread observed.
	MaxGradient float64
	// ViolationSec counts seconds any module exceeded the safe limit
	// (versus the lumped model's count).
	ViolationSec float64
}

// HotspotResult validates the paper's lumped-model simplification (§II-D:
// "we can simplify the heat exchange model … without affecting the
// concept"): the controller runs on the lumped model; the distributed
// model replays the identical heat/cooling profile and reports how much
// hotter the worst module gets.
type HotspotResult struct {
	// Modules is the channel discretisation used.
	Modules int
	// Rows holds one replay per methodology.
	Rows []HotspotRow
}

// HotspotContext runs the study for the parallel baseline and OTEM on
// US06 ×3: the per-methodology simulate-then-replay chains run on the
// batch runner; a nil pool uses the defaults.
func HotspotContext(ctx context.Context, pool *runner.Pool) (*HotspotResult, error) {
	const modules = 8
	methods := []Methodology{MethodParallel, MethodOTEM}
	rows, err := runner.Map(ctx, pool, len(methods),
		func(ctx context.Context, i int) (HotspotRow, error) {
			m := methods[i]
			res, err := RunContext(ctx, RunSpec{Method: m, Cycle: "US06", Repeats: 3, Trace: true})
			if err != nil {
				return HotspotRow{}, fmt.Errorf("hotspot %s: %w", m, err)
			}
			row, err := replayDistributed(m, res.Trace.BatteryHeat, res.Trace.CoolerPower, modules)
			if err != nil {
				return HotspotRow{}, err
			}
			row.LumpedMaxT = res.MaxBatteryTemp
			return row, nil
		})
	if err != nil {
		return nil, err
	}
	return &HotspotResult{Modules: modules, Rows: rows}, nil
}

// replayDistributed drives the N-module network with a recorded heat and
// cooling-power profile.
func replayDistributed(method Methodology, heat, coolPower []float64, modules int) (HotspotRow, error) {
	params := cooling.DefaultParams()
	net, err := thermal.NewPackNetwork(params, modules, 298)
	if err != nil {
		return HotspotRow{}, err
	}
	row := HotspotRow{Method: method}
	safe := units.CToK(40)
	ambient := 298.0
	for i := range heat {
		if coolPower[i] > params.PumpPower/2 {
			// Invert Eq. 16 against the network's own outlet temperature.
			pc := coolPower[i] - params.PumpPower
			ti := net.OutletTemp() - params.CoolerEfficiency*pc/params.FlowHeatRate
			if ti < params.MinInletTemp {
				ti = params.MinInletTemp
			}
			err = net.StepActive(heat[i], ti, 1)
		} else {
			err = net.StepPassive(heat[i], ambient, 1)
		}
		if err != nil {
			return HotspotRow{}, err
		}
		if t := net.MaxBatteryTemp(); t > row.DistributedMaxT {
			row.DistributedMaxT = t
		}
		if g := net.Gradient(); g > row.MaxGradient {
			row.MaxGradient = g
		}
		if net.MaxBatteryTemp() > safe {
			row.ViolationSec++
		}
	}
	return row, nil
}

// Write renders the study.
func (r *HotspotResult) Write(w io.Writer) {
	fmt.Fprintf(w, "Hotspot study — lumped vs %d-module distributed pack (US06 ×3)\n", r.Modules)
	fmt.Fprintf(w, "%-12s %14s %18s %14s %16s\n",
		"Method", "lumped max °C", "distributed max °C", "gradient K", "module viol. s")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-12s %14.2f %18.2f %14.2f %16.0f\n",
			row.Method, units.KToC(row.LumpedMaxT), units.KToC(row.DistributedMaxT),
			row.MaxGradient, row.ViolationSec)
	}
}
