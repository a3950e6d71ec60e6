package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"repro/internal/battery"
	"repro/internal/bms"
	"repro/internal/core"
	"repro/internal/drivecycle"
	"repro/internal/forecast"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/vehicle"
)

// This file implements the ablation studies DESIGN.md lists as extensions
// beyond the paper: MPC horizon sweeps, cost-weight ablations and
// sensitivity to imperfect power-request forecasts (the paper assumes the
// estimated P_e is exact; a deployed OTEM would not have that luxury).

// AblationRow is one configuration of an ablation study.
type AblationRow struct {
	// Label names the configuration.
	Label string
	// Result is the run summary.
	Result sim.Result
}

// AblationResult is a labelled list of runs on a common workload.
type AblationResult struct {
	// Title describes the study.
	Title string
	// Rows holds the per-configuration results.
	Rows []AblationRow
}

// Write renders the ablation as a table.
func (r *AblationResult) Write(w io.Writer) {
	fmt.Fprintln(w, r.Title)
	fmt.Fprintf(w, "%-24s %14s %12s %14s %12s\n",
		"configuration", "loss (%)", "avg P (W)", "violation (s)", "final SoE")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-24s %14.6f %12.0f %14.0f %12.3f\n",
			row.Label, row.Result.QlossPct, row.Result.AvgPowerW,
			row.Result.ThermalViolationSec, row.Result.FinalSoE)
	}
}

// ablationWorkload is the common route for the studies: US06 ×3.
func ablationWorkload() []float64 {
	return vehicle.MidSizeEV().PowerSeries(mustCycle("US06").Repeat(3))
}

func mustCycle(name string) *drivecycle.Cycle {
	c, err := drivecycle.ByName(name)
	if err != nil {
		panic("experiments: " + err.Error())
	}
	return c
}

func runOTEMConfig(ctx context.Context, label string, cfg core.Config, requests []float64, wrap func(sim.Controller) sim.Controller) (AblationRow, error) {
	plant, err := sim.NewPlant(sim.PlantConfig{})
	if err != nil {
		return AblationRow{}, err
	}
	var ctrl sim.Controller
	ctrl, err = core.New(cfg)
	if err != nil {
		return AblationRow{}, err
	}
	if wrap != nil {
		ctrl = wrap(ctrl)
	}
	res, err := sim.RunContext(ctx, plant, ctrl, requests, sim.Config{Horizon: cfg.Horizon})
	if err != nil {
		return AblationRow{}, fmt.Errorf("ablation %s: %w", label, err)
	}
	return AblationRow{Label: label, Result: res}, nil
}

// runStudy evaluates the variants of one ablation study on the batch
// runner; the rows keep the declared variant order regardless of
// completion order.
func runStudy(ctx context.Context, pool *runner.Pool, title string, n int, variant func(ctx context.Context, i int) (AblationRow, error)) (*AblationResult, error) {
	rows, err := runner.Map(ctx, pool, n, variant)
	if err != nil {
		return nil, err
	}
	return &AblationResult{Title: title, Rows: rows}, nil
}

// AblationHorizonContext sweeps the MPC control-window size (paper Alg. 1 line 4):
// too short a window cannot prepare TEB; longer windows cost compute for
// diminishing returns.
// It runs on the batch runner; a nil pool uses the defaults.
func AblationHorizonContext(ctx context.Context, pool *runner.Pool) (*AblationResult, error) {
	requests := ablationWorkload()
	horizons := []int{8, 16, 40, 80}
	return runStudy(ctx, pool, "Ablation — MPC horizon (US06 ×3, 25 kF)", len(horizons),
		func(ctx context.Context, i int) (AblationRow, error) {
			h := horizons[i]
			cfg := core.DefaultConfig()
			cfg.Horizon = h
			if cfg.BlockSize > h {
				cfg.BlockSize = h
			}
			return runOTEMConfig(ctx, fmt.Sprintf("horizon=%ds", h), cfg, requests, nil)
		})
}

// AblationWeightsContext disables each Eq. 19 cost term in turn, showing what each
// contributes to the joint optimisation.
// It runs on the batch runner; a nil pool uses the defaults.
func AblationWeightsContext(ctx context.Context, pool *runner.Pool) (*AblationResult, error) {
	requests := ablationWorkload()
	variants := []struct {
		label string
		mut   func(*core.Config)
	}{
		{"full objective", func(*core.Config) {}},
		{"w1=0 (free cooling)", func(c *core.Config) { c.W1 = 0 }},
		{"w2=0 (no aging term)", func(c *core.Config) { c.W2 = 0 }},
		{"w3=0 (free energy)", func(c *core.Config) { c.W3 = 0 }},
		{"no TEB value", func(c *core.Config) { c.TEBWeight = 0 }},
		{"no temp pressure", func(c *core.Config) { c.TempPressureWeight = 0 }},
	}
	return runStudy(ctx, pool, "Ablation — Eq. 19 cost terms (US06 ×3, 25 kF)", len(variants),
		func(ctx context.Context, i int) (AblationRow, error) {
			cfg := core.DefaultConfig()
			variants[i].mut(&cfg)
			return runOTEMConfig(ctx, variants[i].label, cfg, requests, nil)
		})
}

// NoisyForecast wraps a controller and corrupts the future entries of the
// forecast with multiplicative Gaussian noise before delegating, leaving
// the current step exact (the present request is measurable; only the
// prediction is uncertain). It models an imperfect route predictor.
type NoisyForecast struct {
	// Inner is the wrapped controller.
	Inner sim.Controller
	// Sigma is the relative noise level (e.g. 0.2 = ±20 %).
	Sigma float64

	rng *rand.Rand
	buf []float64
}

// NewNoisyForecast wraps inner with deterministic (seeded) forecast noise.
func NewNoisyForecast(inner sim.Controller, sigma float64, seed int64) *NoisyForecast {
	return &NoisyForecast{Inner: inner, Sigma: sigma, rng: rand.New(rand.NewSource(seed))}
}

// Name implements sim.Controller.
func (n *NoisyForecast) Name() string {
	return fmt.Sprintf("%s+noise(%.0f%%)", n.Inner.Name(), n.Sigma*100)
}

// Decide implements sim.Controller.
func (n *NoisyForecast) Decide(p *sim.Plant, forecast []float64) sim.Action {
	if cap(n.buf) < len(forecast) {
		n.buf = make([]float64, len(forecast))
	}
	noisy := n.buf[:len(forecast)]
	copy(noisy, forecast)
	for k := 1; k < len(noisy); k++ {
		noisy[k] *= 1 + n.Sigma*n.rng.NormFloat64()
	}
	return n.Inner.Decide(p, noisy)
}

// AblationNoiseContext measures OTEM's sensitivity to forecast error.
// It runs on the batch runner; a nil pool uses the defaults.
func AblationNoiseContext(ctx context.Context, pool *runner.Pool) (*AblationResult, error) {
	requests := ablationWorkload()
	sigmas := []float64{0, 0.1, 0.3, 0.6}
	return runStudy(ctx, pool, "Ablation — forecast noise (US06 ×3, 25 kF)", len(sigmas),
		func(ctx context.Context, i int) (AblationRow, error) {
			sigma := sigmas[i]
			cfg := core.DefaultConfig()
			var wrap func(sim.Controller) sim.Controller
			if sigma > 0 {
				wrap = func(inner sim.Controller) sim.Controller {
					return NewNoisyForecast(inner, sigma, 1)
				}
			}
			return runOTEMConfig(ctx, fmt.Sprintf("sigma=%.0f%%", sigma*100), cfg, requests, wrap)
		})
}

// AblationPredictorContext replaces the oracle forecast with realistic predictors
// (see the forecast package) and measures how much of OTEM's advantage
// survives: the paper's evaluation assumes perfect P̂_e; a deployed system
// would not have it.
// It runs on the batch runner; a nil pool uses the defaults.
func AblationPredictorContext(ctx context.Context, pool *runner.Pool) (*AblationResult, error) {
	requests := ablationWorkload()
	// Train the Markov predictor on different cycles than the evaluation
	// route (no leakage).
	train := [][]float64{
		vehicle.MidSizeEV().PowerSeries(mustCycle("LA92")),
		vehicle.MidSizeEV().PowerSeries(mustCycle("UDDS")),
	}
	markov, err := forecast.TrainMarkov(train, 16)
	if err != nil {
		return nil, err
	}
	predictors := []struct {
		label string
		make  func() forecast.Predictor
	}{
		{"oracle (paper)", nil},
		{"persistence", func() forecast.Predictor { return forecast.Persistence{} }},
		{"decay(tau=8s)", func() forecast.Predictor { return forecast.NewDecay(8) }},
		{"markov(16 bins)", func() forecast.Predictor { return markov }},
	}
	return runStudy(ctx, pool, "Ablation — forecast realism (US06 ×3, 25 kF)", len(predictors),
		func(ctx context.Context, i int) (AblationRow, error) {
			p := predictors[i]
			cfg := core.DefaultConfig()
			var wrap func(sim.Controller) sim.Controller
			if p.make != nil {
				pred := p.make() // fresh predictor per job: no shared state
				wrap = func(inner sim.Controller) sim.Controller { return forecast.Wrap(inner, pred) }
			}
			return runOTEMConfig(ctx, p.label, cfg, requests, wrap)
		})
}

// AblationSensingContext replaces the oracle SoC with the EKF estimate (see the
// bms package): a deployed OTEM would plan against an estimated state.
// It runs on the batch runner; a nil pool uses the defaults.
func AblationSensingContext(ctx context.Context, pool *runner.Pool) (*AblationResult, error) {
	requests := ablationWorkload()
	variants := []struct {
		label      string
		initialSoC float64
		noiseV     float64
	}{
		{"oracle SoC (paper)", -1, 0},
		{"EKF, good prior", 0.95, 0.5},
		{"EKF, bad prior", 0.50, 1.0},
	}
	return runStudy(ctx, pool, "Ablation — state sensing (US06 ×3, 25 kF)", len(variants),
		func(ctx context.Context, i int) (AblationRow, error) {
			v := variants[i]
			cfg := core.DefaultConfig()
			var wrap func(sim.Controller) sim.Controller
			if v.initialSoC >= 0 {
				// Estimator built inside the job: it is stateful and must not
				// be shared across concurrent variants.
				est, err := bms.NewSoCEstimator(battery.NCR18650A(), 96, 24, v.initialSoC, 0.05)
				if err != nil {
					return AblationRow{}, err
				}
				est.MeasurementNoise = v.noiseV * v.noiseV
				wrap = func(inner sim.Controller) sim.Controller {
					return bms.NewSensedController(inner, est, v.noiseV, 1)
				}
			}
			return runOTEMConfig(ctx, v.label, cfg, requests, wrap)
		})
}

// AblationChemistryContext runs OTEM on the NCA-class default pack versus an
// LFP-class pack of comparable bus voltage, showing the methodology is
// chemistry-agnostic (the paper: "will not contradict our methodology").
// It runs on the batch runner; a nil pool uses the defaults.
func AblationChemistryContext(ctx context.Context, pool *runner.Pool) (*AblationResult, error) {
	requests := ablationWorkload()
	variants := []struct {
		label    string
		cell     battery.CellParams
		series   int
		parallel int
	}{
		{"NCA 96S24P (default)", battery.NCR18650A(), 96, 24},
		{"LFP 112S30P", battery.LFP26650(), 112, 30},
	}
	return runStudy(ctx, pool, "Ablation — cell chemistry (US06 ×3, 25 kF)", len(variants),
		func(ctx context.Context, i int) (AblationRow, error) {
			v := variants[i]
			cell := v.cell
			plant, err := sim.NewPlant(sim.PlantConfig{
				Cell:         &cell,
				PackSeries:   v.series,
				PackParallel: v.parallel,
			})
			if err != nil {
				return AblationRow{}, err
			}
			ctrl, err := core.New(core.DefaultConfig())
			if err != nil {
				return AblationRow{}, err
			}
			res, err := sim.RunContext(ctx, plant, ctrl, requests, sim.Config{Horizon: core.DefaultConfig().Horizon})
			if err != nil {
				return AblationRow{}, fmt.Errorf("chemistry %s: %w", v.label, err)
			}
			return AblationRow{Label: v.label, Result: res}, nil
		})
}
