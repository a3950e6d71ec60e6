// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§IV), plus the DESIGN.md ablation studies. Run with
//
//	go test -bench=. -benchmem
//
// Every benchmark calls b.ReportAllocs, so allocation counts appear even
// without -benchmem — regressions on the zero-allocation simulation hot
// path show up in any benchmark run.
//
// Each benchmark regenerates its experiment end to end and reports the
// paper-comparable headline numbers as custom metrics, so a benchmark run
// doubles as a reproduction check:
//
//	Fig. 8  → loss-reduction-pct   (paper: 16.38)
//	Fig. 9  → power-saving-pct     (paper: 12.1)
//	Table I → otem-loss-at-5kF-pct (paper: 49.03, normalised)
package repro

import (
	"context"
	"testing"

	"repro/internal/experiments"
	"repro/internal/units"
)

// BenchmarkFig1ThermalCaseStudy regenerates the motivational case study:
// dual-architecture battery temperature for 5/10/20 kF banks on US06 ×3.
func BenchmarkFig1ThermalCaseStudy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig1Context(context.Background(), nil)
		if err != nil {
			b.Fatal(err)
		}
		small := r.Results[0]
		large := r.Results[len(r.Results)-1]
		b.ReportMetric(small.ThermalViolationSec, "small-cap-violation-s")
		b.ReportMetric(units.KToC(large.MaxBatteryTemp), "large-cap-maxT-C")
	}
}

// BenchmarkFig6TemperatureTraces regenerates the per-methodology battery
// temperature comparison on US06 ×5, 25 kF.
func BenchmarkFig6TemperatureTraces(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6Context(context.Background(), nil)
		if err != nil {
			b.Fatal(err)
		}
		for j, m := range r.MethodsList {
			switch m {
			case experiments.MethodOTEM:
				b.ReportMetric(units.KToC(r.Results[j].MaxBatteryTemp), "otem-maxT-C")
			case experiments.MethodParallel:
				b.ReportMetric(units.KToC(r.Results[j].MaxBatteryTemp), "parallel-maxT-C")
			}
		}
	}
}

// BenchmarkFig7TEBPreparation regenerates the TEB temporal analysis and
// reports how many pre-charge events precede large power bursts.
func BenchmarkFig7TEBPreparation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig7Context(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.PrechargeEvents), "precharge-events")
		b.ReportMetric(units.KToC(r.Result.MaxBatteryTemp), "otem-maxT-C")
	}
}

// BenchmarkFig8BatteryLifetime regenerates the capacity-loss comparison
// across all six standard cycles (paper headline: −16.38 % vs parallel).
func BenchmarkFig8BatteryLifetime(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sweep, err := experiments.SweepContext(context.Background(), 1, nil)
		if err != nil {
			b.Fatal(err)
		}
		f8 := experiments.Fig8(sweep)
		b.ReportMetric(f8.OTEMAvgReductionPct(), "loss-reduction-pct")
	}
}

// BenchmarkFig9PowerConsumption regenerates the average-power comparison
// across all six standard cycles (paper headline: −12.1 % vs pure active
// cooling).
func BenchmarkFig9PowerConsumption(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sweep, err := experiments.SweepContext(context.Background(), 1, nil)
		if err != nil {
			b.Fatal(err)
		}
		f9 := experiments.Fig9(sweep)
		b.ReportMetric(f9.OTEMSavingVsCoolingPct(), "power-saving-pct")
	}
}

// BenchmarkTableIUltracapSizing regenerates the ultracapacitor size sweep
// on US06 ×5 (paper Table I).
func BenchmarkTableIUltracapSizing(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := experiments.TableIContext(context.Background(), nil)
		if err != nil {
			b.Fatal(err)
		}
		// OTEM at the smallest bank, normalised to parallel@25 kF = 100.
		b.ReportMetric(r.LossPct(0, 2), "otem-loss-at-5kF-pct")
		b.ReportMetric(r.LossPct(len(r.SizesF)-1, 2), "otem-loss-at-25kF-pct")
	}
}

// BenchmarkAblationHorizon sweeps the MPC control-window size.
func BenchmarkAblationHorizon(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationHorizonContext(context.Background(), nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Rows[0].Result.QlossPct*1e3, "loss-h8-milli-pct")
		b.ReportMetric(r.Rows[len(r.Rows)-1].Result.QlossPct*1e3, "loss-h80-milli-pct")
	}
}

// BenchmarkAblationWeights disables Eq. 19 cost terms in turn.
func BenchmarkAblationWeights(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationWeightsContext(context.Background(), nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Rows[0].Result.QlossPct*1e3, "loss-full-milli-pct")
	}
}

// BenchmarkAblationNoise measures sensitivity to forecast error.
func BenchmarkAblationNoise(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationNoiseContext(context.Background(), nil)
		if err != nil {
			b.Fatal(err)
		}
		exact := r.Rows[0].Result.QlossPct
		noisy := r.Rows[len(r.Rows)-1].Result.QlossPct
		b.ReportMetric((noisy/exact-1)*100, "loss-degradation-pct-at-60pct-noise")
	}
}

// BenchmarkAblationPredictor replaces the oracle forecast with realistic
// predictors and reports the surviving advantage.
func BenchmarkAblationPredictor(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationPredictorContext(context.Background(), nil)
		if err != nil {
			b.Fatal(err)
		}
		oracle := r.Rows[0].Result.QlossPct
		markov := r.Rows[len(r.Rows)-1].Result.QlossPct
		b.ReportMetric((markov/oracle-1)*100, "loss-penalty-pct-markov-vs-oracle")
	}
}

// BenchmarkHotspotStudy replays traces through the distributed pack thermal
// network and reports how much hotter the worst module runs than the lumped
// model predicts.
func BenchmarkHotspotStudy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := experiments.HotspotContext(context.Background(), nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			if row.Method == experiments.MethodOTEM {
				b.ReportMetric(row.DistributedMaxT-row.LumpedMaxT, "otem-hotspot-excess-K")
				b.ReportMetric(row.MaxGradient, "otem-channel-gradient-K")
			}
		}
	}
}

// BenchmarkAblationSensing closes the sensing loop: OTEM planning from the
// EKF-estimated SoC instead of the oracle.
func BenchmarkAblationSensing(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationSensingContext(context.Background(), nil)
		if err != nil {
			b.Fatal(err)
		}
		oracle := r.Rows[0].Result.QlossPct
		ekf := r.Rows[len(r.Rows)-1].Result.QlossPct
		b.ReportMetric((ekf/oracle-1)*100, "loss-penalty-pct-ekf-vs-oracle")
	}
}

// BenchmarkAblationChemistry compares the NCA and LFP packs under OTEM.
func BenchmarkAblationChemistry(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationChemistryContext(context.Background(), nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Rows[0].Result.QlossPct/r.Rows[1].Result.QlossPct, "nca-over-lfp-loss-ratio")
	}
}
