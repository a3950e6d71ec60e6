package forecast

import (
	"math"
	"strings"
	"testing"

	"repro/internal/drivecycle"
	"repro/internal/sim"
	"repro/internal/vehicle"
)

// rmse measures a predictor's error against a series at the given window
// length (≥ 2): the root-mean-square error over all (step, lead) pairs,
// watts.
func rmse(p Predictor, series []float64, window int) float64 {
	buf := make([]float64, window)
	var sum float64
	var n int
	for t := 0; t < len(series); t++ {
		p.Predict(buf, series[t])
		for k := 1; k < window; k++ {
			var truth float64
			if t+k < len(series) {
				truth = series[t+k]
			}
			d := buf[k] - truth
			sum += d * d
			n++
		}
		p.Observe(series[t])
	}
	return math.Sqrt(sum / float64(n))
}

func us06Series(t testing.TB) []float64 {
	t.Helper()
	return vehicle.MidSizeEV().PowerSeries(drivecycle.US06())
}

func TestPersistence(t *testing.T) {
	var p Persistence
	buf := make([]float64, 4)
	p.Predict(buf, 7)
	for _, v := range buf {
		if v != 7 {
			t.Fatalf("persistence = %v", buf)
		}
	}
}

func TestDecayRelaxesTowardMean(t *testing.T) {
	d := NewDecay(5)
	// Establish a mean near zero.
	for i := 0; i < 1000; i++ {
		d.Observe(0)
	}
	buf := make([]float64, 30)
	d.Predict(buf, 100)
	if buf[0] != 100 {
		t.Errorf("present not exact: %v", buf[0])
	}
	if buf[1] >= 100 || buf[1] <= 0 {
		t.Errorf("first estimate %v not between mean and present", buf[1])
	}
	// Far horizon approaches the mean.
	if math.Abs(buf[29]) > 5 {
		t.Errorf("far estimate %v should approach mean 0", buf[29])
	}
	// Monotone decay toward the mean.
	for k := 2; k < len(buf); k++ {
		if buf[k] > buf[k-1]+1e-9 {
			t.Fatalf("decay not monotone at %d: %v > %v", k, buf[k], buf[k-1])
		}
	}
}

func TestTrainMarkovValidation(t *testing.T) {
	if _, err := TrainMarkov(nil, 8); err == nil {
		t.Error("no data accepted")
	}
	if _, err := TrainMarkov([][]float64{{1, 2}}, 1); err == nil {
		t.Error("1 bin accepted")
	}
	// Constant series must not divide by zero.
	m, err := TrainMarkov([][]float64{{5, 5, 5, 5}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, 5)
	m.Predict(buf, 5)
	for _, v := range buf[1:] {
		if math.IsNaN(v) {
			t.Fatal("NaN prediction from constant training data")
		}
	}
}

func TestMarkovDistributionConserved(t *testing.T) {
	series := us06Series(t)
	m, err := TrainMarkov([][]float64{series}, 12)
	if err != nil {
		t.Fatal(err)
	}
	// Rows are stochastic.
	for i, row := range m.trans {
		var sum float64
		for _, p := range row {
			if p < 0 {
				t.Fatalf("negative transition prob at row %d", i)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
	// Predictions stay inside the training range.
	buf := make([]float64, 40)
	m.Predict(buf, 50e3)
	lo, hi := m.levels[0], m.levels[len(m.levels)-1]
	for k := 1; k < len(buf); k++ {
		if buf[k] < lo-1 || buf[k] > hi+1 {
			t.Fatalf("prediction %v outside level range [%v, %v]", buf[k], lo, hi)
		}
	}
}

func TestPredictorAccuracyOrdering(t *testing.T) {
	// On US06, the trained Markov predictor and the decay predictor should
	// beat raw persistence at a 40-step window; the oracle is exact.
	series := us06Series(t)
	train := vehicle.MidSizeEV().PowerSeries(drivecycle.LA92())
	m, err := TrainMarkov([][]float64{train, series}, 16)
	if err != nil {
		t.Fatal(err)
	}
	persist := rmse(Persistence{}, series, 40)
	decay := rmse(NewDecay(8), series, 40)
	markov := rmse(m, series, 40)
	if decay >= persist {
		t.Errorf("decay RMSE %v should beat persistence %v", decay, persist)
	}
	if markov >= persist {
		t.Errorf("markov RMSE %v should beat persistence %v", markov, persist)
	}
}

type recordingController struct {
	got [][]float64
}

func (r *recordingController) Name() string { return "rec" }
func (r *recordingController) Decide(_ *sim.Plant, forecast []float64) sim.Action {
	cp := append([]float64(nil), forecast...)
	r.got = append(r.got, cp)
	return sim.Action{Arch: sim.ArchBatteryDirect}
}

func TestWrapReplacesFutureKeepsPresent(t *testing.T) {
	inner := &recordingController{}
	w := Wrap(inner, Persistence{})
	if !strings.Contains(w.Name(), "persistence") {
		t.Errorf("Name = %q", w.Name())
	}
	plant, err := sim.NewPlant(sim.PlantConfig{})
	if err != nil {
		t.Fatal(err)
	}
	requests := []float64{10, 20, 30}
	if _, err := sim.Run(plant, w, requests, sim.Config{Horizon: 3}); err != nil {
		t.Fatal(err)
	}
	if len(inner.got) != 3 {
		t.Fatalf("inner called %d times", len(inner.got))
	}
	// Step 1: oracle would give [20, 30, 0]; persistence gives [20, 20, 20].
	want := []float64{20, 20, 20}
	for i, v := range want {
		if inner.got[1][i] != v {
			t.Fatalf("wrapped forecast = %v, want %v", inner.got[1], want)
		}
	}
}
