// Package forecast provides EV power-request predictors. The paper assumes
// the estimated future requests P̂_e are available to the controller
// ("predicted by modeling the power train and driving route [3]"); this
// package supplies that component for deployments without an oracle (the
// simulator's exact future, which the paper's evaluation uses):
//
//   - Persistence: hold the last measured request (the weakest baseline).
//   - Decay: persistence decaying toward a running mean — a driver
//     releasing the pedal more often than not.
//   - Markov: a quantised power-level Markov chain trained on historical
//     cycles, predicting the expected trajectory.
//
// All predictors implement Predictor and can wrap any sim.Controller via
// WithPredictor, so the experiment suite can measure how much of OTEM's
// advantage survives realistic prediction error.
package forecast

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core/floats"
	"repro/internal/sim"
)

// Predictor produces the estimated request window used by a predictive
// controller. Observe is called once per step with the measured present
// request; Predict fills dst[1:] with estimates for the following steps
// (dst[0] is always the exact present request, which is measurable).
type Predictor interface {
	// Name identifies the predictor in experiment output.
	Name() string
	// Observe feeds the measured request of the current step.
	Observe(present float64)
	// Predict writes estimates into dst: dst[0] the present (already
	// measured) request, dst[1:] the future estimates.
	Predict(dst []float64, present float64)
}

// Persistence predicts that the present request continues unchanged.
type Persistence struct{}

// Name implements Predictor.
func (Persistence) Name() string { return "persistence" }

// Observe implements Predictor.
func (Persistence) Observe(float64) {}

// Predict implements Predictor.
func (Persistence) Predict(dst []float64, present float64) {
	for k := range dst {
		dst[k] = present
	}
}

// Decay predicts exponential relaxation from the present request toward a
// running mean of the observed demand.
type Decay struct {
	// Tau is the relaxation time constant in steps.
	Tau float64
	// MeanTau is the running-mean horizon in steps.
	MeanTau float64

	mean    float64
	haveObs bool
}

// NewDecay returns a decay predictor with the given relaxation constant.
func NewDecay(tau float64) *Decay { return &Decay{Tau: tau, MeanTau: 300} }

// Name implements Predictor.
func (d *Decay) Name() string { return "decay" }

// Observe implements Predictor.
func (d *Decay) Observe(present float64) {
	if !d.haveObs {
		d.mean = present
		d.haveObs = true
		return
	}
	alpha := 1.0 / d.MeanTau
	d.mean += alpha * (present - d.mean)
}

// Predict implements Predictor.
func (d *Decay) Predict(dst []float64, present float64) {
	dst[0] = present
	for k := 1; k < len(dst); k++ {
		w := math.Exp(-float64(k) / d.Tau)
		dst[k] = w*present + (1-w)*d.mean
	}
}

// Markov is a quantised-power Markov-chain predictor: requests are binned,
// a transition matrix is estimated from training series, and the forecast
// is the expected power level propagated through the chain.
type Markov struct {
	levels []float64   // bin centres, watts
	trans  [][]float64 // row-stochastic transition matrix
	binFn  func(float64) int
	// scratch for distribution propagation
	dist, next []float64
}

// TrainMarkov estimates a predictor from one or more historical request
// series with the given number of quantisation bins.
func TrainMarkov(series [][]float64, bins int) (*Markov, error) {
	if bins < 2 {
		return nil, fmt.Errorf("forecast: bins = %d, need >= 2", bins)
	}
	var lo, hi float64
	seen := false
	for _, s := range series {
		for _, p := range s {
			if !seen {
				lo, hi, seen = p, p, true
				continue
			}
			lo = math.Min(lo, p)
			hi = math.Max(hi, p)
		}
	}
	if !seen {
		return nil, errors.New("forecast: no training data")
	}
	if floats.Eq(hi, lo) {
		hi = lo + 1
	}
	m := &Markov{
		levels: make([]float64, bins),
		trans:  make([][]float64, bins),
		dist:   make([]float64, bins),
		next:   make([]float64, bins),
	}
	width := (hi - lo) / float64(bins)
	for i := range m.levels {
		m.levels[i] = lo + (float64(i)+0.5)*width
		m.trans[i] = make([]float64, bins)
	}
	bin := func(p float64) int {
		b := int((p - lo) / width)
		if b < 0 {
			b = 0
		}
		if b >= bins {
			b = bins - 1
		}
		return b
	}
	counts := make([][]float64, bins)
	for i := range counts {
		counts[i] = make([]float64, bins)
	}
	for _, s := range series {
		for t := 1; t < len(s); t++ {
			counts[bin(s[t-1])][bin(s[t])]++
		}
	}
	for i := range counts {
		var total float64
		for _, c := range counts[i] {
			total += c
		}
		if floats.Zero(total) {
			// Unvisited bin: self-loop.
			m.trans[i][i] = 1
			continue
		}
		for j, c := range counts[i] {
			m.trans[i][j] = c / total
		}
	}
	m.binFn = bin
	return m, nil
}

// Name implements Predictor.
func (m *Markov) Name() string { return "markov" }

// Observe implements Predictor (the chain is memoryless beyond the present
// level, so observation is a no-op).
func (m *Markov) Observe(float64) {}

// Predict implements Predictor: expected power at each future step from
// the propagated state distribution.
func (m *Markov) Predict(dst []float64, present float64) {
	dst[0] = present
	for i := range m.dist {
		m.dist[i] = 0
	}
	m.dist[m.binFn(present)] = 1
	for k := 1; k < len(dst); k++ {
		for j := range m.next {
			m.next[j] = 0
		}
		for i, pi := range m.dist {
			//lint:ignore floatcompare sparsity skip: distribution entries are exactly 0 unless assigned; an epsilon would drop real small probabilities
			if pi == 0 {
				continue
			}
			row := m.trans[i]
			for j, pij := range row {
				//lint:ignore floatcompare sparsity skip: transition entries are exactly 0 unless trained; an epsilon would drop real small probabilities
				if pij != 0 {
					m.next[j] += pi * pij
				}
			}
		}
		m.dist, m.next = m.next, m.dist
		var exp float64
		for i, pi := range m.dist {
			exp += pi * m.levels[i]
		}
		dst[k] = exp
	}
}

// WithPredictor wraps a controller so that it sees predictor output instead
// of the simulator's oracle forecast. The present request (forecast[0]) is
// always passed through exactly.
type WithPredictor struct {
	// Inner is the wrapped controller.
	Inner sim.Controller
	// P supplies the estimates.
	P Predictor

	buf []float64
}

// Wrap builds the wrapper.
func Wrap(inner sim.Controller, p Predictor) *WithPredictor {
	return &WithPredictor{Inner: inner, P: p}
}

// Name implements sim.Controller.
func (w *WithPredictor) Name() string {
	return fmt.Sprintf("%s[%s]", w.Inner.Name(), w.P.Name())
}

// Decide implements sim.Controller. The engine's forecast window is
// treated as read-only: the predictor writes its estimates into an owned
// buffer, so the wrapper is safe to run on the batched rollout where the
// engine shares one window array across all lanes.
func (w *WithPredictor) Decide(p *sim.Plant, forecast []float64) sim.Action {
	present := forecast[0]
	if cap(w.buf) < len(forecast) {
		w.buf = make([]float64, len(forecast))
	}
	est := w.buf[:len(forecast)]
	w.P.Predict(est, present)
	act := w.Inner.Decide(p, est)
	w.P.Observe(present)
	return act
}

// ForecastDepth implements sim.ForecastReader: only the measured present
// request forecast[0] is read — the future entries are replaced by the
// predictor's own estimates — so the engine need not fill the rest.
func (w *WithPredictor) ForecastDepth() int { return 1 }

var _ sim.ForecastReader = (*WithPredictor)(nil)
