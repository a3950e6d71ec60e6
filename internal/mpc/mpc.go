// Package mpc provides the model-predictive-control scaffolding of paper
// §III-B: a finite horizon, move blocking, box bounds on the control
// inputs, warm-started re-planning, all layered on the optimize package's
// projected quasi-Newton solver and driven through its ask/tell interface.
//
// The package is deliberately model-agnostic: the caller supplies an
// objective over the blocked decision vector (typically a single-shooting
// rollout of the plant model) and mpc handles the decision-vector geometry.
// The OTEM controller in internal/core builds on this.
package mpc

import (
	"errors"
	"fmt"

	"repro/internal/optimize"
)

// Spec describes the decision-variable geometry of an MPC problem.
type Spec struct {
	// Horizon is the number of prediction steps N (the paper's control
	// window size).
	Horizon int
	// BlockSize is the move-blocking factor: the control inputs are held
	// constant over blocks of this many steps, shrinking the decision
	// vector from N·m to ceil(N/B)·m.
	BlockSize int
	// InputsPerStep is the number m of control inputs per step (OTEM uses
	// two: ultracapacitor bus power and cooling intensity).
	InputsPerStep int
	// Lower and Upper bound each of the m inputs (applied to every block).
	Lower, Upper []float64
	// Options tunes the inner optimizer.
	Options optimize.Options
}

// Validate reports an error for an inconsistent specification.
func (s Spec) Validate() error {
	switch {
	case s.Horizon <= 0:
		return fmt.Errorf("mpc: Horizon = %d, must be > 0", s.Horizon)
	case s.BlockSize <= 0:
		return fmt.Errorf("mpc: BlockSize = %d, must be > 0", s.BlockSize)
	case s.InputsPerStep <= 0:
		return fmt.Errorf("mpc: InputsPerStep = %d, must be > 0", s.InputsPerStep)
	case len(s.Lower) != s.InputsPerStep || len(s.Upper) != s.InputsPerStep:
		return fmt.Errorf("mpc: bounds must have length %d (got %d, %d)",
			s.InputsPerStep, len(s.Lower), len(s.Upper))
	}
	for i := range s.Lower {
		if s.Lower[i] > s.Upper[i] {
			return fmt.Errorf("mpc: input %d bounds inverted: [%g, %g]", i, s.Lower[i], s.Upper[i])
		}
	}
	return nil
}

// Blocks returns the number of decision blocks ceil(Horizon/BlockSize).
func (s Spec) Blocks() int { return (s.Horizon + s.BlockSize - 1) / s.BlockSize }

// Dim returns the decision-vector length Blocks()·InputsPerStep.
func (s Spec) Dim() int { return s.Blocks() * s.InputsPerStep }

// InputAt reads control input i for prediction step k from the blocked
// decision vector z.
func (s Spec) InputAt(z []float64, step, input int) float64 {
	b := step / s.BlockSize
	if b >= s.Blocks() {
		b = s.Blocks() - 1
	}
	return z[b*s.InputsPerStep+input]
}

// Planner carries a warm start between successive plans.
//
// A Planner also owns the solver state — bound vectors, the optimize
// Workspace, and result storage — so a warm-started plan (Start, Ask and
// Tell until Done, then Finish) runs without allocating. That makes a
// Planner single-goroutine state; concurrent simulations need one Planner
// each.
type Planner struct {
	spec Spec
	warm []float64
	// haveWarm records whether warm holds a previous solution.
	haveWarm bool

	// Reusable solver state: the per-block bounds expanded over the full
	// decision vector, the problem shell Start fills in, the optimizer
	// workspace, the last result, and the Advance pad scratch.
	lower, upper []float64
	prob         optimize.Problem
	ws           optimize.Workspace
	res          optimize.Result
	lastBlock    []float64
}

// NewPlanner validates the spec and returns a planner whose first plan
// starts from the midpoint of the bounds.
func NewPlanner(spec Spec) (*Planner, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	p := &Planner{spec: spec, warm: make([]float64, spec.Dim())}
	m := spec.InputsPerStep
	p.lower = make([]float64, spec.Dim())
	p.upper = make([]float64, spec.Dim())
	for b := 0; b < spec.Blocks(); b++ {
		copy(p.lower[b*m:], spec.Lower)
		copy(p.upper[b*m:], spec.Upper)
		for i := 0; i < m; i++ {
			p.warm[b*m+i] = (spec.Lower[i] + spec.Upper[i]) / 2
		}
	}
	p.prob = optimize.Problem{
		Dim:   spec.Dim(),
		Lower: p.lower,
		Upper: p.upper,
	}
	p.lastBlock = make([]float64, m)
	return p, nil
}

// Spec returns the planner's decision geometry.
func (p *Planner) Spec() Spec { return p.spec }

// Start begins a plan from the warm start: minimising objective over the
// blocked decision vector. The caller evaluates the objective itself — one
// point, several, or several planners' points at once — driving the plan
// with Ask and Tell until Done, then calls Finish. grad writes
// ∂objective/∂z into its second argument; it runs synchronously inside
// Tell.
func (p *Planner) Start(objective func(z []float64) float64, grad func(z, g []float64)) error {
	if objective == nil {
		return errors.New("mpc: nil objective")
	}
	p.prob.Func = objective
	p.prob.Grad = grad
	if err := p.ws.Start(&p.prob, p.warm, &p.spec.Options); err != nil {
		p.prob.Func, p.prob.Grad = nil, nil
		return err
	}
	return nil
}

// Ask returns the decision vectors whose objective values the plan needs
// next (optimize.Workspace.Ask), nil once it is Done.
func (p *Planner) Ask(budget int) [][]float64 { return p.ws.Ask(budget) }

// Tell takes the objective values of the last Ask's points, in order
// (optimize.Workspace.Tell).
func (p *Planner) Tell(fs []float64) { p.ws.Tell(fs) }

// Searching reports whether the next Ask returns line-search trials, where
// a budget above 1 is honoured.
func (p *Planner) Searching() bool { return p.ws.Searching() }

// Done reports whether the plan begun by Start has ended.
func (p *Planner) Done() bool { return p.ws.Done() }

// Finish ends the plan begun by Start: the solution becomes the warm start
// for the next one and is returned with its Result. Both alias the
// planner's state; copy them if they must survive the next plan.
func (p *Planner) Finish() ([]float64, *optimize.Result) {
	p.prob.Func = nil
	p.prob.Grad = nil
	p.res = p.ws.Result()
	copy(p.warm, p.res.X)
	p.haveWarm = true
	return p.warm, &p.res
}

// Advance shifts the warm start forward by the given number of plant steps
// (receding horizon): whole blocks that have been executed are dropped and
// the tail is padded by repeating the last block. Calling it with fewer
// steps than a block leaves the warm start unchanged.
func (p *Planner) Advance(steps int) {
	if !p.haveWarm || steps <= 0 {
		return
	}
	shift := steps / p.spec.BlockSize
	if shift <= 0 {
		return
	}
	m := p.spec.InputsPerStep
	nb := p.spec.Blocks()
	if shift >= nb {
		// Everything executed; keep the last block as a constant guess.
		last := p.lastBlock
		copy(last, p.warm[(nb-1)*m:nb*m])
		for b := 0; b < nb; b++ {
			copy(p.warm[b*m:(b+1)*m], last)
		}
		return
	}
	copy(p.warm, p.warm[shift*m:])
	last := p.warm[(nb-shift-1)*m : (nb-shift)*m]
	for b := nb - shift; b < nb; b++ {
		copy(p.warm[b*m:(b+1)*m], last)
	}
}
