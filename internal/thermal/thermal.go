// Package thermal implements the distributed battery-pack thermal network
// of paper Fig. 5: the cells are grouped into N modules along the coolant
// channel; fresh coolant enters at the inlet module and warms as it flows
// past each module, so the pack develops a temperature gradient the lumped
// two-node model (package cooling) cannot represent.
//
// The paper argues the lumped simplification "does not affect the concept";
// this package exists to check that claim (see the hotspot experiment): the
// controller is still driven by the lumped model, and the distributed model
// replays the same heat profile to report how much hotter the worst module
// runs.
//
// Dynamics per module i (0 = inlet):
//
//	C_b/N · dT_b,i/dt = h/N · (T_c,i − T_b,i) + q_i
//	C_c/N · dT_c,i/dt = h/N · (T_b,i − T_c,i) + W·(T_c,i−1 − T_c,i)
//
// with T_c,−1 the inlet temperature and W the coolant heat-capacity rate.
// Integration is backward Euler on the coupled 2N system (solved by LU),
// unconditionally stable.
package thermal

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/cooling"
	"repro/internal/linalg"
)

// PackNetwork is a distributed N-module pack thermal model.
type PackNetwork struct {
	// Params supplies the total pack capacities and couplings, divided
	// evenly across the modules.
	Params cooling.Params
	// N is the module count along the coolant channel.
	N int
	// Tb and Tc are the module battery and coolant temperatures, kelvin,
	// index 0 at the coolant inlet.
	Tb, Tc []float64

	// Solver scratch, allocated on first use and reused every step: the
	// backward-Euler system matrix, its LU factorisation, and the
	// right-hand-side / solution vectors.
	a   *linalg.Matrix
	lu  linalg.LUFactor
	rhs []float64
	x   []float64

	// Coefficient signature of the factorisation currently held in lu.
	// The system matrix depends only on (cb, cc, h, w, advect) — not on the
	// temperatures, heat input or inlet — so consecutive steps with the same
	// dt and coupling coefficients (the common case: a fixed-dt simulation
	// staying in one pump mode) reuse the factors and only rebuild the RHS.
	sigValid  bool
	sigAdvect bool
	sigCB     uint64
	sigCC     uint64
	sigH      uint64
	sigW      uint64
}

// NewPackNetwork builds a network with all nodes at the initial temperature.
func NewPackNetwork(p cooling.Params, n int, initial float64) (*PackNetwork, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, fmt.Errorf("thermal: module count %d invalid", n)
	}
	if initial <= 0 {
		return nil, errors.New("thermal: initial temperature must be > 0")
	}
	net := &PackNetwork{Params: p, N: n, Tb: make([]float64, n), Tc: make([]float64, n)}
	for i := 0; i < n; i++ {
		net.Tb[i] = initial
		net.Tc[i] = initial
	}
	return net, nil
}

// StepActive advances dt seconds with the pump running: coolant enters
// module 0 at tInlet and advects along the channel; the total battery heat
// qb (watts) is spread uniformly across modules.
func (net *PackNetwork) StepActive(qb, tInlet, dt float64) error {
	return net.step(qb, net.Params.FlowHeatRate, tInlet, dt, true)
}

// StepPassive advances dt seconds with the pump off: every coolant segment
// couples to ambient with its share of the natural-convection coefficient,
// and there is no advection between segments.
func (net *PackNetwork) StepPassive(qb, ambient, dt float64) error {
	return net.step(qb, net.Params.AmbientCoupling, ambient, dt, false)
}

// step assembles and solves the backward-Euler system. With advect=true, w
// is the advection rate connecting segments in a chain from the inlet; with
// advect=false, w couples every segment directly to tin (ambient).
func (net *PackNetwork) step(qb, w, tin, dt float64, advect bool) error {
	if dt <= 0 {
		return fmt.Errorf("thermal: non-positive dt %g", dt)
	}
	n := net.N
	fN := float64(n)
	cb := net.Params.BatteryHeatCapacity / fN / dt
	cc := net.Params.CoolantHeatCapacity / fN / dt
	h := net.Params.HBC / fN
	q := qb / fN
	wAmb := w / fN // per-segment ambient share in passive mode

	// Unknowns x = [Tb_0..Tb_{n-1}, Tc_0..Tc_{n-1}] at t+dt.
	dim := 2 * n
	if net.a == nil {
		net.a = linalg.NewMatrix(dim, dim)
		net.rhs = make([]float64, dim)
		net.x = make([]float64, dim)
	}

	// The coolant coupling entering the matrix: the advection rate in active
	// mode, the per-segment ambient share in passive mode.
	wm := w
	if !advect {
		wm = wAmb
	}
	sb, sc, sh, sw := math.Float64bits(cb), math.Float64bits(cc), math.Float64bits(h), math.Float64bits(wm)
	if !net.sigValid || net.sigAdvect != advect ||
		net.sigCB != sb || net.sigCC != sc || net.sigH != sh || net.sigW != sw {
		net.sigValid = false
		a := net.a
		a.Zero()
		for i := 0; i < n; i++ {
			bi := i     // battery row
			ci := n + i // coolant row

			// Battery node: cb·Tb+ − cb·Tb = h·(Tc+ − Tb+) + q
			a.Set(bi, bi, cb+h)
			a.Set(bi, ci, -h)

			// Coolant node: cc·Tc+ − cc·Tc = h·(Tb+ − Tc+) plus either
			// W·(Tc_{i−1}+ − Tc+) (advection chain) or wAmb·(ambient − Tc+).
			a.Set(ci, ci, cc+h+wm)
			a.Set(ci, bi, -h)
			if advect && i > 0 {
				a.Set(ci, n+i-1, -w)
			}
		}
		if err := net.lu.Factorize(a); err != nil {
			return fmt.Errorf("thermal: %w", err)
		}
		net.sigValid = true
		net.sigAdvect = advect
		net.sigCB, net.sigCC, net.sigH, net.sigW = sb, sc, sh, sw
	}

	rhs := net.rhs
	for i := 0; i < n; i++ {
		rhs[i] = cb*net.Tb[i] + q
		ci := n + i
		if advect {
			rhs[ci] = cc * net.Tc[i]
			if i == 0 {
				rhs[ci] += w * tin
			}
		} else {
			rhs[ci] = cc*net.Tc[i] + wAmb*tin
		}
	}
	net.lu.SolveTo(net.x, rhs)
	copy(net.Tb, net.x[:n])
	copy(net.Tc, net.x[n:])
	return nil
}

// MaxBatteryTemp returns the hottest module temperature.
func (net *PackNetwork) MaxBatteryTemp() float64 {
	m := net.Tb[0]
	for _, t := range net.Tb[1:] {
		if t > m {
			m = t
		}
	}
	return m
}

// Gradient returns the spread between the hottest and coldest modules,
// kelvin — the quantity the lumped model hides.
func (net *PackNetwork) Gradient() float64 {
	lo, hi := net.Tb[0], net.Tb[0]
	for _, t := range net.Tb[1:] {
		if t < lo {
			lo = t
		}
		if t > hi {
			hi = t
		}
	}
	return hi - lo
}

// OutletTemp returns the coolant temperature leaving the pack (the T_o of
// paper Eq. 16).
func (net *PackNetwork) OutletTemp() float64 { return net.Tc[net.N-1] }
