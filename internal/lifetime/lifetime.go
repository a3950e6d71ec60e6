// Package lifetime projects the battery to its end of life (20 % capacity
// loss, paper §I) by repeatedly driving a route under a methodology while
// carrying the accumulated state of health into the plant: the faded pack
// has less capacity and higher internal resistance, so later routes age it
// faster — the feedback the paper's single-route evaluation extrapolates
// away. The projection re-simulates a route every block and extrapolates
// in between, so an end of life thousands of routes out costs only dozens
// of simulations.
package lifetime

import (
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/canon"
	"repro/internal/charger"
	"repro/internal/core/floats"
	"repro/internal/sim"
)

// Config tunes a projection.
type Config struct {
	// EndOfLifePct is the capacity loss that ends the battery's life
	// (default 20, the paper's criterion).
	EndOfLifePct float64
	// BlockRoutes is how many routes each simulated per-route loss is
	// extrapolated over before re-simulating with updated health
	// (default 250).
	BlockRoutes int
	// MaxRoutes bounds the projection (default 40000).
	MaxRoutes int
	// ResistanceGrowthPerPct is the fractional internal-resistance increase
	// per percent of capacity loss (default 0.02: +40 % at end of life,
	// a common empirical pairing of fade and impedance rise).
	ResistanceGrowthPerPct float64
	// RouteKm is the route length used for the distance metric (optional).
	RouteKm float64
	// Charger, when non-nil, recharges the pack to its pre-route state of
	// charge after each simulated route and adds the charging aging to the
	// per-route loss — projections without it overestimate battery life.
	Charger *charger.Params
	// ChargeAmbient is the parking-lot temperature for charging sessions,
	// kelvin (default 298).
	ChargeAmbient float64
	// Horizon is the forecast window handed to the controller each
	// simulated route (default 40, the paper's MPC horizon).
	Horizon int
	// Progress, when non-nil, is called after each simulated block with
	// the routes driven so far and the MaxRoutes bound. The projection is
	// sequential, so calls are too.
	Progress func(routesDone, maxRoutes int)
}

func (c Config) withDefaults() Config {
	if floats.Zero(c.EndOfLifePct) {
		c.EndOfLifePct = 20
	}
	if c.BlockRoutes == 0 {
		c.BlockRoutes = 250
	}
	if c.MaxRoutes == 0 {
		c.MaxRoutes = 40000
	}
	if floats.Zero(c.ResistanceGrowthPerPct) {
		c.ResistanceGrowthPerPct = 0.02
	}
	if floats.Zero(c.ChargeAmbient) {
		c.ChargeAmbient = 298
	}
	if c.Horizon < 1 {
		c.Horizon = 40
	}
	return c
}

// AppendCanonical implements the canonical-encoding contract (see package
// canon) over every field that influences the deterministic outcome; the
// Progress callback is deliberately excluded.
func (c Config) AppendCanonical(dst []byte) []byte {
	c = c.withDefaults()
	dst = append(dst, "otem.lifetime"...)
	dst = canon.Float(dst, "e", c.EndOfLifePct)
	dst = canon.Int(dst, "b", c.BlockRoutes)
	dst = canon.Int(dst, "x", c.MaxRoutes)
	dst = canon.Float(dst, "g", c.ResistanceGrowthPerPct)
	dst = canon.Float(dst, "d", c.RouteKm)
	dst = canon.Int(dst, "h", c.Horizon)
	dst = canon.Float(dst, "a", c.ChargeAmbient)
	if c.Charger != nil {
		dst = canon.Float(dst, "cc", c.Charger.CRate)
		dst = canon.Float(dst, "cv", c.Charger.VmaxPerCell)
		dst = canon.Float(dst, "co", c.Charger.CutoffCRate)
		dst = canon.Float(dst, "ce", c.Charger.Efficiency)
		dst = canon.Float(dst, "cd", c.Charger.MaxDuration)
	} else {
		dst = canon.Str(dst, "cc", "none")
	}
	return dst
}

// Point is one sampled state of the projection.
type Point struct {
	// Routes driven so far.
	Routes int
	// CapacityLossPct is the accumulated fade at this point.
	CapacityLossPct float64
	// LossPerRoutePct is the per-route loss measured at this health.
	LossPerRoutePct float64
}

// Projection is the outcome of ProjectContext.
type Projection struct {
	// Points samples the fade trajectory (one per simulated block).
	Points []Point
	// RoutesToEOL is the projected number of routes until end of life
	// (== Config.MaxRoutes when the bound was hit first).
	RoutesToEOL int
	// DistanceToEOLKm is RoutesToEOL × Config.RouteKm (0 if RouteKm unset).
	DistanceToEOLKm float64
	// AccelerationFactor is the ratio of the last block's per-route loss to
	// the first block's: how much the fade feedback sped aging up.
	AccelerationFactor float64
}

// PlantFactory builds a plant whose battery carries the given accumulated
// capacity loss (percent) and resistance-growth factor (≥ 1).
type PlantFactory func(capacityLossPct, resistanceFactor float64) (*sim.Plant, error)

// ControllerFactory builds a fresh controller per simulated block
// (controllers are stateful).
type ControllerFactory func() (sim.Controller, error)

// DefaultPlantFactory adapts a sim.PlantConfig into a PlantFactory that
// applies the health state to the pack.
func DefaultPlantFactory(cfg sim.PlantConfig) PlantFactory {
	return func(lossPct, rFactor float64) (*sim.Plant, error) {
		plant, err := sim.NewPlant(cfg)
		if err != nil {
			return nil, err
		}
		b := plant.HEES.Battery
		b.CapacityLossPct = lossPct
		// Impedance growth: scale the resistance coefficients of Eq. 3.
		b.Cell.R[0] *= rFactor
		b.Cell.R[2] *= rFactor
		return plant, nil
	}
}

// ProjectContext runs the fade trajectory to end of life, with
// cooperative cancellation. The projection is inherently sequential —
// each simulated block depends on the health state accumulated by its
// predecessors — so the batching lever here is
// cancellation: the route simulation inside each block aborts mid-route
// when ctx fires (with an error matching runner.ErrCanceled), which lets
// callers fan a projection per methodology out on the batch runner and
// still stop the whole fleet promptly.
func ProjectContext(ctx context.Context, newPlant PlantFactory, newController ControllerFactory, requests []float64, cfg Config) (*Projection, error) {
	if newPlant == nil || newController == nil {
		return nil, errors.New("lifetime: nil factory")
	}
	if len(requests) == 0 {
		return nil, errors.New("lifetime: empty request series")
	}
	cfg = cfg.withDefaults()

	out := &Projection{}
	loss := 0.0
	routes := 0
	var firstRate float64
	for loss < cfg.EndOfLifePct && routes < cfg.MaxRoutes {
		rFactor := 1 + cfg.ResistanceGrowthPerPct*loss
		plant, err := newPlant(loss, rFactor)
		if err != nil {
			return nil, err
		}
		ctrl, err := newController()
		if err != nil {
			return nil, err
		}
		startSoC := plant.HEES.Battery.SoC
		res, err := sim.RunContext(ctx, plant, ctrl, requests, sim.Config{Horizon: cfg.Horizon})
		if err != nil {
			return nil, fmt.Errorf("lifetime: route at %.2f%% loss: %w", loss, err)
		}
		rate := res.QlossPct
		if cfg.Charger != nil {
			chg, err := charger.Charge(plant.HEES.Battery, plant.Loop, *cfg.Charger, startSoC, cfg.ChargeAmbient)
			if err != nil {
				return nil, fmt.Errorf("lifetime: charge at %.2f%% loss: %w", loss, err)
			}
			rate += chg.AgingPct
		}
		if rate <= 0 {
			return nil, fmt.Errorf("lifetime: non-positive per-route loss %g", rate)
		}
		if floats.Zero(firstRate) {
			firstRate = rate
		}
		out.Points = append(out.Points, Point{Routes: routes, CapacityLossPct: loss, LossPerRoutePct: rate})

		// Extrapolate over the block, but stop exactly at end of life.
		remaining := cfg.EndOfLifePct - loss
		block := cfg.BlockRoutes
		if need := int(remaining/rate) + 1; need < block {
			block = need
		}
		if routes+block > cfg.MaxRoutes {
			block = cfg.MaxRoutes - routes
		}
		loss += rate * float64(block)
		routes += block
		out.AccelerationFactor = rate / firstRate
		if cfg.Progress != nil {
			cfg.Progress(routes, cfg.MaxRoutes)
		}
	}
	out.RoutesToEOL = routes
	out.DistanceToEOLKm = float64(routes) * cfg.RouteKm
	return out, nil
}

// Write renders the projection.
func (p *Projection) Write(w io.Writer, label string) {
	fmt.Fprintf(w, "# lifetime projection: %s\n", label)
	fmt.Fprintf(w, "%10s %16s %18s\n", "routes", "capacity loss %", "loss/route %")
	for _, pt := range p.Points {
		fmt.Fprintf(w, "%10d %16.3f %18.6f\n", pt.Routes, pt.CapacityLossPct, pt.LossPerRoutePct)
	}
	fmt.Fprintf(w, "routes to end of life: %d", p.RoutesToEOL)
	if p.DistanceToEOLKm > 0 {
		fmt.Fprintf(w, " (%.0f km)", p.DistanceToEOLKm)
	}
	fmt.Fprintf(w, "; aging acceleration ×%.2f\n", p.AccelerationFactor)
}
