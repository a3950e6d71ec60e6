package main

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/drivecycle"
	"repro/internal/hmpc"
	"repro/internal/sim"
	"repro/internal/vehicle"
)

// driveSoCs are the initial states of charge a drive_otem route starts
// from; the seed draws one per route. Every one has pinned outputs.
var driveSoCs = []float64{0.80, 0.85, 0.90, 0.95, 1.00}

// uddsRequests is the UDDS bus-power series (the old BENCH_sim input), or
// its first 120 steps at smoke size.
func uddsRequests(smoke bool) []float64 {
	r := vehicle.MidSizeEV().PowerSeries(drivecycle.UDDS())
	if smoke {
		r = r[:120]
	}
	return r
}

func driveKey(steps int, soc float64) string {
	return fmt.Sprintf("drive_otem/UDDS/steps=%d/soc=%.2f", steps, soc)
}

// driveOTEM is the headline single-vehicle workload: fresh UDDS routes under
// flat OTEM, one at a time from one goroutine. Core replans dominate it.
type driveOTEM struct {
	seed     int64
	smoke    bool
	pins     *pinSet
	requests []float64
}

func (w *driveOTEM) setup() error {
	w.requests = uddsRequests(w.smoke)
	// A short warm-up route pays page faults and lazy initialisation here
	// rather than in the first measured route.
	plant, err := sim.NewPlant(sim.PlantConfig{})
	if err != nil {
		return err
	}
	ctrl, err := core.New(core.DefaultConfig())
	if err != nil {
		return err
	}
	_, err = sim.Run(plant, ctrl, w.requests[:min(200, len(w.requests))], sim.Config{Horizon: core.DefaultConfig().Horizon})
	return err
}

// measure drives rounds of routes, one per initial state of charge in a
// seeded order.
func (w *driveOTEM) measure(ctx context.Context, ps []*pass) error {
	rng := rand.New(rand.NewSource(w.seed))
	k := 0
	err := ps[0].rounds(func(int) error {
		for _, i := range rng.Perm(len(driveSoCs)) {
			if err := ctx.Err(); err != nil {
				return err
			}
			soc := driveSoCs[i]
			interleave(ps, k, func(p *pass) {
				res, rate, err := w.route(ctx, p, soc)
				p.attempted++
				if err != nil {
					p.fail("route soc=%.2f: %v", soc, err)
					return
				}
				p.rates = append(p.rates, rate)
				if err := w.pins.checkRoute(driveKey(len(w.requests), soc), pinOf(res, 0, 0)); err != nil {
					p.fail("%v", err)
				}
			})
			k++
		}
		return nil
	})
	finishRoutes(ps)
	return err
}

// finishRoutes sets a route workload's ops_per_s, the median route's
// simulated steps per wall second, and takes its latency_p99_ms from single
// steps: the slowest decisions against the 1 s control period. The p99 of
// whole control cycles sits deeper in the replan distribution, and its
// run-to-run spread on a noisy host was about 1.4 times larger.
func finishRoutes(ps []*pass) {
	for _, p := range ps {
		p.opsPerS = quantile(p.rates, 0.5)
		p.tailMs = make([]float64, len(p.dec.stepNs))
		for i, ns := range p.dec.stepNs {
			p.tailMs[i] = ns / 1e6
		}
	}
}

// route is one drive_otem operation: a fresh plant at the drawn state of
// charge and a fresh flat OTEM controller drive UDDS. It returns the route
// result and its simulated steps per wall second.
func (w *driveOTEM) route(ctx context.Context, p *pass, soc float64) (sim.Result, float64, error) {
	op := p.newOp()
	start := p.clk.now()
	var (
		res    sim.Result
		obs    *observer
		runID  int64
		runEnd int64
	)
	err := p.timed("route", "bench", op, 0, func(root int64) error {
		var plant *sim.Plant
		if err := p.timed("sim.NewPlant", "sim", op, root, func(int64) error {
			var err error
			plant, err = sim.NewPlant(sim.PlantConfig{InitialSoC: soc})
			return err
		}); err != nil {
			return err
		}
		var ctrl *core.OTEM
		if err := p.timed("core.New", "core", op, root, func(int64) error {
			var err error
			ctrl, err = core.New(core.DefaultConfig())
			return err
		}); err != nil {
			return err
		}
		obs = newObserver(ctrl, p.clk, len(w.requests))
		obs.replans = ctrl.Replans
		keep := p.keepFirst(plant)
		err := p.timed("sim.RunContext", "sim", op, root, func(id int64) error {
			runID = id
			var err error
			res, err = sim.RunContext(ctx, plant, obs, w.requests, sim.Config{Horizon: core.DefaultConfig().Horizon})
			runEnd = p.clk.now()
			return err
		})
		p.tr.add(obs.spans(p.tr, op, runID)...)
		if err == nil {
			keep(obs)
		}
		return err
	})
	if err != nil {
		return res, 0, err
	}
	return res, p.addRoute(obs, res.Steps, op, start, runEnd), nil
}

// cycleSteps is the OTEM replan interval: a drive workload's median latency
// is the time one control cycle of this many steps takes, the compute that
// must fit before the next plan is due. The median single step makes a poor
// latency: three steps in four only execute the plan, in under a
// microsecond.
var cycleSteps = core.DefaultConfig().ReplanInterval

// addRoute books one finished route: its Decide calls, its control-cycle
// latencies, its work and wall time. It returns the route's simulated steps
// per wall second.
func (p *pass) addRoute(obs *observer, steps int, op, start, runEnd int64) float64 {
	end := p.clk.now()
	calls := obs.calls
	for i := 0; i+cycleSteps <= len(calls); i += cycleSteps {
		next := runEnd
		if i+cycleSteps < len(calls) {
			next = calls[i+cycleSteps].start
		}
		p.latMs = append(p.latMs, float64(next-calls[i].start)/1e6)
	}
	p.dec.add(calls, runEnd)
	p.work += float64(steps)
	p.opNs[op] = end - start
	return float64(steps) / (float64(end-start) / 1e9)
}

// keepFirst returns the function that keeps a route's recording once the
// route has run on plant, which must still be in its starting state: the
// traced pass keeps its first route for the layer probes; everything else
// keeps nothing.
func (p *pass) keepFirst(plant *sim.Plant) func(*observer) {
	if p.tr == nil || p.rec != nil {
		return func(*observer) {}
	}
	start := snapshot(plant)
	return func(obs *observer) { p.rec = &recording{start: start, end: plant, calls: obs.calls} }
}

// hmpcUsages are the fleet usage classes drive_hmpc synthesizes routes for.
var hmpcUsages = []string{"commuter", "delivery", "highway"}

// hmpcPool returns, per usage class, the route specs drive_hmpc draws from:
// 900 s synthesized routes with route seeds 1–16, or two 120 s routes at
// smoke size. Every spec has pinned outputs.
func hmpcPool(smoke bool) [][]hmpc.Spec {
	seeds, seconds := 16, 900.0
	if smoke {
		seeds, seconds = 2, 120
	}
	pool := make([][]hmpc.Spec, len(hmpcUsages))
	for u, usage := range hmpcUsages {
		for s := 1; s <= seeds; s++ {
			pool[u] = append(pool[u], hmpc.Spec{Usage: usage, Seed: int64(s), RouteSeconds: seconds})
		}
	}
	return pool
}

// driveHMPC runs seeded synthesized routes under the two-layer controller:
// each route is hmpc.Build (synthesis, preview, cold outer plan) and then
// sim.RunContext. Rounds draw one route of each usage class.
type driveHMPC struct {
	seed  int64
	smoke bool
	pins  *pinSet
	pool  [][]hmpc.Spec
}

func (w *driveHMPC) setup() error {
	w.pool = hmpcPool(w.smoke)
	warm := w.pool[0][0]
	warm.RouteSeconds = 120
	ctrl, plant, requests, err := hmpc.Build(warm)
	if err != nil {
		return err
	}
	_, err = sim.Run(plant, ctrl, requests, sim.Config{Horizon: core.DefaultConfig().Horizon})
	return err
}

func (w *driveHMPC) measure(ctx context.Context, ps []*pass) error {
	rng := rand.New(rand.NewSource(w.seed))
	// Each usage class walks its own seeded permutation of the pool.
	perms := make([][]int, len(w.pool))
	for u := range perms {
		perms[u] = rng.Perm(len(w.pool[u]))
	}
	k := 0
	err := ps[0].rounds(func(round int) error {
		for _, u := range rng.Perm(len(w.pool)) {
			if err := ctx.Err(); err != nil {
				return err
			}
			spec := w.pool[u][perms[u][round%len(perms[u])]]
			interleave(ps, k, func(p *pass) {
				res, rate, err := w.route(ctx, p, spec)
				p.attempted++
				if err != nil {
					p.fail("route %s: %v", canon.String(spec), err)
					return
				}
				p.rates = append(p.rates, rate)
				if err := w.pins.checkRoute(canon.String(spec), res); err != nil {
					p.fail("%v", err)
				}
			})
			k++
		}
		return nil
	})
	finishRoutes(ps)
	return err
}

// route is one drive_hmpc operation. It returns the route's pinned outputs
// and its simulated steps per wall second, hmpc.Build included.
func (w *driveHMPC) route(ctx context.Context, p *pass, spec hmpc.Spec) (routePin, float64, error) {
	op := p.newOp()
	start := p.clk.now()
	var (
		res    sim.Result
		ctrl   *hmpc.Controller
		obs    *observer
		runID  int64
		runEnd int64
	)
	err := p.timed("route", "bench", op, 0, func(root int64) error {
		var (
			plant    *sim.Plant
			requests []float64
		)
		b0 := p.clk.now()
		if err := p.timed("hmpc.Build", "hmpc", op, root, func(int64) error {
			var err error
			ctrl, plant, requests, err = hmpc.Build(spec)
			return err
		}); err != nil {
			return err
		}
		p.buildMs = append(p.buildMs, float64(p.clk.now()-b0)/1e6)
		obs = newObserver(ctrl, p.clk, len(requests))
		obs.replans = ctrl.InnerReplans
		obs.outers = ctrl.OuterReplans
		keep := p.keepFirst(plant)
		err := p.timed("sim.RunContext", "sim", op, root, func(id int64) error {
			runID = id
			var err error
			res, err = sim.RunContext(ctx, plant, obs, requests, sim.Config{Horizon: core.DefaultConfig().Horizon})
			runEnd = p.clk.now()
			return err
		})
		p.tr.add(obs.spans(p.tr, op, runID)...)
		if err == nil {
			keep(obs)
		}
		return err
	})
	if err != nil {
		return routePin{}, 0, err
	}
	p.routes++
	p.outers += ctrl.OuterReplans()
	p.divergences += ctrl.DivergenceReplans()
	return pinOf(res, ctrl.OuterReplans(), ctrl.DivergenceReplans()), p.addRoute(obs, res.Steps, op, start, runEnd), nil
}
