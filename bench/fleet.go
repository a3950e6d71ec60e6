package main

import (
	"context"
	"math/rand"
	"runtime"

	"repro/internal/fleet"
	"repro/internal/policy"
	"repro/internal/runner"
)

// workerPool returns a fresh pool of n workers, or of one per CPU for n ≤ 0.
func workerPool(n int) *runner.Pool {
	if n <= 0 {
		n = runtime.NumCPU()
	}
	return runner.New(runner.Workers(n))
}

// fleetOTEMPool returns the fleet specs fleet_otem runs: 64 vehicles (8
// chunks) under OTEM on 200 s routes with fleet seeds 1–4, or two 8-vehicle
// fleets on 60 s routes at smoke size. Every spec has a pinned digest.
func fleetOTEMPool(smoke bool) []fleet.Spec {
	n, vehicles, seconds := 4, 64, 200.0
	if smoke {
		n, vehicles, seconds = 2, 8, 60
	}
	specs := make([]fleet.Spec, n)
	for i := range specs {
		specs[i] = fleet.Spec{Vehicles: vehicles, Days: 1, Seed: int64(i + 1), Method: policy.MethodologyOTEM, RouteSeconds: seconds}
	}
	return specs
}

// fleetParallelSpec is the old BENCH_fleet spec (10 000 vehicles under the
// Parallel baseline on 600 s routes) at the given fleet seed, or 8 vehicles
// on 60 s routes at smoke size.
func fleetParallelSpec(seed int64, smoke bool) fleet.Spec {
	spec := fleet.Spec{Vehicles: 10000, Days: 1, Seed: seed, Method: policy.MethodologyParallel, RouteSeconds: 600}
	if smoke {
		spec.Vehicles, spec.RouteSeconds = 8, 60
	}
	return spec
}

// fleetParallelPinnedSeeds have pinned fleet_parallel digests; seed 1 is
// BENCH_fleet's ab9440dd0738e75d.
var fleetParallelPinnedSeeds = []int64{1, 2, 3, 4}

// fleetRun is one fleet operation: fleet.RunWith on a fresh pool of the
// given size. Progress timestamps give each vehicle's completion latency
// and the tail fraction: the share of wall time after all but the last
// `workers` chunks had finished.
func fleetRun(ctx context.Context, p *pass, spec fleet.Spec, workers int) (res *fleet.Result, wallS, tailFrac float64, err error) {
	op := p.newOp()
	var done []int64
	var counts []int
	start := p.clk.now()
	err = p.timed("fleet", "bench", op, 0, func(root int64) error {
		return p.timed("fleet.RunWith", "fleet", op, root, func(int64) error {
			var err error
			res, err = fleet.RunWith(ctx, spec, fleet.Options{
				Pool: workerPool(workers),
				Progress: func(vehiclesDone, _ int) {
					done = append(done, p.clk.now())
					counts = append(counts, vehiclesDone)
				},
			})
			return err
		})
	})
	end := p.clk.now()
	if err != nil {
		return nil, 0, 0, err
	}
	prev := 0
	for i, t := range done {
		for v := prev; v < counts[i]; v++ {
			p.latMs = append(p.latMs, float64(t-start)/1e6)
		}
		prev = counts[i]
	}
	tailFrac = 1
	if k := len(done) - workers; k > 0 {
		tailFrac = float64(end-done[k-1]) / float64(end-start)
	}
	p.opNs[op] = end - start
	p.work += float64(spec.Vehicles)
	return res, float64(end-start) / 1e9, tailFrac, nil
}

// fleetOTEM is the fleet under the paper's controller: core inside the
// batched rollout, chunk imbalance visible across 8 chunks on the pool.
type fleetOTEM struct {
	seed  int64
	smoke bool
	pins  *pinSet
	pool  []fleet.Spec
}

func (w *fleetOTEM) setup() error {
	w.pool = fleetOTEMPool(w.smoke)
	_, err := fleet.RunWith(context.Background(),
		fleet.Spec{Vehicles: 8, Days: 1, Seed: 1, RouteSeconds: 60}, fleet.Options{Pool: workerPool(0)})
	return err
}

// measure runs rounds of the whole pool in a seeded order: fleets differ in
// their scenario mix, so only whole rounds keep the rate a function of the
// code rather than of the mix.
func (w *fleetOTEM) measure(ctx context.Context, ps []*pass) error {
	rng := rand.New(rand.NewSource(w.seed))
	workers := runtime.NumCPU()
	tails := make(map[*pass][]float64)
	k := 0
	err := ps[0].rounds(func(int) error {
		for _, i := range rng.Perm(len(w.pool)) {
			if err := ctx.Err(); err != nil {
				return err
			}
			spec := w.pool[i]
			interleave(ps, k, func(p *pass) {
				res, wall, tail, err := fleetRun(ctx, p, spec, workers)
				p.attempted++
				if err != nil {
					p.fail("fleet seed %d: %v", spec.Seed, err)
					return
				}
				if err := w.pins.checkFleet(spec, res.Digest(), true); err != nil {
					p.fail("%v", err)
				}
				p.rates = append(p.rates, float64(spec.Vehicles)/wall)
				tails[p] = append(tails[p], tail)
			})
			k++
		}
		return nil
	})
	for _, p := range ps {
		p.opsPerS = quantile(p.rates, 0.5)
		p.detail["vehicles_per_s"] = p.opsPerS
		p.detail["tail_frac"] = quantile(tails[p], 0.5)
	}
	return err
}

// fleetParallel is the old BENCH_fleet workload: core does nothing here;
// hees.BusBatch, sim.RunBatch, route synthesis and charging carry it. Every
// round rolls a fresh fleet seed at one worker per CPU; round 0's fleet also
// rolls at one worker, for the scaling efficiency, and the two digests must
// agree.
type fleetParallel struct {
	seed  int64
	smoke bool
	pins  *pinSet
}

func (w *fleetParallel) setup() error {
	spec := fleetParallelSpec(1, false)
	spec.Vehicles = 1024
	_, err := fleet.RunWith(context.Background(), spec, fleet.Options{Pool: workerPool(0)})
	return err
}

func (w *fleetParallel) measure(ctx context.Context, ps []*pass) error {
	n := runtime.NumCPU()
	tails := make(map[*pass][]float64)
	// Before the rounds, round 0's fleet rolls at one worker: the
	// determinism check and the scaling baseline, not a latency sample.
	first := fleetParallelSpec(w.seed, w.smoke)
	one, serial := make(map[*pass]string), make(map[*pass]float64)
	interleave(ps, 0, func(p *pass) {
		mark := len(p.latMs)
		res, wall, _, err := fleetRun(ctx, p, first, 1)
		p.attempted++
		p.latMs = p.latMs[:mark]
		if err != nil {
			p.fail("fleet seed %d at 1 worker: %v", first.Seed, err)
			return
		}
		one[p], serial[p] = res.Digest(), wall
	})
	err := ps[0].rounds(func(r int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		spec := fleetParallelSpec(w.seed+int64(r), w.smoke)
		interleave(ps, r, func(p *pass) {
			res, wall, tail, err := fleetRun(ctx, p, spec, n)
			p.attempted++
			if err != nil {
				p.fail("fleet seed %d at %d workers: %v", spec.Seed, n, err)
				return
			}
			digest := res.Digest()
			if r == 0 && one[p] != "" && one[p] != digest {
				p.fail("fleet seed %d: digest %s at 1 worker, %s at %d workers", spec.Seed, one[p], digest, n)
			}
			if err := w.pins.checkFleet(spec, digest, false); err != nil {
				p.fail("%v", err)
			}
			p.rates = append(p.rates, float64(spec.Vehicles)/wall)
			tails[p] = append(tails[p], tail)
		})
		return nil
	})
	for _, p := range ps {
		p.opsPerS = quantile(p.rates, 0.5)
		p.detail["vehicles_per_s"] = p.opsPerS
		p.detail["tail_frac"] = quantile(tails[p], 0.5)
		if serial[p] > 0 {
			p.detail["scaling_eff"] = p.opsPerS * serial[p] / (float64(n) * float64(first.Vehicles))
		}
	}
	return err
}
