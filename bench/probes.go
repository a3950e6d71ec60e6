package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"repro/internal/charger"
	"repro/internal/core"
	"repro/internal/drivecycle"
	"repro/internal/fleet"
	"repro/internal/hees"
	"repro/internal/hmpc"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/vehicle"
	"repro/otem"
)

// inputs is a workload's representative input set, shaped by its seed: the
// layer probes replay public calls of every layer on it, so each per-layer
// time is measured on every workload.
type inputs struct {
	seed int64
	// requests is one route's bus-power series, W, driven from a plant
	// built from plant.
	requests []float64
	plant    sim.PlantConfig
	// synth is the route shape the workload synthesizes, or would.
	synth drivecycle.SynthConfig
	// plan is the workload's two-layer route spec.
	plan hmpc.Spec
	// The workload's cheapest cold serve request: the k-th distinct body,
	// and the same computation called directly.
	coldPath   string
	coldBody   func(k int) []byte
	coldDirect func(ctx context.Context, k int) error
}

// coldSimulate is a cold baseline /v1/simulate on a registered cycle.
func coldSimulate(in *inputs, cycle string) {
	in.coldPath = "/v1/simulate"
	in.coldBody = func(k int) []byte {
		return mustJSON(simBody{Method: string(otem.MethodologyParallel), Cycle: cycle, UltracapFarad: float64(20000 + k)})
	}
	in.coldDirect = func(ctx context.Context, k int) error {
		_, err := otem.RunContext(ctx, otem.RunSpec{Method: otem.MethodologyParallel, Cycle: cycle, UltracapF: float64(20000 + k)})
		return err
	}
}

func (w *driveOTEM) inputs() inputs {
	in := inputs{
		seed:     w.seed,
		requests: w.requests,
		plant:    sim.PlantConfig{InitialSoC: driveSoCs[int(uint64(w.seed)%uint64(len(driveSoCs)))]},
		synth:    fleet.SynthConfigFor(fleet.UsageCommuter, float64(len(w.requests)), w.seed),
		plan:     hmpc.Spec{Cycle: "UDDS"},
	}
	coldSimulate(&in, "UDDS")
	return in
}

func (w *driveHMPC) inputs() inputs {
	spec := w.pool[0][int(uint64(w.seed)%uint64(len(w.pool[0])))]
	in := fleetShapedInputs(w.seed, fleet.UsageClass(spec.Usage), spec.RouteSeconds, 298)
	in.plant = sim.PlantConfig{}
	in.plan = spec
	in.coldPath = "/v1/plan"
	in.coldBody = func(k int) []byte { return mustJSON(planBody{Usage: spec.Usage, Seed: int64(5000 + k)}) }
	in.coldDirect = func(_ context.Context, k int) error {
		_, err := otem.PlanRoute(otem.PlanSpec{Usage: spec.Usage, Seed: int64(5000 + k)})
		return err
	}
	return in
}

func (w *fleetOTEM) inputs() inputs {
	return fleetShapedInputs(w.seed, fleet.UsageCommuter, w.pool[0].RouteSeconds, temperateK)
}

func (w *fleetParallel) inputs() inputs {
	return fleetShapedInputs(w.seed, fleet.UsageCommuter, fleetParallelSpec(w.seed, w.smoke).RouteSeconds, temperateK)
}

func (w *serveMixed) inputs() inputs {
	requests, err := otem.PowerSeries("US06", 1)
	if err != nil {
		panic(err) // US06 is a registered cycle
	}
	in := inputs{
		seed:     w.seed,
		requests: requests,
		synth:    fleet.SynthConfigFor(fleet.UsageCommuter, 900, w.seed),
		plan:     hmpc.Spec{Usage: string(fleet.UsageCommuter), Seed: 1000},
	}
	coldSimulate(&in, "US06")
	return in
}

// Climate-band midpoints of the fleet scenario model, K.
const (
	coldK      = 272.5
	temperateK = 291.5
	hotK       = 306.5
)

// fleetShapedInputs is a synthesized fleet route of the usage class at the
// ambient; its cold serve request is a small Parallel /v1/fleet.
func fleetShapedInputs(seed int64, usage fleet.UsageClass, seconds, ambientK float64) inputs {
	synth := fleet.SynthConfigFor(usage, seconds, seed)
	cycle, err := drivecycle.Synthesize(synth)
	if err != nil {
		panic(err) // the fleet's own class shapes always synthesize
	}
	in := inputs{
		seed:     seed,
		requests: vehicle.MidSizeEV().PowerSeriesAt(cycle, ambientK),
		plant:    sim.PlantConfig{Ambient: ambientK},
		synth:    synth,
		plan:     hmpc.Spec{Usage: string(usage), Seed: seed, RouteSeconds: seconds},
		coldPath: "/v1/fleet",
	}
	type fleetBody struct {
		Vehicles     int     `json:"vehicles"`
		Method       string  `json:"method"`
		RouteSeconds float64 `json:"route_seconds"`
		Seed         int64   `json:"seed"`
	}
	in.coldBody = func(k int) []byte {
		return mustJSON(fleetBody{Vehicles: 8, Method: string(otem.MethodologyParallel), RouteSeconds: seconds, Seed: int64(100 + k)})
	}
	in.coldDirect = func(ctx context.Context, k int) error {
		_, err := otem.RunFleet(ctx, otem.FleetSpec{Vehicles: 8, Method: otem.MethodologyParallel, RouteSeconds: seconds, Seed: int64(100 + k)},
			otem.WithParallelism(runtime.GOMAXPROCS(0)))
		return err
	}
	return in
}

// probes holds the layer probe results.
type probes struct {
	dec                                                     decisions // the core route probe's Decide calls
	hybridNs, parallelNs, busNsPerLane, activeNs, passiveNs float64
	synthUs, chargeUs                                       float64
	buildMs                                                 []float64
	batchNsPerLaneStep, batchDecideShare                    float64
	familyUs                                                []float64
	hitUs, missOverheadUs                                   float64
	detail                                                  map[string]float64
}

// probeSize scales the probes: full or smoke.
type probeSize struct {
	routeSteps, kernelCalls, busLanes, synths, charges, builds, lanes, familySteps, hits, misses int
}

var (
	fullProbes  = probeSize{512, 20000, 100000, 20, 10, 3, 64, 96, 200, 24}
	smokeProbes = probeSize{32, 500, 640, 2, 2, 1, 8, 8, 10, 2}
)

// recording is one route as it ran: the plant before the first step and
// after the last, and every step's request and controller action.
type recording struct {
	start, end *sim.Plant
	calls      []call
}

// snapshot copies a plant's state.
func snapshot(p *sim.Plant) *sim.Plant {
	return &sim.Plant{HEES: p.HEES.Clone(), Loop: p.Loop.Clone(), Ambient: p.Ambient, DT: p.DT}
}

// runProbes replays public calls of every layer on the workload's inputs.
// The plant kernels replay rec, the first route the traced pass ran, or the
// core route probe's route on workloads whose routes run out of the
// benchmark's sight.
func runProbes(ctx context.Context, in inputs, rec *recording, smoke bool) (*probes, error) {
	sz := fullProbes
	if smoke {
		sz = smokeProbes
	}
	pr := &probes{detail: map[string]float64{}}
	own, err := pr.coreRoute(ctx, in, sz)
	if err != nil {
		return nil, err
	}
	if rec == nil {
		rec = own
	}
	steps := []func() error{
		func() error { return pr.kernels(rec, sz) },
		func() error { return pr.synth(in, sz) },
		func() error { return pr.charge(rec, sz) },
		func() error { return pr.builds(in, sz) },
		func() error { return pr.batch(ctx, in, sz) },
		func() error { return pr.families(ctx, in, sz) },
		func() error { return pr.serve(ctx, in, sz) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	return pr, nil
}

// coreRoute drives the head of the workload's route under a wrapped flat
// OTEM controller: the replan and step statistics of workloads that do not
// call core through a bench wrapper themselves. It returns the route.
func (pr *probes) coreRoute(ctx context.Context, in inputs, sz probeSize) (*recording, error) {
	plant, err := sim.NewPlant(in.plant)
	if err != nil {
		return nil, err
	}
	ctrl, err := core.New(core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	requests := in.requests[:min(sz.routeSteps, len(in.requests))]
	clk := newClock()
	obs := newObserver(ctrl, clk, len(requests))
	obs.replans = ctrl.Replans
	start := snapshot(plant)
	if _, err := sim.RunContext(ctx, plant, obs, requests, sim.Config{Horizon: core.DefaultConfig().Horizon}); err != nil {
		return nil, err
	}
	pr.dec.add(obs.calls, clk.now())
	return &recording{start: start, end: plant, calls: obs.calls}, nil
}

// kernels times the plant kernels on the calls a recorded route made. An
// untimed replay from the route's starting state repeats every step: the
// hybrid storage step with the step's request plus the cooling draw, split
// as the controller commanded, then the active thermal step at the
// commanded inlet or the passive one, fed with that step's battery heat.
// The replay skips sim's clamp of a capacitor command the bank cannot
// meet; a command the storage refuses goes to the battery alone. The timed
// passes repeat the same calls on fresh copies of the starting state. The
// parallel storage step runs on the same loads, and the 64-lane bus solve
// on the bus problems of that parallel replay, 64 consecutive steps a call.
// A route whose controller never ran the pump leaves step_active_ns 0.
func (pr *probes) kernels(rec *recording, sz probeSize) error {
	dt, n := rec.start.DT, len(rec.calls)
	loads, battBus, capBus, temps, heat := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	var active, passive []int
	sys, loop := rec.start.HEES.Clone(), rec.start.Loop.Clone()
	refused := 0
	for i, c := range rec.calls {
		loads[i] = c.request
		if c.act.CoolingOn {
			ti := c.act.InletTemp
			if lo := loop.MinFeasibleInlet(); ti < lo {
				ti = lo
			} else if ti > loop.CoolantTemp {
				ti = loop.CoolantTemp
			}
			loads[i] += loop.CoolerPowerFor(ti) + loop.Params.PumpPower
		}
		capBus[i] = c.act.CapBusPower
		temps[i] = loop.BatteryTemp
		sys.Battery.Temp = temps[i]
		rep, err := sys.StepHybrid(loads[i]-capBus[i], capBus[i], dt)
		if err != nil {
			refused++
			capBus[i] = 0
			rep, err = sys.StepHybrid(loads[i], 0, dt)
		}
		if err != nil {
			return fmt.Errorf("hybrid replay step %d: %w", i, err)
		}
		battBus[i], heat[i] = loads[i]-capBus[i], rep.Batt.HeatRate
		if c.act.CoolingOn {
			active = append(active, i)
			_, err = loop.StepActive(heat[i], c.act.InletTemp, dt)
		} else {
			passive = append(passive, i)
			_, err = loop.StepPassive(heat[i], rec.start.Ambient, dt)
		}
		if err != nil {
			return fmt.Errorf("thermal replay step %d: %w", i, err)
		}
	}

	const lanes = 64
	var vb, rb, vc, rc []float64
	errs := 0
	sys = rec.start.HEES.Clone()
	for _, load := range loads {
		pre := sys.PrepareParallel()
		vb, rb, vc, rc = append(vb, pre.Batt.VOC), append(rb, pre.Batt.R), append(vc, pre.VC), append(rc, pre.RC)
		if _, err := sys.StepParallel(load, dt); err != nil {
			errs++
		}
	}

	pr.hybridNs = perCall(sz.kernelCalls, n, func() {
		sys := rec.start.HEES.Clone()
		for i := range battBus {
			sys.Battery.Temp = temps[i]
			if _, err := sys.StepHybrid(battBus[i], capBus[i], dt); err != nil {
				errs++
			}
		}
	})
	pr.parallelNs = perCall(sz.kernelCalls, n, func() {
		sys := rec.start.HEES.Clone()
		for _, load := range loads {
			if _, err := sys.StepParallel(load, dt); err != nil {
				errs++
			}
		}
	})
	bus := hees.NewBusBatch(lanes)
	var busNs time.Duration
	solved := 0
	for g := 0; solved < sz.busLanes; g = (g + lanes) % n {
		k := min(lanes, n-g)
		copy(bus.VB, vb[g:g+k])
		copy(bus.RB, rb[g:g+k])
		copy(bus.VC, vc[g:g+k])
		copy(bus.RC, rc[g:g+k])
		copy(bus.P, loads[g:g+k])
		t0 := time.Now()
		bus.Solve(k)
		busNs += time.Since(t0)
		solved += k
	}
	pr.busNsPerLane = float64(busNs) / float64(solved)
	if len(active) > 0 {
		pr.activeNs = perCall(sz.kernelCalls, len(active), func() {
			loop := rec.start.Loop.Clone()
			for _, i := range active {
				if _, err := loop.StepActive(heat[i], rec.calls[i].act.InletTemp, dt); err != nil {
					errs++
				}
			}
		})
	}
	if len(passive) > 0 {
		pr.passiveNs = perCall(sz.kernelCalls, len(passive), func() {
			loop := rec.start.Loop.Clone()
			for _, i := range passive {
				if _, err := loop.StepPassive(heat[i], rec.start.Ambient, dt); err != nil {
					errs++
				}
			}
		})
	}
	pr.detail["probe_replay_steps"] = float64(n)
	pr.detail["probe_replay_active_steps"] = float64(len(active))
	pr.detail["probe_replay_refused"] = float64(refused)
	pr.detail["probe_kernel_errors"] = float64(errs)
	return nil
}

// perCall repeats pass, which makes perPass calls, until at least calls
// calls ran, and returns the mean time per call in ns.
func perCall(calls, perPass int, pass func()) float64 {
	n := 0
	t0 := time.Now()
	for n < calls {
		pass()
		n += perPass
	}
	return float64(time.Since(t0)) / float64(n)
}

// synth times route synthesis of the workload's route shape.
func (pr *probes) synth(in inputs, sz probeSize) error {
	us := make([]float64, sz.synths)
	for k := range us {
		cfg := in.synth
		cfg.Seed += int64(k)
		t0 := time.Now()
		if _, err := drivecycle.Synthesize(cfg); err != nil {
			return err
		}
		us[k] = float64(time.Since(t0)) / 1e3
	}
	pr.synthUs = quantile(us, 0.5)
	return nil
}

// charge times the charge a fleet's plugged day makes after the recorded
// route: CC-CV from the plant's end state back to the route's starting state
// of charge, at the route's ambient. A route that ends at or above its
// starting state of charge makes no charge call, and leaves charge_us 0.
func (pr *probes) charge(rec *recording, sz probeSize) error {
	if rec.end.HEES.Battery.SoC >= rec.start.HEES.Battery.SoC {
		return nil
	}
	us := make([]float64, sz.charges)
	for k := range us {
		pack, loop := rec.end.HEES.Battery.Clone(), rec.end.Loop.Clone()
		t0 := time.Now()
		if _, err := charger.Charge(pack, loop, charger.Default(), rec.start.HEES.Battery.SoC, rec.end.Ambient); err != nil {
			return err
		}
		us[k] = float64(time.Since(t0)) / 1e3
	}
	pr.chargeUs = quantile(us, 0.5)
	return nil
}

// builds times hmpc.Build of the workload's two-layer route spec.
func (pr *probes) builds(in inputs, sz probeSize) error {
	for k := 0; k < sz.builds; k++ {
		t0 := time.Now()
		if _, _, _, err := hmpc.Build(in.plan); err != nil {
			return err
		}
		pr.buildMs = append(pr.buildMs, float64(time.Since(t0))/1e6)
	}
	return nil
}

// batch runs a lockstep sim.RunBatch sample under the Parallel baseline on
// rotations of the workload's route: once bare for the cost per lane-step,
// once with wrapped controllers for the share of the bare wall time spent
// in Decide, net of the clock read each timed call includes. A Parallel
// decision is below the clock's resolution, so the share reads near 0.
func (pr *probes) batch(ctx context.Context, in inputs, sz probeSize) error {
	n := len(in.requests)
	routes := make([][]float64, sz.lanes)
	for k := range routes {
		off := k * n / sz.lanes
		routes[k] = append(append(make([]float64, 0, n), in.requests[off:]...), in.requests[:off]...)
	}
	lanes := func(clk *clock) ([]sim.BatchVehicle, []*observer, error) {
		out := make([]sim.BatchVehicle, len(routes))
		var obs []*observer
		for k := range out {
			plant, err := sim.NewPlant(in.plant)
			if err != nil {
				return nil, nil, err
			}
			ctrl, err := policy.ByMethodology(policy.MethodologyParallel)
			if err != nil {
				return nil, nil, err
			}
			if clk != nil {
				o := newObserver(ctrl, clk, n)
				obs = append(obs, o)
				ctrl = o
			}
			out[k] = sim.BatchVehicle{Plant: plant, Ctrl: ctrl, Requests: routes[k]}
		}
		return out, obs, nil
	}
	cfg := sim.Config{Horizon: core.DefaultConfig().Horizon}
	var sc sim.BatchScratch
	bare, _, err := lanes(nil)
	if err != nil {
		return err
	}
	t0 := time.Now()
	if _, err := sim.RunBatch(ctx, bare, cfg, &sc); err != nil {
		return err
	}
	wall := float64(time.Since(t0))
	pr.batchNsPerLaneStep = wall / float64(len(routes)*n)

	clk := newClock()
	wrapped, obs, err := lanes(clk)
	if err != nil {
		return err
	}
	if _, err := sim.RunBatch(ctx, wrapped, cfg, &sc); err != nil {
		return err
	}
	const reads = 1 << 16
	r0 := clk.now()
	for i := 0; i < reads; i++ {
		clk.now()
	}
	readNs := float64(clk.now()-r0) / reads
	var decide float64
	for _, o := range obs {
		for _, c := range o.calls {
			decide += float64(c.end-c.start) - readNs
		}
	}
	pr.batchDecideShare = max(decide, 0) / wall
	return nil
}

// families drives one OTEM window per fleet scenario family (usage class ×
// climate band midpoint), from the middle of a synthesized 600 s route.
func (pr *probes) families(ctx context.Context, in inputs, sz probeSize) error {
	usages := []fleet.UsageClass{fleet.UsageCommuter, fleet.UsageDelivery, fleet.UsageHighway}
	climates := []float64{coldK, temperateK, hotK}
	for u, usage := range usages {
		for c, ambient := range climates {
			cycle, err := drivecycle.Synthesize(fleet.SynthConfigFor(usage, 600, in.seed+int64(u*len(climates)+c)))
			if err != nil {
				return err
			}
			requests := vehicle.MidSizeEV().PowerSeriesAt(cycle, ambient)
			lo := len(requests) / 3
			requests = requests[lo:min(len(requests), lo+sz.familySteps)]
			plant, err := sim.NewPlant(sim.PlantConfig{Ambient: ambient})
			if err != nil {
				return err
			}
			ctrl, err := core.New(core.DefaultConfig())
			if err != nil {
				return err
			}
			t0 := time.Now()
			if _, err := sim.RunContext(ctx, plant, ctrl, requests, sim.Config{Horizon: core.DefaultConfig().Horizon}); err != nil {
				return err
			}
			pr.familyUs = append(pr.familyUs, float64(time.Since(t0))/1e3/float64(len(requests)))
		}
	}
	return nil
}

// serve times the workload's cheapest request through a fresh server:
// serial uncontended hits, and cold misses against the same computation
// called directly.
func (pr *probes) serve(ctx context.Context, in inputs, sz probeSize) error {
	h := newServer()
	if rec := post(h, in.coldPath, in.coldBody(0)); rec.Code != http.StatusOK {
		return fmt.Errorf("serve probe %s: status %d: %s", in.coldPath, rec.Code, rec.Body.Bytes())
	}
	hits := make([]float64, sz.hits)
	for i := range hits {
		t0 := time.Now()
		rec := post(h, in.coldPath, in.coldBody(0))
		hits[i] = float64(time.Since(t0)) / 1e3
		if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "hit" {
			return fmt.Errorf("serve probe hit: status %d, X-Cache %q", rec.Code, rec.Header().Get("X-Cache"))
		}
	}
	pr.hitUs = quantile(hits, 0.5)

	handler := make([]float64, sz.misses)
	direct := make([]float64, sz.misses)
	for k := range handler {
		t0 := time.Now()
		if rec := post(h, in.coldPath, in.coldBody(k+1)); rec.Code != http.StatusOK {
			return fmt.Errorf("serve probe miss: status %d: %s", rec.Code, rec.Body.Bytes())
		}
		handler[k] = float64(time.Since(t0)) / 1e3
		t0 = time.Now()
		if err := in.coldDirect(ctx, k+1); err != nil {
			return err
		}
		direct[k] = float64(time.Since(t0)) / 1e3
	}
	pr.missOverheadUs = quantile(handler, 0.5) - quantile(direct, 0.5)
	return nil
}
