package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/sim"
	"repro/internal/units"
)

// groupVehicle builds vehicle i of a seeded group: a controller of the
// given configuration, a plant in a distinct state and a forecast window.
// The same (seed, i) always builds the same vehicle, so a group and its
// solo references start from identical copies.
func groupVehicle(t *testing.T, seed int64, i int, cfg Config) (*OTEM, *sim.Plant, []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed*1000 + int64(i)))
	o, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plant, err := sim.NewPlant(sim.PlantConfig{Ambient: units.CToK(-5 + 40*rng.Float64())})
	if err != nil {
		t.Fatal(err)
	}
	plant.HEES.Battery.SoC = 0.25 + 0.7*rng.Float64()
	plant.HEES.Cap.SoE = 0.1 + 0.85*rng.Float64()
	plant.Loop.BatteryTemp = units.CToK(15 + 25*rng.Float64())
	plant.Loop.CoolantTemp = plant.Loop.BatteryTemp - 2*rng.Float64()
	forecast := make([]float64, o.cfg.Horizon)
	for k := range forecast {
		forecast[k] = -20e3 + 90e3*rng.Float64()
	}
	return o, plant, forecast
}

// poison sets one plant state of a vehicle non-finite.
type poison struct {
	name string
	set  func(p *sim.Plant)
}

var poisons = []poison{
	{"none", func(*sim.Plant) {}},
	{"soc-nan", func(p *sim.Plant) { p.HEES.Battery.SoC = math.NaN() }},
	{"temp+inf", func(p *sim.Plant) { p.Loop.BatteryTemp = math.Inf(1) }},
	{"soe-inf", func(p *sim.Plant) { p.HEES.Cap.SoE = math.Inf(-1) }},
	{"coolant-nan", func(p *sim.Plant) { p.Loop.CoolantTemp = math.NaN() }},
}

// sameBits reports whether a and b hold the same bits (NaN payloads
// included).
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sameNaNs is sameBits up to NaN payloads (sameValue): NaNs must sit at
// the same positions, and every other value must match bit for bit.
func sameNaNs(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameValue(a[i], b[i]) {
			return false
		}
	}
	return true
}

// sameAction compares two actions' discrete fields exactly and their float
// fields with same.
func sameAction(a, b sim.Action, same func(a, b []float64) bool) bool {
	return a.Arch == b.Arch && a.CoolingOn == b.CoolingOn && a.DualMode == b.DualMode &&
		same([]float64{a.CapBusPower, a.InletTemp, a.DualChargePower}, []float64{b.CapBusPower, b.InletTemp, b.DualChargePower})
}

// TestPackedReplanIsolatesPoisonedLane packs the replans of a group of
// vehicles, one of whose plants holds a NaN or infinite state, and checks
// every lane against its own solo Decide over several replans: the healthy
// lanes' plans and actions are bit-identical to their solo runs, and the
// poisoned lane's hold their NaNs at the same positions and every other
// value bit for bit (sameNaNs: a lone solo trial runs the Go stages and a
// packed call the AVX2 kernel, whose NaN payloads may differ). A
// non-finite lane makes vmath.Exp4 decline the whole call, and the scalar
// fallback is exact, so nothing leaks between lanes. Vehicle 4 runs a longer horizon, so the
// group also holds two packing classes.
func TestPackedReplanIsolatesPoisonedLane(t *testing.T) {
	const n, steps = 6, 9
	for pi, ps := range poisons {
		bad := pi % n
		type lane struct {
			o        *OTEM
			p        *sim.Plant
			forecast []float64
		}
		build := func() []lane {
			ls := make([]lane, n)
			for i := range ls {
				cfg := DefaultConfig()
				if i == 4 {
					cfg.Horizon, cfg.BlockSize = 48, 12
				}
				o, p, fc := groupVehicle(t, int64(pi), i, cfg)
				if i == bad {
					ps.set(p)
				}
				ls[i] = lane{o, p, fc}
			}
			return ls
		}
		solo, packed := build(), build()
		group := make([]sim.GroupLane, n)
		for step := 0; step < steps; step++ {
			for i := range packed {
				group[i] = sim.GroupLane{Ctrl: packed[i].o, Plant: packed[i].p, Forecast: packed[i].forecast}
			}
			packed[0].o.DecideGroup(group)
			for i, s := range solo {
				want := s.o.Decide(s.p, s.forecast)
				got := group[i].Action
				same := sameBits
				if i == bad {
					same = sameNaNs
				}
				if !sameAction(got, want, same) || !same(packed[i].o.plan, s.o.plan) {
					t.Fatalf("%s step %d lane %d (poisoned %d): packed action %+v plan %v, solo %+v plan %v",
						ps.name, step, i, bad, got, packed[i].o.plan, want, s.o.plan)
				}
			}
		}
		if r := packed[0].o.Replans(); r != 3 {
			t.Fatalf("%s: %d replans over %d steps, want 3", ps.name, r, steps)
		}
	}
}

// TestPackingCounts drives vehicles on distinct plants and routes through
// one sim.RunBatch and counts the packer's work against the same vehicles
// driven alone: every lane's result is its solo result, and packing needs
// fewer rollout calls. It logs the rounds per replan group and the mean
// lanes per call that DESIGN.md §9 quotes.
func TestPackingCounts(t *testing.T) {
	const n, steps = 8, 120
	routes := make([][]float64, n)
	for i := range routes {
		rng := rand.New(rand.NewSource(int64(40 + i)))
		routes[i] = make([]float64, steps-5*i) // staggered: lanes drop out
		for k := range routes[i] {
			routes[i][k] = -15e3 + 75e3*rng.Float64()
		}
	}
	cfg := sim.Config{Horizon: DefaultConfig().Horizon}

	var solo packStats
	want := make([]sim.Result, n)
	for i := range routes {
		o, p, _ := groupVehicle(t, 7, i, DefaultConfig())
		res, err := sim.Run(p, o, routes[i], cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
		solo.groups += o.stats.groups
		solo.rounds += o.stats.rounds
		solo.calls += o.stats.calls
		solo.lanes += o.stats.lanes
	}

	batch := make([]sim.BatchVehicle, n)
	ctrls := make([]*OTEM, n)
	for i := range batch {
		o, p, _ := groupVehicle(t, 7, i, DefaultConfig())
		ctrls[i] = o
		batch[i] = sim.BatchVehicle{Plant: p, Ctrl: o, Requests: routes[i]}
	}
	var sc sim.BatchScratch
	got, err := sim.RunBatch(t.Context(), batch, cfg, &sc)
	if err != nil {
		t.Fatal(err)
	}
	var packed packStats
	replans := 0
	for i, o := range ctrls {
		if got[i] != want[i] {
			t.Fatalf("lane %d: packed %+v, solo %+v", i, got[i], want[i])
		}
		replans += o.Replans()
		packed.groups += o.stats.groups
		packed.rounds += o.stats.rounds
		packed.calls += o.stats.calls
		packed.lanes += o.stats.lanes
	}
	t.Logf("%d replans: solo %d calls of %.2f lanes (%.1f rounds per replan); packed %d groups of %.1f rounds, %d calls of %.2f lanes",
		replans, solo.calls, float64(solo.lanes)/float64(solo.calls), float64(solo.rounds)/float64(solo.groups),
		packed.groups, float64(packed.rounds)/float64(packed.groups), packed.calls, float64(packed.lanes)/float64(packed.calls))
	if packed.groups == 0 || packed.calls >= solo.calls {
		t.Fatalf("packing made %d calls in %d groups, solo %d calls", packed.calls, packed.groups, solo.calls)
	}
}
