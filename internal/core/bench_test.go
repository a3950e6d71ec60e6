package core

import (
	"strconv"
	"testing"

	"repro/internal/sim"
	"repro/internal/units"
)

// distinctPlant returns plant i of a set of distinct plants: states of
// charge, temperatures and ambients spread over their working ranges.
func distinctPlant(b *testing.B, i int) *sim.Plant {
	plant, err := sim.NewPlant(sim.PlantConfig{})
	if err != nil {
		b.Fatal(err)
	}
	f := float64(i%8) / 8
	plant.HEES.Battery.SoC = 0.45 + 0.5*f
	plant.HEES.Cap.SoE = 0.3 + 0.6*(1-f)
	plant.Loop.BatteryTemp = units.CToK(20 + 15*f)
	plant.Loop.CoolantTemp = plant.Loop.BatteryTemp - 1
	plant.Ambient = units.CToK(5 + 30*f)
	return plant
}

// BenchmarkObjectiveLanes measures one lockstep rollout of n lanes, each
// the objective of a different controller on its own plant (a packed
// replan round), and reports ns/lane; /1 is the plain single-lane
// objective. Where vmath's vector exp is not live every width runs scalar
// exps.
func BenchmarkObjectiveLanes(b *testing.B) {
	for n := 1; n <= laneBudget; n++ {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			lanes := make([]fwdLane, n)
			for j := range lanes {
				o, err := New(DefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
				o.roll.capture(distinctPlant(b, j), o.cfg)
				for k := range o.fc {
					o.fc[k] = 30e3 + 2e3*float64(j)
				}
				z := make([]float64, o.planner.Spec().Dim())
				for i := range z {
					z[i] = 0.3 / float64(j+1)
				}
				lanes[j] = fwdLane{o: o, z: z}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				objectiveFwd(lanes)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/lane")
		})
	}
}

// BenchmarkPackedRound measures one ask/tell round of a replan group of
// laneBudget controllers on distinct plants: every vehicle's Ask, the
// packed rollout of their trials and every Tell (with the adjoint of each
// accepted trial). A group that finishes is restarted off the clock. It
// reports ns per lane of the round's rollouts and the mean lanes per
// round.
func BenchmarkPackedRound(b *testing.B) {
	group := make([]sim.GroupLane, laneBudget)
	plants := make([]*sim.Plant, laneBudget)
	forecast := make([]float64, DefaultConfig().Horizon)
	for k := range forecast {
		forecast[k] = 30e3
	}
	for j := range group {
		o, err := New(DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		plants[j] = distinctPlant(b, j)
		group[j] = sim.GroupLane{Ctrl: o}
	}
	lead := group[0].Ctrl.(*OTEM)
	begin := func() {
		for j := range group {
			c := group[j].Ctrl.(*OTEM)
			if c.replanning {
				c.endReplan()
			}
			c.beginReplan(plants[j], forecast)
		}
		assignLeads(group)
	}
	begin()
	b.ReportAllocs()
	b.ResetTimer()
	lanes0 := lead.stats.lanes
	for i := 0; i < b.N; i++ {
		if !lead.packRound(group) {
			b.StopTimer()
			begin()
			b.StartTimer()
			i--
		}
	}
	lanes := lead.stats.lanes - lanes0
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(lanes), "ns/lane")
	b.ReportMetric(float64(lanes)/float64(b.N), "lanes/round")
}

// BenchmarkReplan measures one full horizon optimisation (warm-started).
func BenchmarkReplan(b *testing.B) {
	plant, err := sim.NewPlant(sim.PlantConfig{})
	if err != nil {
		b.Fatal(err)
	}
	o, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	forecast := make([]float64, o.cfg.Horizon)
	for k := range forecast {
		forecast[k] = 30e3
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.replan(plant, forecast)
	}
}
