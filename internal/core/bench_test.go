package core

import (
	"testing"

	"repro/internal/sim"
)

// BenchmarkObjective measures one single-shooting rollout of the MPC cost
// (the hot inner loop of every replan).
func BenchmarkObjective(b *testing.B) {
	plant, err := sim.NewPlant(sim.PlantConfig{})
	if err != nil {
		b.Fatal(err)
	}
	o, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	o.roll.capture(plant, o.cfg)
	for k := range o.fc {
		o.fc[k] = 30e3
	}
	z := make([]float64, o.planner.Spec().Dim())
	for i := range z {
		z[i] = 0.3
	}
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += o.objective(z)
	}
	_ = sink
}

// BenchmarkObjectiveBatch measures one lockstep rollout of maxLanes
// decision vectors (the batched line-search trials); ns/op ÷ maxLanes is
// the cost per lane against BenchmarkObjective's single lane.
func BenchmarkObjectiveBatch(b *testing.B) {
	plant, err := sim.NewPlant(sim.PlantConfig{})
	if err != nil {
		b.Fatal(err)
	}
	o, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	withAllLanes(o)
	o.roll.capture(plant, o.cfg)
	for k := range o.fc {
		o.fc[k] = 30e3
	}
	zs := make([][]float64, maxLanes)
	for j := range zs {
		zs[j] = make([]float64, o.planner.Spec().Dim())
		for i := range zs[j] {
			zs[j][i] = 0.3 / float64(j+1)
		}
	}
	fs := make([]float64, maxLanes)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.objectiveBatch(zs, fs)
	}
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
