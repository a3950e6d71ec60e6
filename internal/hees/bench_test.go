package hees

import (
	"math/rand"
	"testing"

	"repro/internal/battery"
	"repro/internal/converter"
	"repro/internal/ultracap"
	"repro/internal/units"
	"repro/internal/vmath"
)

func benchSystem(b *testing.B) *System {
	b.Helper()
	pack, err := battery.NewPack(battery.NCR18650A(), 96, 24, 0.8, units.CToK(25))
	if err != nil {
		b.Fatal(err)
	}
	bank, err := ultracap.NewBank(ultracap.MaxwellBC(25000), 0.8)
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewSystem(pack, bank, converter.Default(370), converter.Default(390))
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func BenchmarkStepParallel(b *testing.B) {
	s := benchSystem(b)
	s.Cap.SoE = soeForVoltage(s.Cap.Params, s.Battery.OCV())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.StepParallel(30e3, 1); err != nil {
			b.Fatal(err)
		}
		s.Battery.SoC = 0.8
		s.Cap.SoE = soeForVoltage(s.Cap.Params, s.Battery.OCV())
	}
}

func BenchmarkStepHybrid(b *testing.B) {
	s := benchSystem(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.StepHybrid(25e3, 10e3, 1); err != nil {
			b.Fatal(err)
		}
		s.Battery.SoC = 0.8
		s.Cap.SoE = 0.8
	}
}

// BenchmarkBusBatchSolve times one 64-lane Solve of mixed discharge and
// regen lanes, in ns per lane, on the AVX kernel (/vector, where vmath's
// kernels are live) and on the scalar loop (/portable).
func BenchmarkBusBatchSolve(b *testing.B) {
	const n = 64
	bb := NewBusBatch(n)
	rng := rand.New(rand.NewSource(7))
	for k := 0; k < n; k++ {
		bb.VB[k] = 300 + 100*rng.Float64()
		bb.RB[k] = 0.05 + 0.2*rng.Float64()
		bb.VC[k] = 200 + 200*rng.Float64()
		bb.RC[k] = 0.001 + 0.05*rng.Float64()
		bb.P[k] = -20000 + 60000*rng.Float64()
	}
	for _, path := range []struct {
		name     string
		portable bool
	}{{"vector", false}, {"portable", true}} {
		b.Run(path.name, func(b *testing.B) {
			if !path.portable && !vmath.Live() {
				b.Skip("vmath's vector kernels are not live on this host")
			}
			vmath.UsePortable(path.portable)
			defer vmath.UsePortable(false)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bb.Solve(n)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/lane")
		})
	}
}
