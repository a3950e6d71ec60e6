package hees

import (
	"testing"

	"repro/internal/battery"
	"repro/internal/converter"
	"repro/internal/ultracap"
	"repro/internal/units"
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
