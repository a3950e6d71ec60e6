package battery

import (
	"testing"

	"repro/internal/units"
)

func BenchmarkPackStep(b *testing.B) {
	pack := teslaPack(0.8, units.CToK(25))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := pack.Step(40e3, 1); err != nil {
			b.Fatal(err)
		}
		pack.SoC = 0.8 // keep the operating point fixed
	}
}

func BenchmarkCellOCV(b *testing.B) {
	p := NCR18650A()
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += p.OCV(0.5)
	}
	_ = sink
}

func BenchmarkAgingRate(b *testing.B) {
	p := NCR18650A()
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += p.AgingRate(3, 305)
	}
	_ = sink
}
