package optimize

import "testing"

func BenchmarkMinimizeRosenbrock(b *testing.B) {
	p := fd(&Problem{
		Dim: 2,
		Func: func(x []float64) float64 {
			a := 1 - x[0]
			c := x[1] - x[0]*x[0]
			return a*a + 100*c*c
		},
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := minimize(new(Workspace), p, []float64{-1.2, 1}, &Options{MaxIterations: 100}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMinimizeBoxQuadratic10D(b *testing.B) {
	n := 10
	p := fd(&Problem{
		Dim: n,
		Func: func(x []float64) float64 {
			var s float64
			for i := range x {
				d := x[i] - 0.3
				s += d * d * float64(i+1)
			}
			return s
		},
		Lower: make([]float64, n),
		Upper: fillSlice(n, 1),
	})
	x0 := fillSlice(n, 0.9)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := minimize(new(Workspace), p, x0, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func fillSlice(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}
