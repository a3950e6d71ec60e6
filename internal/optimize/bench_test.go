package optimize

import "testing"

func BenchmarkMinimizeRosenbrock(b *testing.B) {
	p := fd(rosenbrock, &Problem{Dim: 2})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := minimize(new(Workspace), p, rosenbrock, []float64{-1.2, 1}, &Options{MaxIterations: 100}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMinimizeBoxQuadratic10D(b *testing.B) {
	n := 10
	f := func(x []float64) float64 {
		var s float64
		for i := range x {
			d := x[i] - 0.3
			s += d * d * float64(i+1)
		}
		return s
	}
	p := fd(f, &Problem{
		Dim:   n,
		Lower: make([]float64, n),
		Upper: fillSlice(n, 1),
	})
	x0 := fillSlice(n, 0.9)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := minimize(new(Workspace), p, f, x0, nil); err != nil {
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
