package floats

import (
	"math"
	"testing"
)

func TestZero(t *testing.T) {
	cases := []struct {
		x    float64
		want bool
	}{
		{0, true},
		{1e-12, true},
		{-1e-12, true},
		{Eps, true},
		{1e-6, false},
		{1, false},
		{math.Inf(1), false},
		{math.NaN(), false},
	}
	for _, c := range cases {
		if got := Zero(c.x); got != c.want {
			t.Errorf("Zero(%g) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestUnset(t *testing.T) {
	cases := []struct {
		x    float64
		want bool
	}{
		{0, true},
		{math.Copysign(0, -1), true},
		{1e-12, true},
		{Eps, true},
		{-1e-12, false},
		{-5e-10, false},
		{1e-6, false},
		{math.NaN(), false},
	}
	for _, c := range cases {
		if got := Unset(c.x); got != c.want {
			t.Errorf("Unset(%g) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestEq(t *testing.T) {
	cases := []struct {
		a, b float64
		want bool
	}{
		{0, 0, true},
		{1, 1, true},
		{1, 1 + 1e-12, true},
		// Relative tolerance: a megajoule tally off by a milli-joule.
		{3.6e6, 3.6e6 + 1e-3, true},
		{3.6e6, 3.6e6 + 10, false},
		{1, 1.001, false},
		{0, 1e-6, false},
		{math.Inf(1), math.Inf(1), true},
		{math.Inf(1), math.Inf(-1), false},
		{math.NaN(), math.NaN(), false},
	}
	for _, c := range cases {
		if got := Eq(c.a, c.b); got != c.want {
			t.Errorf("Eq(%g, %g) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestTolVariants(t *testing.T) {
	if !ZeroTol(0.5, 0.6) {
		t.Error("ZeroTol(0.5, 0.6) = false, want true")
	}
	if ZeroTol(0.5, 0.4) {
		t.Error("ZeroTol(0.5, 0.4) = true, want false")
	}
	if !EqTol(10, 10.5, 0.1) { // 0.1*10.5 > 0.5
		t.Error("EqTol(10, 10.5, 0.1) = false, want true")
	}
	if EqTol(10, 12, 0.1) {
		t.Error("EqTol(10, 12, 0.1) = true, want false")
	}
}
