package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTemperatureConversions(t *testing.T) {
	cases := []struct {
		c, k float64
	}{
		{0, 273.15},
		{25, 298.15},
		{-40, 233.15},
		{100, 373.15},
	}
	for _, tc := range cases {
		if got := CToK(tc.c); math.Abs(got-tc.k) > 1e-12 {
			t.Errorf("CToK(%v) = %v, want %v", tc.c, got, tc.k)
		}
		if got := KToC(tc.k); math.Abs(got-tc.c) > 1e-12 {
			t.Errorf("KToC(%v) = %v, want %v", tc.k, got, tc.c)
		}
	}
}

func TestTemperatureRoundTrip(t *testing.T) {
	f := func(c float64) bool {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return true
		}
		return math.Abs(KToC(CToK(c))-c) < 1e-9*math.Max(1, math.Abs(c))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSpeedConversions(t *testing.T) {
	if got := KmhToMs(36); math.Abs(got-10) > 1e-12 {
		t.Errorf("KmhToMs(36) = %v, want 10", got)
	}
	if got := MsToKmh(10); math.Abs(got-36) > 1e-12 {
		t.Errorf("MsToKmh(10) = %v, want 36", got)
	}
}

func TestChargeAndEnergyConversions(t *testing.T) {
	if got := AhToCoulomb(3.1); math.Abs(got-11160) > 1e-9 {
		t.Errorf("AhToCoulomb(3.1) = %v, want 11160", got)
	}
	if got := JouleToKWh(3.6e6); got != 1 {
		t.Errorf("JouleToKWh(3.6e6) = %v, want 1", got)
	}
}

func TestClamp(t *testing.T) {
	cases := []struct {
		x, lo, hi, want float64
	}{
		{5, 0, 10, 5},
		{-1, 0, 10, 0},
		{11, 0, 10, 10},
		{0, 0, 0, 0},
	}
	for _, tc := range cases {
		if got := Clamp(tc.x, tc.lo, tc.hi); got != tc.want {
			t.Errorf("Clamp(%v, %v, %v) = %v, want %v", tc.x, tc.lo, tc.hi, got, tc.want)
		}
	}
}

func TestClampPanicsOnInvertedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Clamp(0, 1, -1) did not panic")
		}
	}()
	Clamp(0, 1, -1)
}

func TestClampProperty(t *testing.T) {
	f := func(x, a, b float64) bool {
		if math.IsNaN(x) || math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		lo, hi := math.Min(a, b), math.Max(a, b)
		got := Clamp(x, lo, hi)
		return got >= lo && got <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLerp(t *testing.T) {
	if got := Lerp(0, 10, 0.5); got != 5 {
		t.Errorf("Lerp(0,10,0.5) = %v, want 5", got)
	}
	if got := Lerp(2, 2, 0.3); got != 2 {
		t.Errorf("Lerp(2,2,0.3) = %v, want 2", got)
	}
	if got := Lerp(0, 10, 0); got != 0 {
		t.Errorf("Lerp(0,10,0) = %v, want 0", got)
	}
	if got := Lerp(0, 10, 1); got != 10 {
		t.Errorf("Lerp(0,10,1) = %v, want 10", got)
	}
}

func TestGasConstantValue(t *testing.T) {
	// CODATA 2018 exact value.
	if math.Abs(GasConstant-8.314462618) > 1e-12 {
		t.Errorf("GasConstant = %v", GasConstant)
	}
}
