package vehicle

import (
	"math"
	"testing"

	"repro/internal/drivecycle"
	"repro/internal/units"
)

func TestWheelForceComponents(t *testing.T) {
	p := MidSizeEV()
	// At standstill with no acceleration there is no force.
	if f := p.WheelForce(0, 0); f != 0 {
		t.Errorf("force at rest = %v", f)
	}
	// Pure inertia at standstill launch.
	if f := p.WheelForce(0, 2); math.Abs(f-2*p.Mass) > 1e-9 {
		t.Errorf("launch force = %v, want %v", f, 2*p.Mass)
	}
	// Cruise force = rolling + aero.
	v := 30.0
	want := p.Mass*units.Gravity*p.RollingResistance + 0.5*units.AirDensity*p.CdA*v*v
	if f := p.WheelForce(v, 0); math.Abs(f-want) > 1e-9 {
		t.Errorf("cruise force = %v, want %v", f, want)
	}
	// Aero grows quadratically.
	aero20 := p.WheelForce(20, 0) - p.Mass*units.Gravity*p.RollingResistance
	aero40 := p.WheelForce(40, 0) - p.Mass*units.Gravity*p.RollingResistance
	if math.Abs(aero40/aero20-4) > 1e-9 {
		t.Errorf("aero ratio = %v, want 4", aero40/aero20)
	}
}

func TestBusPowerTractionIncludesLosses(t *testing.T) {
	p := MidSizeEV()
	v, a := 25.0, 0.5
	wheel := p.WheelForce(v, a) * v
	want := wheel/p.DrivetrainEff + p.AuxPower
	if got := p.BusPower(v, a); math.Abs(got-want) > 1e-9 {
		t.Errorf("BusPower = %v, want %v", got, want)
	}
	if got := p.BusPower(v, a); got <= wheel {
		t.Error("bus power must exceed wheel power when discharging")
	}
}

func TestBusPowerRegenRecoversFraction(t *testing.T) {
	p := MidSizeEV()
	v, a := 20.0, -2.0
	wheel := p.WheelForce(v, a) * v
	if wheel >= 0 {
		t.Fatalf("test setup: wheel power %v not negative", wheel)
	}
	want := wheel*p.RegenEff + p.AuxPower
	if got := p.BusPower(v, a); math.Abs(got-want) > 1e-9 {
		t.Errorf("regen BusPower = %v, want %v", got, want)
	}
}

func TestBusPowerCaps(t *testing.T) {
	p := MidSizeEV()
	// Massive acceleration at speed: traction clipped.
	if got := p.BusPower(35, 5); got > p.MaxTractionPower+p.AuxPower {
		t.Errorf("traction not capped: %v", got)
	}
	// Massive braking: regen clipped.
	if got := p.BusPower(35, -8); got < -p.MaxRegenPower+p.AuxPower-1e-9 {
		t.Errorf("regen not capped: %v", got)
	}
}

func TestBusPowerIdleIsAuxOnly(t *testing.T) {
	p := MidSizeEV()
	if got := p.BusPower(0, 0); got != p.AuxPower {
		t.Errorf("idle power = %v, want aux %v", got, p.AuxPower)
	}
}

func TestPowerSeriesUS06Magnitudes(t *testing.T) {
	p := MidSizeEV()
	series := p.PowerSeries(drivecycle.US06())
	s := Stats(series, 1)
	// The paper's Table I reports parallel-architecture average power around
	// 17 kW on US06; the raw request (before storage losses) should land in
	// the same regime.
	if s.Mean < 8e3 || s.Mean > 25e3 {
		t.Errorf("US06 mean power = %v W, want 8–25 kW", s.Mean)
	}
	if s.Peak < 60e3 || s.Peak > p.MaxTractionPower+p.AuxPower {
		t.Errorf("US06 peak power = %v W", s.Peak)
	}
	if s.MinRegen >= 0 {
		t.Error("US06 must contain regen (negative) samples")
	}
	if s.RegenEnergy >= 0 {
		t.Error("regen energy should be negative")
	}
}

func TestPowerSeriesOrdering(t *testing.T) {
	// Aggressive cycles demand more average power than mild ones.
	p := MidSizeEV()
	mean := func(c *drivecycle.Cycle) float64 {
		return Stats(p.PowerSeries(c), c.DT).Mean
	}
	us06 := mean(drivecycle.US06())
	hwfet := mean(drivecycle.HWFET())
	udds := mean(drivecycle.UDDS())
	nycc := mean(drivecycle.NYCC())
	if !(us06 > udds && us06 > nycc) {
		t.Errorf("US06 (%v) should out-demand UDDS (%v) and NYCC (%v)", us06, udds, nycc)
	}
	if !(hwfet > udds) {
		t.Errorf("HWFET (%v) should out-demand UDDS (%v)", hwfet, udds)
	}
	if !(nycc < udds) {
		t.Errorf("NYCC (%v) should be the mildest (UDDS %v)", nycc, udds)
	}
}

func TestPowerSeriesLength(t *testing.T) {
	c := drivecycle.NYCC()
	series := MidSizeEV().PowerSeries(c)
	if len(series) != c.Samples() {
		t.Errorf("series length %d, want %d", len(series), c.Samples())
	}
}

func TestStatsEmpty(t *testing.T) {
	s := Stats(nil, 1)
	if s.Mean != 0 || s.Peak != 0 {
		t.Errorf("empty stats = %+v", s)
	}
}

func TestStatsEnergySplit(t *testing.T) {
	s := Stats([]float64{10, -5, 20, -15, 0}, 2)
	if s.TractionEnergy != 60 {
		t.Errorf("TractionEnergy = %v, want 60", s.TractionEnergy)
	}
	if s.RegenEnergy != -40 {
		t.Errorf("RegenEnergy = %v, want -40", s.RegenEnergy)
	}
	if s.Peak != 20 || s.MinRegen != -15 {
		t.Errorf("Peak/MinRegen = %v/%v", s.Peak, s.MinRegen)
	}
	if s.Mean != 2 {
		t.Errorf("Mean = %v, want 2", s.Mean)
	}
}

func TestPowerSeriesAtAddsHVAC(t *testing.T) {
	p := MidSizeEV()
	c := drivecycle.NYCC()
	comfort := p.PowerSeries(c)
	hot := p.PowerSeriesAt(c, 311) // 38 °C
	cold := p.PowerSeriesAt(c, 263)
	wantHot := p.HVACPerKelvin * 16
	for i := range comfort {
		if math.Abs(hot[i]-comfort[i]-wantHot) > 1e-9 {
			t.Fatalf("hot HVAC delta at %d: %v, want %v", i, hot[i]-comfort[i], wantHot)
		}
		if cold[i] <= comfort[i] {
			t.Fatal("cold climate should add heating load too")
		}
	}
}
