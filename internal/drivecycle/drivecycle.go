// Package drivecycle provides the standard driving cycles used by the
// paper's evaluation (US06, UDDS, HWFET, NYCC, LA92, SC03) plus tools to
// repeat, resample, synthesise and serialise speed traces.
//
// Substitution note (see DESIGN.md): the paper feeds measured EPA
// second-by-second traces into ADVISOR. This package reconstructs each cycle
// deterministically from published segment statistics (duration, distance,
// average/maximum speed, stop density, acceleration aggressiveness) using a
// micro-trip synthesiser; the controller only ever sees the resulting power
// request series, so matching these statistics preserves the distinctions
// that drive the paper's results (aggressive US06/LA92 vs mild UDDS/NYCC).
package drivecycle

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/units"
)

// Cycle is a speed-versus-time trace sampled on a fixed period.
type Cycle struct {
	// Name identifies the cycle (e.g. "US06").
	Name string
	// DT is the sampling period in seconds.
	DT float64
	// Speed is the vehicle speed at each sample in m/s.
	Speed []float64
}

// Stats summarises a cycle.
type Stats struct {
	// Duration is the total length in seconds.
	Duration float64
	// Distance is the integrated distance in metres.
	Distance float64
	// AvgSpeed is the mean speed including stops, m/s.
	AvgSpeed float64
	// MaxSpeed is the peak speed, m/s.
	MaxSpeed float64
	// MaxAccel is the largest positive acceleration, m/s².
	MaxAccel float64
	// MaxDecel is the largest magnitude deceleration, m/s² (positive value).
	MaxDecel float64
	// RMSAccel is the root-mean-square acceleration, an aggressiveness
	// index, m/s².
	RMSAccel float64
	// StopFraction is the fraction of samples at (near) standstill.
	StopFraction float64
}

// Duration returns the cycle length in seconds.
func (c *Cycle) Duration() float64 { return float64(len(c.Speed)) * c.DT }

// Samples returns the number of samples.
func (c *Cycle) Samples() int { return len(c.Speed) }

// Stats computes summary statistics of the cycle.
func (c *Cycle) Stats() Stats {
	var s Stats
	s.Duration = c.Duration()
	if len(c.Speed) == 0 {
		return s
	}
	var sumV, sumA2 float64
	stopped := 0
	for i, v := range c.Speed {
		sumV += v
		if v > s.MaxSpeed {
			s.MaxSpeed = v
		}
		if v < 0.1 {
			stopped++
		}
		if i > 0 {
			a := (v - c.Speed[i-1]) / c.DT
			if a > s.MaxAccel {
				s.MaxAccel = a
			}
			if -a > s.MaxDecel {
				s.MaxDecel = -a
			}
			sumA2 += a * a
		}
	}
	n := float64(len(c.Speed))
	s.Distance = sumV * c.DT
	s.AvgSpeed = sumV / n
	if len(c.Speed) > 1 {
		s.RMSAccel = math.Sqrt(sumA2 / (n - 1))
	}
	s.StopFraction = float64(stopped) / n
	return s
}

// Repeat returns a new cycle that plays c n times back to back, matching the
// paper's "driving in US06 five times" workloads.
func (c *Cycle) Repeat(n int) *Cycle {
	if n < 1 {
		//lint:ignore nopanic tested argument contract (TestRepeatPanicsOnZero): a non-positive repeat count is a programmer error
		panic("drivecycle: Repeat count must be >= 1")
	}
	out := &Cycle{
		Name:  fmt.Sprintf("%s x%d", c.Name, n),
		DT:    c.DT,
		Speed: make([]float64, 0, n*len(c.Speed)),
	}
	for i := 0; i < n; i++ {
		out.Speed = append(out.Speed, c.Speed...)
	}
	return out
}

// microTrip is one accelerate–cruise–brake–idle phase of a synthetic cycle.
type microTrip struct {
	peakKmh float64 // peak speed, km/h
	accel   float64 // acceleration, m/s²
	decel   float64 // deceleration magnitude, m/s²
	cruise  float64 // cruise time at peak, s
	idle    float64 // standstill time after the stop, s
	repeat  int     // how many times the trip repeats (0 → 1)
}

// mustSynthesize renders a list of micro-trips into a 1 Hz speed trace. It
// panics on malformed trips, which are compile-time constant tables here.
func mustSynthesize(name string, leadIdle float64, trips []microTrip) *Cycle {
	c := &Cycle{Name: name, DT: 1}
	appendHold := func(v, seconds float64) {
		for i := 0; i < int(math.Round(seconds)); i++ {
			c.Speed = append(c.Speed, v)
		}
	}
	appendRamp := func(from, to, rate float64) {
		if rate <= 0 {
			panic("drivecycle: non-positive ramp rate")
		}
		dur := math.Abs(to-from) / rate
		steps := int(math.Ceil(dur))
		for i := 1; i <= steps; i++ {
			f := float64(i) / float64(steps)
			c.Speed = append(c.Speed, units.Lerp(from, to, f))
		}
	}
	appendHold(0, leadIdle)
	for _, tr := range trips {
		n := tr.repeat
		if n < 1 {
			n = 1
		}
		peak := units.KmhToMs(tr.peakKmh)
		for i := 0; i < n; i++ {
			appendRamp(0, peak, tr.accel)
			appendHold(peak, tr.cruise)
			appendRamp(peak, 0, tr.decel)
			appendHold(0, tr.idle)
		}
	}
	return c
}

// US06 returns the aggressive high-speed/high-acceleration supplemental FTP
// cycle (≈600 s, ≈12.9 km, avg ≈77.9 km/h, max ≈129 km/h).
func US06() *Cycle {
	return mustSynthesize("US06", 5, []microTrip{
		{peakKmh: 110, accel: 2.8, decel: 1.5, cruise: 60, idle: 5},
		{peakKmh: 129, accel: 2.2, decel: 1.8, cruise: 130, idle: 8},
		{peakKmh: 50, accel: 2.5, decel: 2.0, cruise: 15, idle: 8, repeat: 3},
		{peakKmh: 100, accel: 3.2, decel: 2.0, cruise: 80, idle: 5},
		{peakKmh: 80, accel: 2.0, decel: 1.5, cruise: 60, idle: 10},
	})
}

// UDDS returns the urban dynamometer driving schedule (≈1369 s, ≈12 km,
// avg ≈31.5 km/h, max ≈91 km/h).
func UDDS() *Cycle {
	return mustSynthesize("UDDS", 20, []microTrip{
		{peakKmh: 91, accel: 1.3, decel: 1.2, cruise: 80, idle: 15},
		{peakKmh: 70, accel: 1.2, decel: 1.2, cruise: 50, idle: 20, repeat: 2},
		{peakKmh: 40, accel: 1.1, decel: 1.2, cruise: 40, idle: 22, repeat: 10},
		{peakKmh: 30, accel: 1.0, decel: 1.1, cruise: 20, idle: 15, repeat: 4},
	})
}

// HWFET returns the highway fuel-economy test cycle (≈765 s, ≈16.5 km,
// avg ≈77.7 km/h, max ≈96 km/h, no intermediate stops).
func HWFET() *Cycle {
	c := &Cycle{Name: "HWFET", DT: 1}
	// One continuous trip with speed plateaus; built manually because the
	// micro-trip synthesiser always returns to standstill.
	seq := []struct {
		target float64 // km/h
		rate   float64 // m/s²
		hold   float64 // s
	}{
		{88, 1.0, 300},
		{96, 0.5, 150},
		{70, 0.5, 150},
		{85, 0.6, 80},
		{0, 1.0, 5},
	}
	c.Speed = append(c.Speed, 0, 0, 0, 0, 0)
	cur := 0.0
	for _, s := range seq {
		target := units.KmhToMs(s.target)
		steps := int(math.Ceil(math.Abs(target-cur) / s.rate))
		for i := 1; i <= steps; i++ {
			c.Speed = append(c.Speed, units.Lerp(cur, target, float64(i)/float64(steps)))
		}
		cur = target
		for i := 0; i < int(s.hold); i++ {
			c.Speed = append(c.Speed, cur)
		}
	}
	return c
}

// NYCC returns the New York City cycle (≈598 s, ≈1.9 km, avg ≈11.4 km/h,
// max ≈44.6 km/h — dense stop-and-go).
func NYCC() *Cycle {
	return mustSynthesize("NYCC", 25, []microTrip{
		{peakKmh: 44, accel: 1.2, decel: 1.5, cruise: 15, idle: 25, repeat: 2},
		{peakKmh: 25, accel: 1.0, decel: 1.3, cruise: 14, idle: 28, repeat: 6},
		{peakKmh: 15, accel: 0.8, decel: 1.0, cruise: 10, idle: 12, repeat: 5},
	})
}

// LA92 returns the LA92 "unified" cycle (≈1435 s, ≈15.8 km, avg ≈39.6 km/h,
// max ≈108 km/h — more aggressive than UDDS).
func LA92() *Cycle {
	return mustSynthesize("LA92", 15, []microTrip{
		{peakKmh: 108, accel: 1.8, decel: 1.5, cruise: 120, idle: 10},
		{peakKmh: 80, accel: 1.6, decel: 1.5, cruise: 80, idle: 12, repeat: 2},
		{peakKmh: 50, accel: 1.5, decel: 1.6, cruise: 35, idle: 18, repeat: 8},
		{peakKmh: 30, accel: 1.3, decel: 1.4, cruise: 20, idle: 22, repeat: 8},
	})
}

// SC03 returns the SC03 air-conditioning supplemental cycle (≈596 s,
// ≈5.8 km, avg ≈34.8 km/h, max ≈88 km/h).
func SC03() *Cycle {
	return mustSynthesize("SC03", 15, []microTrip{
		{peakKmh: 88, accel: 1.7, decel: 1.5, cruise: 60, idle: 12},
		{peakKmh: 50, accel: 1.5, decel: 1.5, cruise: 30, idle: 15, repeat: 3},
		{peakKmh: 40, accel: 1.3, decel: 1.4, cruise: 25, idle: 16, repeat: 5},
	})
}

// ErrUnknown reports a cycle name ByName does not recognise. Match it with
// errors.Is; it is re-exported by the public facade as otem.ErrUnknownCycle.
var ErrUnknown = errors.New("drivecycle: unknown cycle")

// ByName returns a standard cycle by its canonical name. Recognised names
// are returned by Names. Unrecognised names return an error wrapping
// ErrUnknown.
func ByName(name string) (*Cycle, error) {
	switch name {
	case "US06":
		return US06(), nil
	case "UDDS":
		return UDDS(), nil
	case "HWFET":
		return HWFET(), nil
	case "NYCC":
		return NYCC(), nil
	case "LA92":
		return LA92(), nil
	case "SC03":
		return SC03(), nil
	case "WLTC3":
		return WLTC3(), nil
	case "JC08":
		return JC08(), nil
	case "ARTEMIS-URBAN":
		return ArtemisUrban(), nil
	}
	return nil, fmt.Errorf("%w %q (known: %v)", ErrUnknown, name, Names())
}

// Names lists the six EPA cycles the paper-reproduction sweeps run over,
// in sorted order.
func Names() []string {
	n := []string{"US06", "UDDS", "HWFET", "NYCC", "LA92", "SC03"}
	sort.Strings(n)
	return n
}

// AllNames lists every cycle ByName recognises (the EPA set plus WLTC3,
// JC08 and ARTEMIS-URBAN), in sorted order.
func AllNames() []string {
	n := append(Names(), "WLTC3", "JC08", "ARTEMIS-URBAN")
	sort.Strings(n)
	return n
}

// MustAll returns every standard cycle, in Names order. It panics only if
// the registry is inconsistent with Names, which cannot happen outside a
// broken edit to this package.
func MustAll() []*Cycle {
	names := Names()
	out := make([]*Cycle, len(names))
	for i, n := range names {
		c, err := ByName(n)
		if err != nil {
			panic("drivecycle: " + err.Error())
		}
		out[i] = c
	}
	return out
}
