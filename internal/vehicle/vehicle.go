// Package vehicle implements the backward-facing EV power-train model that
// replaces ADVISOR in this reproduction (see DESIGN.md): given a drive-cycle
// speed trace, it computes the electrical power request P_e(t) at the DC bus
// from road load (aerodynamic drag, rolling resistance), inertia, drivetrain
// efficiency, regenerative-braking recovery and auxiliary loads.
//
// Positive power = the storage must deliver energy (traction); negative
// power = regenerated energy flows back into the storage.
package vehicle

import (
	"math"

	"repro/internal/drivecycle"
	"repro/internal/units"
)

// Params describes the vehicle and its power train.
type Params struct {
	// Mass is the kerb mass plus payload in kg.
	Mass float64
	// CdA is the drag coefficient times frontal area in m².
	CdA float64
	// RollingResistance is the dimensionless rolling coefficient C_r.
	RollingResistance float64
	// DrivetrainEff is the combined inverter+motor+gear efficiency applied
	// to traction power, in (0, 1].
	DrivetrainEff float64
	// RegenEff is the fraction of braking power recovered to the bus,
	// in [0, 1].
	RegenEff float64
	// MaxTractionPower caps the bus-side traction power in watts; demands
	// beyond it are clipped, as a power-limited real vehicle would.
	MaxTractionPower float64
	// MaxRegenPower caps the recoverable braking power in watts (friction
	// brakes absorb the rest).
	MaxRegenPower float64
	// AuxPower is the constant accessory load (electronics) in watts.
	AuxPower float64
	// HVACPerKelvin adds climate-control load proportional to the gap
	// between ambient and the 295 K cabin comfort point, in W/K — the HVAC
	// influence the paper's authors studied in their companion work
	// (Al Faruque & Vatanparvar, ASP-DAC 2016).
	HVACPerKelvin float64
}

// MidSizeEV returns parameters for the mid-size EV used throughout the
// experiments (Tesla-Model-S-class mass and drag).
func MidSizeEV() Params {
	return Params{
		Mass:              2200,
		CdA:               0.62,
		RollingResistance: 0.011,
		DrivetrainEff:     0.90,
		RegenEff:          0.60,
		MaxTractionPower:  90e3,
		MaxRegenPower:     50e3,
		AuxPower:          1200,
		HVACPerKelvin:     120,
	}
}

// WheelForce returns the total tractive force at the wheels in newtons for
// speed v (m/s) and acceleration a (m/s²): F = m·a + m·g·C_r + ½ρ·CdA·v².
// Rolling resistance applies only while moving.
func (p Params) WheelForce(v, a float64) float64 {
	f := p.Mass * a
	if v > 0 {
		f += p.Mass * units.Gravity * p.RollingResistance
		f += 0.5 * units.AirDensity * p.CdA * v * v
	}
	return f
}

// BusPower returns the electrical power request at the DC bus in watts for
// speed v and acceleration a, including drivetrain losses, regen recovery
// limits and the auxiliary load.
func (p Params) BusPower(v, a float64) float64 {
	wheel := p.WheelForce(v, a) * v
	var bus float64
	switch {
	case wheel > 0:
		bus = wheel / p.DrivetrainEff
		if bus > p.MaxTractionPower {
			bus = p.MaxTractionPower
		}
	case wheel < 0:
		bus = wheel * p.RegenEff
		if bus < -p.MaxRegenPower {
			bus = -p.MaxRegenPower
		}
	}
	return bus + p.AuxPower
}

// PowerSeries converts a drive cycle into the per-step bus power request
// series P_e(t) consumed by the controllers (one value per cycle sample,
// computed from the mid-step speed and forward-difference acceleration),
// at the comfort-point ambient (no HVAC load).
func (p Params) PowerSeries(c *drivecycle.Cycle) []float64 {
	return p.PowerSeriesAt(c, hvacComfortK)
}

// hvacComfortK is the cabin comfort point at which the HVAC draws nothing.
const hvacComfortK = 295.0

// PowerSeriesAt is PowerSeries at an explicit ambient temperature (kelvin):
// the HVAC load |ambient − 295 K|·HVACPerKelvin is added to every sample,
// so hot- or cold-climate studies see the climate-control drain.
func (p Params) PowerSeriesAt(c *drivecycle.Cycle, ambientK float64) []float64 {
	hvac := p.HVACPerKelvin * math.Abs(ambientK-hvacComfortK)
	out := make([]float64, c.Samples())
	for i := range out {
		v0 := c.Speed[i]
		v1 := v0
		if i+1 < len(c.Speed) {
			v1 = c.Speed[i+1]
		}
		a := (v1 - v0) / c.DT
		vMid := (v0 + v1) / 2
		out[i] = p.BusPower(vMid, a) + hvac
	}
	return out
}

// SeriesStats summarises a power-request series.
type SeriesStats struct {
	// Mean is the average power in watts (traction plus regen).
	Mean float64
	// Peak is the maximum power request in watts.
	Peak float64
	// MinRegen is the most negative (largest regen) power in watts.
	MinRegen float64
	// TractionEnergy is the integral of positive power, joules.
	TractionEnergy float64
	// RegenEnergy is the integral of negative power (≤ 0), joules.
	RegenEnergy float64
}

// Stats summarises a power series sampled at dt seconds.
func Stats(series []float64, dt float64) SeriesStats {
	var s SeriesStats
	if len(series) == 0 {
		return s
	}
	var sum float64
	s.MinRegen = series[0]
	for _, p := range series {
		sum += p
		if p > s.Peak {
			s.Peak = p
		}
		if p < s.MinRegen {
			s.MinRegen = p
		}
		if p > 0 {
			s.TractionEnergy += p * dt
		} else {
			s.RegenEnergy += p * dt
		}
	}
	s.Mean = sum / float64(len(series))
	return s
}
