package battery

import (
	"math"

	"repro/internal/units"
)

// OCVPrime returns dVoc/dz at state of charge z (fraction), the analytic
// derivative of Eq. 2. State estimators (extended Kalman filters) linearise
// the measurement model with it.
func (p *CellParams) OCVPrime(z float64) float64 {
	z = units.Clamp(z, 0, 1)
	return p.OCVPrimeFromExp(z, math.Exp(p.OCVExpArg(z)))
}

// OCVPrimeFromExp returns dVoc/dz at clamped z given e = exp(OCVExpArg(z)),
// the same exponential OCVFromExp takes, so a caller that kept it from the
// forward evaluation needs no second exp.
func (p *CellParams) OCVPrimeFromExp(z, e float64) float64 {
	z2 := z * z
	return p.V[0]*p.V[1]*e +
		4*p.V[2]*z2*z + 3*p.V[3]*z2 + 2*p.V[4]*z + p.V[5]
}

// ResistancePrime returns dR/dz at state of charge z and temperature T, the
// analytic derivative of Eq. 3 (including the Arrhenius factor, which does
// not depend on z).
func (p *CellParams) ResistancePrime(z, T float64) float64 {
	z = units.Clamp(z, 0, 1)
	zArg, tArg := p.ResistanceExpArgs(z, T)
	return p.ResistancePrimeFromExp(math.Exp(zArg), math.Exp(tArg))
}

// ResistancePrimeFromExp returns dR/dz given the exponentials
// ResistanceFromExp takes.
func (p *CellParams) ResistancePrimeFromExp(ez, et float64) float64 {
	return p.R[0] * p.R[1] * ez * et
}
