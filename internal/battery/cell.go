package battery

import (
	"math"

	"repro/internal/core/floats"
	"repro/internal/units"
)

// The cell formulas with an exponential come in two parts: an ExpArg
// method returns the argument of each exponential, and a FromExp method
// evaluates the formula given the exponentials. A caller that evaluates
// several cells at once can then batch the exponentials (vmath.Exp4) and
// still get the scalar methods' bits, because each scalar method is
// exactly its FromExp form with math.Exp in between.

// OCV returns the open-circuit voltage of a cell at state of charge z
// (fraction in [0, 1]) per paper Eq. 2. z is clamped to [0, 1].
func (p *CellParams) OCV(z float64) float64 {
	z = units.Clamp(z, 0, 1)
	return p.OCVFromExp(z, math.Exp(p.OCVExpArg(z)))
}

// OCVExpArg returns V[1]·z, the argument of Eq. 2's exponential, at a
// state of charge z already clamped to [0, 1].
func (p *CellParams) OCVExpArg(z float64) float64 { return p.V[1] * z }

// OCVFromExp returns Eq. 2 at clamped z, given e = exp(OCVExpArg(z)).
func (p *CellParams) OCVFromExp(z, e float64) float64 {
	z2 := z * z
	return p.V[0]*e + p.V[2]*z2*z2 + p.V[3]*z2*z + p.V[4]*z2 + p.V[5]*z + p.V[6]
}

// Resistance returns the cell internal resistance at state of charge z and
// temperature T (kelvin) per paper Eq. 3, including the Arrhenius
// temperature correction: resistance drops as the cell warms.
func (p *CellParams) Resistance(z, T float64) float64 {
	z = units.Clamp(z, 0, 1)
	zArg, tArg := p.ResistanceExpArgs(z, T)
	return p.ResistanceFromExp(math.Exp(zArg), math.Exp(tArg))
}

// ResistanceExpArgs returns the arguments of Eq. 3's two exponentials at a
// clamped state of charge z and temperature T: R[1]·z, and the Arrhenius
// exponent Kr·(1/T − 1/Tref). Without a temperature correction (Kr = 0, or
// T not a temperature) the second is 0, whose exponential is exactly 1.
func (p *CellParams) ResistanceExpArgs(z, T float64) (zArg, tArg float64) {
	zArg = p.R[1] * z
	if floats.Zero(p.Kr) || T <= 0 {
		return zArg, 0
	}
	return zArg, p.Kr * (1/T - 1/p.RefTemp)
}

// ResistanceFromExp returns Eq. 3 given ez and et, the exponentials of the
// two ResistanceExpArgs. Multiplying by et = 1 is exact, so a cell without
// a temperature correction gets the bare R25 term.
func (p *CellParams) ResistanceFromExp(ez, et float64) float64 {
	return (p.R[0]*ez + p.R[2]) * et
}

// AgingRate returns the capacity-loss rate of one cell in percent of rated
// capacity per second, per paper Eq. 5, for cell current i (amperes) and
// temperature T (kelvin). The rate is zero at zero current and grows
// super-linearly with |i| when L[2] > 1, so load peaks age the cell
// disproportionately.
func (p *CellParams) AgingRate(i, T float64) float64 {
	ai := math.Abs(i)
	if !Ages(ai, T) {
		return 0
	}
	return p.AgingRateFromExp(math.Exp(p.AgingExpArg(T)), NewPow(p.L[2]).At(ai))
}

// Ages reports whether Eq. 5 ages a cell at current magnitude ai and
// temperature T; AgingRate is 0 where it does not.
func Ages(ai, T float64) bool { return !floats.Zero(ai) && T > 0 }

// AgingExpArg returns −L[1]/(R̄·T), the argument of Eq. 5's Arrhenius
// exponential.
func (p *CellParams) AgingExpArg(T float64) float64 {
	return -p.L[1] / (units.GasConstant * T)
}

// AgingRateFromExp returns Eq. 5 where Ages holds, given ea =
// exp(AgingExpArg(T)) and pw = |i|^L[2] (NewPow(L[2]).At or FromExp).
func (p *CellParams) AgingRateFromExp(ea, pw float64) float64 {
	return p.L[0] * ea * pw
}

// TerminalVoltage returns the cell terminal voltage under cell current i
// (discharge positive) at state of charge z and temperature T:
// V = Voc − i·R. During charge (i < 0) the terminal voltage exceeds Voc.
func (p *CellParams) TerminalVoltage(i, z, T float64) float64 {
	return p.OCV(z) - i*p.Resistance(z, T)
}
