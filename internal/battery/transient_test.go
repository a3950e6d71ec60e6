package battery

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core/floats"
	"repro/internal/units"
)

// The Thevenin model below checks the paper's claim that "a more detailed
// battery electrical model … will not contradict our methodology": the
// simulator runs the quasi-static Pack, and TestRelaxationErrorSmall bounds
// how far one RC polarisation branch moves the drawn energy.

func newTransient(t *testing.T) *TransientPack {
	t.Helper()
	pack, err := NewPack(NCR18650A(), 96, 24, 0.9, units.CToK(25))
	if err != nil {
		t.Fatal(err)
	}
	tp, err := NewTransientPack(pack, DefaultRCPair())
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func TestRCPairValidate(t *testing.T) {
	if err := DefaultRCPair().Validate(); err != nil {
		t.Fatal(err)
	}
	if (RCPair{R: 0, C: 100}).Validate() == nil {
		t.Error("zero R accepted")
	}
	if (RCPair{R: 0.01, C: -1}).Validate() == nil {
		t.Error("negative C accepted")
	}
	if got := (RCPair{R: 0.01, C: 3000}).Tau(); math.Abs(got-30) > 1e-12 {
		t.Errorf("Tau = %v, want 30", got)
	}
}

func TestNewTransientPackValidation(t *testing.T) {
	if _, err := NewTransientPack(nil, DefaultRCPair()); err == nil {
		t.Error("nil pack accepted")
	}
	pack, _ := NewPack(NCR18650A(), 96, 24, 0.9, 298)
	if _, err := NewTransientPack(pack, RCPair{}); err == nil {
		t.Error("invalid RC accepted")
	}
}

func TestPolarisationBuildsAndRelaxes(t *testing.T) {
	tp := newTransient(t)
	// Sustained discharge builds polarisation voltage.
	for i := 0; i < 120; i++ {
		if _, err := tp.Step(40e3, 1); err != nil {
			t.Fatal(err)
		}
	}
	built := tp.Vrc
	if built <= 0 {
		t.Fatalf("polarisation did not build: %v", built)
	}
	// Rest relaxes it toward zero with time constant τ≈30 s.
	for i := 0; i < 90; i++ {
		if _, err := tp.Step(0, 1); err != nil {
			t.Fatal(err)
		}
	}
	if tp.Vrc >= built*0.1 {
		t.Errorf("polarisation did not relax after 3τ: %v of %v", tp.Vrc, built)
	}
}

func TestTransientVoltageSagsBelowStatic(t *testing.T) {
	tp := newTransient(t)
	static, _ := NewPack(NCR18650A(), 96, 24, 0.9, units.CToK(25))
	var vT, vS float64
	for i := 0; i < 60; i++ {
		rt, err := tp.Step(50e3, 1)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := static.Step(50e3, 1)
		if err != nil {
			t.Fatal(err)
		}
		vT, vS = rt.TerminalVoltage, rs.TerminalVoltage
	}
	if vT >= vS {
		t.Errorf("transient terminal voltage %v should sag below static %v under load", vT, vS)
	}
}

func TestTransientHeatIncludesPolarisationLoss(t *testing.T) {
	tp := newTransient(t)
	// Warm up the branch.
	for i := 0; i < 120; i++ {
		if _, err := tp.Step(40e3, 1); err != nil {
			t.Fatal(err)
		}
	}
	static, _ := NewPack(NCR18650A(), 96, 24, tp.SoC, units.CToK(25))
	rt, err := tp.Step(40e3, 1)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := static.Step(40e3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rt.HeatRate <= rs.HeatRate {
		t.Errorf("transient heat %v should exceed static %v (RC dissipation)", rt.HeatRate, rs.HeatRate)
	}
}

func TestTransientStepRejectsBadInput(t *testing.T) {
	tp := newTransient(t)
	if _, err := tp.Step(1e3, 0); err == nil {
		t.Error("dt=0 accepted")
	}
	if _, err := tp.Step(1e9, 1); err == nil {
		t.Error("infeasible power accepted")
	}
}

func TestRelaxationErrorSmall(t *testing.T) {
	// The paper's claim: the quasi-static simplification does not change
	// the energy accounting materially. On a pulsed drive-like profile the
	// RMS relative difference in per-step chemical energy must be small.
	profile := make([]float64, 600)
	for i := range profile {
		switch {
		case i%60 < 10:
			profile[i] = 70e3
		case i%60 < 40:
			profile[i] = 15e3
		default:
			profile[i] = -10e3
		}
	}
	rmse, err := RelaxationError(NCR18650A(), 96, 24, DefaultRCPair(), profile, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rmse <= 0 {
		t.Error("models identical — transient branch inert?")
	}
	if rmse > 0.05 {
		t.Errorf("quasi-static error %.4f exceeds 5%% — simplification claim violated", rmse)
	}
}

// RCPair is one parallel resistor–capacitor branch of a Thevenin battery
// model, capturing the diffusion-driven transient voltage relaxation the
// quasi-static model (Pack) omits. The paper notes that "a more detailed
// battery electrical model … will not contradict our methodology";
// TransientPack exists to check that claim quantitatively.
type RCPair struct {
	// R is the branch resistance in ohms (cell level).
	R float64
	// C is the branch capacitance in farads (cell level).
	C float64
}

// DefaultRCPair returns a diffusion branch typical of 18650-class cells:
// a ~30 s relaxation constant with a polarisation resistance comparable to
// half the ohmic resistance.
func DefaultRCPair() RCPair { return RCPair{R: 0.012, C: 2500} }

// Validate reports an error for non-physical parameters.
func (rc RCPair) Validate() error {
	if rc.R <= 0 || rc.C <= 0 {
		return fmt.Errorf("battery: RC pair (%g Ω, %g F) must be positive", rc.R, rc.C)
	}
	return nil
}

// Tau returns the branch time constant R·C in seconds.
func (rc RCPair) Tau() float64 { return rc.R * rc.C }

// TransientPack augments Pack with one RC polarisation branch per cell:
//
//	V_term = OCV(z) − V_rc − I·R₀(z,T)
//	dV_rc/dt = I_cell/C − V_rc/(R·C)
//
// The polarisation voltage V_rc is shared by all cells (identical cells,
// lumped model), expressed at cell level.
type TransientPack struct {
	// Pack is the underlying quasi-static pack (SoC, temperature, aging).
	*Pack
	// RC is the polarisation branch.
	RC RCPair
	// Vrc is the cell-level polarisation voltage, volts.
	Vrc float64
}

// NewTransientPack wraps a pack with a polarisation branch.
func NewTransientPack(pack *Pack, rc RCPair) (*TransientPack, error) {
	if pack == nil {
		return nil, fmt.Errorf("battery: nil pack")
	}
	if err := rc.Validate(); err != nil {
		return nil, err
	}
	return &TransientPack{Pack: pack, RC: rc}, nil
}

// TerminalVoltage returns the pack terminal voltage at the given pack
// current, including the polarisation drop.
func (tp *TransientPack) TerminalVoltage(packCurrent float64) float64 {
	cellI := packCurrent / float64(tp.Parallel)
	v := tp.Cell.TerminalVoltage(cellI, tp.SoC, tp.Temp) - tp.Vrc
	return v * float64(tp.Series)
}

// Step draws the terminal power (watts, discharge positive) for dt seconds,
// advancing SoC, aging and the polarisation state. The effective
// open-circuit voltage seen by the quadratic power solve is OCV − V_rc.
func (tp *TransientPack) Step(power, dt float64) (StepResult, error) {
	if dt <= 0 {
		return StepResult{}, fmt.Errorf("battery: non-positive dt %g", dt)
	}
	voc := tp.OCV() - tp.Vrc*float64(tp.Series)
	r := tp.Resistance()
	disc := voc*voc - 4*r*power
	if disc < 0 {
		return StepResult{}, fmt.Errorf("%w: %.0f W (transient)", ErrPowerInfeasible, power)
	}
	i := (voc - math.Sqrt(disc)) / (2 * r)

	// Advance the polarisation branch (backward Euler, unconditionally
	// stable): V⁺ = (V + dt·I_cell/C) / (1 + dt/(R·C)).
	cellI := i / float64(tp.Parallel)
	tp.Vrc = (tp.Vrc + dt*cellI/tp.RC.C) / (1 + dt/tp.RC.Tau())

	res := tp.stepWithCurrent(i, dt)
	// Correct the terminal voltage and heat for the polarisation drop: the
	// RC branch dissipates V_rc²/R per cell.
	res.TerminalVoltage -= tp.Vrc * float64(tp.Series)
	rcHeat := tp.Vrc * tp.Vrc / tp.RC.R * float64(tp.CellCount())
	res.HeatRate += rcHeat
	return res, nil
}

// RelaxationError runs both models over the same power profile and returns
// the RMS relative difference of the drawn chemical energy — the
// quantitative check that the quasi-static simplification holds for
// control purposes.
func RelaxationError(cell CellParams, series, parallel int, rc RCPair, profile []float64, dt float64) (float64, error) {
	staticPack, err := NewPack(cell, series, parallel, 0.9, units.CToK(25))
	if err != nil {
		return 0, err
	}
	base, err := NewPack(cell, series, parallel, 0.9, units.CToK(25))
	if err != nil {
		return 0, err
	}
	transient, err := NewTransientPack(base, rc)
	if err != nil {
		return 0, err
	}
	var sumSq float64
	var n int
	for _, p := range profile {
		rs, err := staticPack.Step(p, dt)
		if err != nil {
			return 0, err
		}
		rt, err := transient.Step(p, dt)
		if err != nil {
			return 0, err
		}
		if !floats.Zero(rs.ChemicalEnergy) {
			d := (rt.ChemicalEnergy - rs.ChemicalEnergy) / math.Abs(rs.ChemicalEnergy)
			sumSq += d * d
			n++
		}
	}
	if n == 0 {
		return 0, nil
	}
	return math.Sqrt(sumSq / float64(n)), nil
}
