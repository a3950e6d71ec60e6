package bms

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/battery"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/units"
)

func TestNewSoCEstimatorValidation(t *testing.T) {
	cell := battery.NCR18650A()
	if _, err := NewSoCEstimator(cell, 0, 24, 0.5, 0.01); err == nil {
		t.Error("zero series accepted")
	}
	if _, err := NewSoCEstimator(cell, 96, 24, 1.5, 0.01); err == nil {
		t.Error("SoC > 1 accepted")
	}
	if _, err := NewSoCEstimator(cell, 96, 24, 0.5, 0); err == nil {
		t.Error("zero variance accepted")
	}
	bad := cell
	bad.CapacityAh = -1
	if _, err := NewSoCEstimator(bad, 96, 24, 0.5, 0.01); err == nil {
		t.Error("invalid cell accepted")
	}
}

// simulateDrive runs a pack through a varying load and feeds noisy
// measurements into the estimator, returning true and estimated SoC series.
func simulateDrive(t *testing.T, est *SoCEstimator, steps int, noiseV float64, seed int64) (trueSoC, estSoC []float64) {
	t.Helper()
	pack, err := battery.NewPack(battery.NCR18650A(), est.Series, est.Parallel, 0.9, units.CToK(25))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < steps; i++ {
		power := 15e3 + 10e3*math.Sin(float64(i)/40)
		res, err := pack.Step(power, 1)
		if err != nil {
			t.Fatal(err)
		}
		measV := res.TerminalVoltage + noiseV*rng.NormFloat64()
		est.Step(res.Current, measV, pack.Temp, 1)
		trueSoC = append(trueSoC, pack.SoC)
		estSoC = append(estSoC, est.SoC)
	}
	return trueSoC, estSoC
}

func TestEstimatorConvergesFromWrongGuess(t *testing.T) {
	cell := battery.NCR18650A()
	// True initial SoC is 0.9; the estimator starts at 0.5.
	est, err := NewSoCEstimator(cell, 96, 24, 0.5, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	est.MeasurementNoise = 0.25 // 0.5 V std
	trueS, estS := simulateDrive(t, est, 1200, 0.5, 7)

	finalErr := math.Abs(estS[len(estS)-1] - trueS[len(trueS)-1])
	if finalErr > 0.03 {
		t.Errorf("final SoC error = %.4f, want < 0.03 (est %.3f, true %.3f)",
			finalErr, estS[len(estS)-1], trueS[len(trueS)-1])
	}
	// The initial error was 0.4; convergence must be substantial.
	if initialErr := math.Abs(estS[0] - trueS[0]); finalErr > initialErr/4 {
		t.Errorf("EKF barely converged: %.4f -> %.4f", initialErr, finalErr)
	}
	// Uncertainty must shrink below the prior.
	if math.Sqrt(est.P) >= math.Sqrt(0.05) {
		t.Errorf("posterior sigma %.4f not below prior", math.Sqrt(est.P))
	}
}

func TestEstimatorTracksUnderNoise(t *testing.T) {
	cell := battery.NCR18650A()
	est, err := NewSoCEstimator(cell, 96, 24, 0.9, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	est.MeasurementNoise = 4 // 2 V std — very noisy sensor
	trueS, estS := simulateDrive(t, est, 900, 2.0, 11)
	var worst float64
	for i := 200; i < len(trueS); i++ {
		if d := math.Abs(estS[i] - trueS[i]); d > worst {
			worst = d
		}
	}
	if worst > 0.05 {
		t.Errorf("tracking error %.4f under noise, want < 0.05", worst)
	}
}

func TestEstimatorSoCStaysInRange(t *testing.T) {
	cell := battery.NCR18650A()
	est, _ := NewSoCEstimator(cell, 96, 24, 0.02, 0.05)
	// Deep discharge with absurd measurements must not push SoC outside
	// [0, 1].
	for i := 0; i < 500; i++ {
		est.Step(400, 100, 298, 1)
		if est.SoC < 0 || est.SoC > 1 {
			t.Fatalf("SoC out of range: %v", est.SoC)
		}
	}
}

func TestEstimatorIgnoresNonPositiveDt(t *testing.T) {
	cell := battery.NCR18650A()
	est, _ := NewSoCEstimator(cell, 96, 24, 0.5, 0.01)
	before := est.SoC
	est.Step(100, 350, 298, 0)
	if est.SoC != before {
		t.Error("dt=0 mutated the estimate")
	}
}

func TestDerivativesMatchFiniteDifference(t *testing.T) {
	p := battery.NCR18650A()
	const h = 1e-6
	for _, z := range []float64{0.15, 0.3, 0.5, 0.7, 0.9} {
		fd := (p.OCV(z+h) - p.OCV(z-h)) / (2 * h)
		if got := p.OCVPrime(z); math.Abs(got-fd) > 1e-4*(1+math.Abs(fd)) {
			t.Errorf("OCVPrime(%v) = %v, finite diff %v", z, got, fd)
		}
		fdR := (p.Resistance(z+h, 305) - p.Resistance(z-h, 305)) / (2 * h)
		if got := p.ResistancePrime(z, 305); math.Abs(got-fdR) > 1e-4*(1+math.Abs(fdR)) {
			t.Errorf("ResistancePrime(%v) = %v, finite diff %v", z, got, fdR)
		}
	}
}

func TestSensedControllerConvergesAndServes(t *testing.T) {
	plant, err := sim.NewPlant(sim.PlantConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Estimator starts badly wrong (0.5 vs true 1.0).
	est, err := NewSoCEstimator(battery.NCR18650A(), 96, 24, 0.5, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	est.MeasurementNoise = 1.0
	inner := policy.NewDual()
	ctrl := NewSensedController(inner, est, 1.0, 3)
	if ctrl.Name() != "Dual[ekf]" {
		t.Errorf("Name = %q", ctrl.Name())
	}
	requests := make([]float64, 600)
	for i := range requests {
		requests[i] = 15e3 + 10e3*math.Sin(float64(i)/30)
	}
	res, err := sim.Run(plant, ctrl, requests, sim.Config{Horizon: 4})
	if err != nil {
		t.Fatal(err)
	}
	// The load was served and the estimator converged to the true state.
	if res.FinalSoC >= 1.0 {
		t.Error("load not served through the sensing wrapper")
	}
	if d := math.Abs(est.SoC - plant.HEES.Battery.SoC); d > 0.05 {
		t.Errorf("estimator ended %.3f from truth", d)
	}
	// The true plant must not have been mutated by the estimated view.
	if plant.HEES.Battery.SoC == est.SoC && est.SoC == 0.5 {
		t.Error("suspicious: view leaked into plant")
	}
}

func TestSensedControllerDeterministic(t *testing.T) {
	run := func() float64 {
		plant, _ := sim.NewPlant(sim.PlantConfig{})
		est, _ := NewSoCEstimator(battery.NCR18650A(), 96, 24, 0.8, 0.05)
		ctrl := NewSensedController(policy.BatteryOnly{}, est, 0.5, 9)
		requests := make([]float64, 120)
		for i := range requests {
			requests[i] = 20e3
		}
		res, err := sim.Run(plant, ctrl, requests, sim.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return res.QlossPct
	}
	if a, b := run(), run(); a != b {
		t.Errorf("nondeterministic: %v vs %v", a, b)
	}
}
