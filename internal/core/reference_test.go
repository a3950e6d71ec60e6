package core

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/units"
)

// trackingOTEM is randomizedOTEM plus an installed reference trajectory
// and nonzero tracking weights, with the replan-time window preparation
// applied the way replan would.
func trackingOTEM(t *testing.T, rng *rand.Rand) *OTEM {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Horizon = 20
	cfg.BlockSize = 5
	cfg.SoCRefWeight = 5e7
	cfg.TempRefWeight = 1e5
	o, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plant, err := sim.NewPlant(sim.PlantConfig{})
	if err != nil {
		t.Fatal(err)
	}
	plant.HEES.Battery.SoC = 0.3 + 0.65*rng.Float64()
	plant.HEES.Cap.SoE = 0.15 + 0.8*rng.Float64()
	plant.Loop.BatteryTemp = units.CToK(20 + 20*rng.Float64())
	plant.Loop.CoolantTemp = plant.Loop.BatteryTemp - 2*rng.Float64()

	ref := &Reference{SoC: make([]float64, 60), TempK: make([]float64, 60)}
	for i := range ref.SoC {
		ref.SoC[i] = 0.4 + 0.5*rng.Float64()
		ref.TempK[i] = units.CToK(22 + 12*rng.Float64())
	}
	o.SetReference(ref)
	o.stepAbs = rng.Intn(50) // may run the window off the end of the reference

	o.roll.capture(plant, o.cfg)
	o.prepareRefWindow()
	for k := range o.fc {
		o.fc[k] = -30e3 + 110e3*rng.Float64()
	}
	if !o.trackSoC || !o.trackTb {
		t.Fatal("tracking gates not latched")
	}
	return o
}

func TestTrackingGradientMatchesNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		o := trackingOTEM(t, rng)
		dim := o.prob.Dim
		z := make([]float64, dim)
		for i := range z {
			if i%2 == 0 {
				z[i] = -0.9 + 1.8*rng.Float64()
			} else {
				z[i] = 0.05 + 0.9*rng.Float64()
			}
		}
		analytic := make([]float64, dim)
		costA := o.objectiveGrad(z, analytic)
		costF := o.objective(z)
		if math.Abs(costA-costF) > 1e-9*math.Abs(costF) {
			t.Fatalf("trial %d: gradient forward cost %v != objective %v", trial, costA, costF)
		}
		numeric := make([]float64, dim)
		zCopy := append([]float64(nil), z...)
		numericGradient(o.objective, zCopy, numeric)
		scale := 0.0
		for i := range numeric {
			scale = math.Max(scale, math.Abs(numeric[i]))
		}
		if scale == 0 {
			continue
		}
		for i := range numeric {
			if rel := math.Abs(analytic[i]-numeric[i]) / scale; rel > 2e-3 {
				t.Fatalf("trial %d dim %d: analytic %v vs numeric %v (rel %.2e)",
					trial, i, analytic[i], numeric[i], rel)
			}
		}
	}
}

func TestZeroWeightReferenceBitIdentical(t *testing.T) {
	// Installing a reference with zero tracking weights must not perturb
	// the objective by a single bit — the property the collapsed-outer
	// hierarchical identity test builds on.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		flat := randomizedOTEM(t, rng)

		withRef, err := New(flat.cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := &Reference{SoC: make([]float64, 40), TempK: make([]float64, 40)}
		for i := range ref.SoC {
			ref.SoC[i] = rng.Float64()
			ref.TempK[i] = units.CToK(20 + 15*rng.Float64())
		}
		withRef.SetReference(ref)
		withRef.stepAbs = 3
		withRef.roll = flat.roll
		copy(withRef.fc, flat.fc)
		withRef.prepareRefWindow()

		z := make([]float64, flat.prob.Dim)
		for i := range z {
			z[i] = -1 + 2*rng.Float64()
		}
		if a, b := flat.objective(z), withRef.objective(z); a != b {
			t.Fatalf("trial %d: zero-weight reference changed objective: %v != %v", trial, a, b)
		}
		ga := make([]float64, len(z))
		gb := make([]float64, len(z))
		flat.objectiveGrad(z, ga)
		withRef.objectiveGrad(z, gb)
		for i := range ga {
			if ga[i] != gb[i] {
				t.Fatalf("trial %d dim %d: zero-weight reference changed gradient: %v != %v", trial, i, ga[i], gb[i])
			}
		}
	}
}

func TestDivergenceTriggersEarlyReplan(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Horizon = 20
	cfg.BlockSize = 5
	cfg.ReplanInterval = 10
	cfg.SoCRefWeight = 1e6
	build := func(tol float64) (*OTEM, *sim.Plant) {
		o, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		plant, err := sim.NewPlant(sim.PlantConfig{InitialSoC: 0.8})
		if err != nil {
			t.Fatal(err)
		}
		// A reference far from anything the plant will realize, so any
		// positive tolerance trips immediately after the first step.
		ref := &Reference{SoC: make([]float64, 100), TempK: nil, SoCTol: tol}
		for i := range ref.SoC {
			ref.SoC[i] = 0.2
		}
		o.SetReference(ref)
		return o, plant
	}
	forecast := make([]float64, 20)
	for i := range forecast {
		forecast[i] = 30e3
	}

	o, plant := build(0.05)
	for i := 0; i < 6; i++ {
		o.Decide(plant, forecast)
	}
	if o.DivergenceReplans() == 0 {
		t.Fatal("expected divergence-forced replans with a tight tolerance")
	}

	o2, plant2 := build(0) // disabled trigger
	for i := 0; i < 6; i++ {
		o2.Decide(plant2, forecast)
	}
	if got := o2.DivergenceReplans(); got != 0 {
		t.Fatalf("disabled tolerance still forced %d replans", got)
	}
	if o2.Replans() != 1 {
		t.Fatalf("expected exactly 1 interval replan in 6 steps, got %d", o2.Replans())
	}
}

func TestPlanTripTrajectoryMatchesRollout(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Horizon = 16
	cfg.BlockSize = 1 // the outer layer's one-block-per-step geometry
	o, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plant, err := sim.NewPlant(sim.PlantConfig{DT: 30, InitialSoC: 0.9, InitialSoE: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	forecast := make([]float64, 16)
	for i := range forecast {
		forecast[i] = 15e3 + 10e3*math.Sin(float64(i)/3)
	}
	traj := &Trajectory{
		SoC:          make([]float64, 16),
		SoE:          make([]float64, 16),
		BatteryTempK: make([]float64, 16),
		CoolantTempK: make([]float64, 16),
	}
	plan, err := o.PlanTrip(plant, forecast, traj)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != o.prob.Dim {
		t.Fatalf("plan length %d != dim %d", len(plan), o.prob.Dim)
	}

	// Replay the rollout independently and compare the extracted states.
	tape, _ := replayTape(o, plan)
	for k := 0; k < 16; k++ {
		wantSoC, wantSoE := tape[k].socPre[0], tape[k].soePre[0]
		if on(tape[k].socClampHi, 0) {
			wantSoC = 1
		}
		if on(tape[k].soeClampHi, 0) {
			wantSoE = 1
		}
		if traj.SoC[k] != wantSoC || traj.SoE[k] != wantSoE ||
			traj.BatteryTempK[k] != tape[k].tb1[0] || traj.CoolantTempK[k] != tape[k].tc1[0] {
			t.Fatalf("step %d: trajectory does not match rollout tape", k)
		}
	}
	// The trajectory must be physical: monotone SoC drain under pure
	// positive load is not guaranteed (regen is absent here), but states
	// must stay inside their windows.
	for k := 0; k < 16; k++ {
		if traj.SoC[k] < 0 || traj.SoC[k] > 1 || traj.SoE[k] < 0 || traj.SoE[k] > 1.0001 {
			t.Fatalf("step %d: unphysical trajectory state soc=%v soe=%v", k, traj.SoC[k], traj.SoE[k])
		}
		if traj.BatteryTempK[k] < 250 || traj.BatteryTempK[k] > 340 {
			t.Fatalf("step %d: unphysical temperature %v", k, traj.BatteryTempK[k])
		}
	}

	if _, err := o.PlanTrip(plant, forecast, &Trajectory{SoC: make([]float64, 2)}); err == nil {
		t.Fatal("short trajectory buffers must be rejected")
	}
}

func TestPlanTripWarmAllocsZero(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Horizon = 12
	cfg.BlockSize = 1
	o, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plant, err := sim.NewPlant(sim.PlantConfig{DT: 30})
	if err != nil {
		t.Fatal(err)
	}
	forecast := make([]float64, 12)
	for i := range forecast {
		forecast[i] = 20e3
	}
	traj := &Trajectory{
		SoC:          make([]float64, 12),
		SoE:          make([]float64, 12),
		BatteryTempK: make([]float64, 12),
		CoolantTempK: make([]float64, 12),
	}
	if _, err := o.PlanTrip(plant, forecast, traj); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	allocs := testing.AllocsPerRun(10, func() {
		plant.HEES.Battery.SoC -= 1e-4 // perturb so the solve is not a no-op
		if _, err := o.PlanTrip(plant, forecast, traj); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm PlanTrip allocates %.1f times per call", allocs)
	}
	t.Logf("warm PlanTrip: %.2fms per solve", float64(time.Since(start).Milliseconds())/11)
}
