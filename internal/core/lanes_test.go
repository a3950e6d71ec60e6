package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/units"
)

// withAllLanes gives o a tape for every rollout lane, so the lockstep
// rollout can be exercised on hosts where New allocates only lane 0.
func withAllLanes(o *OTEM) {
	for j := range o.tapes {
		if o.tapes[j] == nil {
			o.tapes[j] = make([]stepTape, o.cfg.Horizon)
			o.tapeZ[j] = make([]float64, o.planner.Spec().Dim())
		}
	}
}

// sameRow reports whether two tape rows hold the same bits in every field.
func sameRow(a, b *stepTape) bool {
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i), vb.Field(i)
		switch fa.Kind() {
		case reflect.Float64:
			if math.Float64bits(fa.Float()) != math.Float64bits(fb.Float()) {
				return false
			}
		case reflect.Bool:
			if fa.Bool() != fb.Bool() {
				return false
			}
		default:
			panic("stepTape field of unexpected kind " + fa.Kind().String())
		}
	}
	return true
}

// laneBranches counts how often the rollout's clamps, penalties and
// special cases fired across every recorded row, so the identity test can
// show it covered them.
type laneBranches struct {
	soeLow, soeHigh, socLow, socHigh, pmax, c6 int
	battDiscZero, capDiscZero, vcapClamp, sag  int
	capClamp, overTemp, regen, noKr, tracking  int
}

func (c *laneBranches) add(o *OTEM, tp *stepTape) {
	r := &o.roll
	flags := []struct {
		hit bool
		n   *int
	}{
		{tp.soePre < r.capMinSoE, &c.soeLow},
		{tp.soeClampHi, &c.soeHigh},
		{tp.socPre < r.battMinSoC, &c.socLow},
		{tp.socClampHi, &c.socHigh},
		{tp.bsClamped, &c.pmax},
		{tp.overC6 > 0, &c.c6},
		{tp.battDiscZero || tp.sBatt == 0, &c.battDiscZero},
		{tp.capDiscZero || (r.capESR > 0 && tp.sCap == 0), &c.capDiscZero},
		{tp.vcapClamped, &c.vcapClamp},
		{tp.sagBranch, &c.sag},
		{tp.capClamped, &c.capClamp},
		{tp.tb1 > r.safeTemp, &c.overTemp},
		{tp.battBus < 0, &c.regen},
		{r.cell.Kr == 0, &c.noKr},
		{o.trackSoC && o.trackTb, &c.tracking},
	}
	for _, f := range flags {
		if f.hit {
			*f.n++
		}
	}
}

// laneScenario builds a controller on a random plant state and forecast
// drawn wide enough to drive every clamp of the rollout: near-empty and
// near-full storages, hot and cold packs, regen bursts, loads beyond the
// pack's power and current limits, a cell without a temperature
// correction, tracking terms, and (as degenerate model parameters) a zero
// open-circuit scale and a zero capacitor bus voltage, whose discriminants
// come out exactly zero.
func laneScenario(t *testing.T, rng *rand.Rand) *OTEM {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Horizon = 16
	cfg.BlockSize = 4
	tracking := rng.Intn(3) == 0
	if tracking {
		cfg.SoCRefWeight = 5e7
		cfg.TempRefWeight = 1e5
	}
	o, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	withAllLanes(o)
	plant, err := sim.NewPlant(sim.PlantConfig{})
	if err != nil {
		t.Fatal(err)
	}
	pick := func(xs ...float64) float64 { return xs[rng.Intn(len(xs))] }
	plant.HEES.Battery.SoC = pick(0.15+0.85*rng.Float64(), 0.999, 0.2005)
	plant.HEES.Cap.SoE = pick(rng.Float64(), 1e-7, 0.999, 0.1)
	plant.Loop.BatteryTemp = units.CToK(pick(10+35*rng.Float64(), 42))
	plant.Loop.CoolantTemp = plant.Loop.BatteryTemp - 3*rng.Float64()
	if tracking {
		ref := &Reference{SoC: make([]float64, 40), TempK: make([]float64, 40)}
		for i := range ref.SoC {
			ref.SoC[i] = 0.3 + 0.6*rng.Float64()
			ref.TempK[i] = units.CToK(20 + 15*rng.Float64())
		}
		o.SetReference(ref)
		o.stepAbs = rng.Intn(30)
	}
	o.roll.capture(plant, o.cfg)
	o.prepareRefWindow()
	for k := range o.fc {
		o.fc[k] = pick(-80e3+230e3*rng.Float64(), -250e3, 2e6, 0)
	}
	switch rng.Intn(8) {
	case 0:
		o.roll.cell.Kr = 0
	case 1:
		o.roll.cellOCVScale = 0
	case 2:
		o.roll.capBusV = 0
	}
	return o
}

// randomDecision draws z inside the box, with occasional corner values.
func randomDecision(rng *rand.Rand, dim int) []float64 {
	z := make([]float64, dim)
	for i := range z {
		lo := -1.0
		if i%2 == 1 {
			lo = 0
		}
		switch rng.Intn(6) {
		case 0:
			z[i] = lo
		case 1:
			z[i] = 1
		default:
			z[i] = lo + (1-lo)*rng.Float64()
		}
	}
	return z
}

// TestLockstepRolloutMatchesSingleLane is the lockstep rollout's
// bit-identity contract: for every lane count, each lane's cost and every
// field of every tape row equal a single-lane rollout at the same z, over
// seeded random plants, forecasts and decisions that reach every clamp.
func TestLockstepRolloutMatchesSingleLane(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var seen laneBranches
	for trial := 0; trial < 400; trial++ {
		o := laneScenario(t, rng)
		dim := o.planner.Spec().Dim()
		n := 2 + trial%(maxLanes-1)
		zs := make([][]float64, n)
		wantTape := make([][]stepTape, n)
		wantCost := make([]float64, n)
		for j := range zs {
			zs[j] = randomDecision(rng, dim)
			if j > 0 && rng.Intn(8) == 0 {
				copy(zs[j], zs[j-1]) // duplicate lanes must not interact
			}
			wantTape[j], wantCost[j] = replayTape(o, zs[j])
		}
		fs := make([]float64, n)
		o.objectiveBatch(zs, fs)
		for j := range zs {
			if math.Float64bits(fs[j]) != math.Float64bits(wantCost[j]) {
				t.Fatalf("trial %d lane %d/%d: batched cost %v, single lane %v", trial, j, n, fs[j], wantCost[j])
			}
			if o.tapeLane(zs[j]) < 0 {
				t.Fatalf("trial %d lane %d: tape not keyed by its z", trial, j)
			}
			for k := range wantTape[j] {
				got := &o.tapes[j][k]
				if !sameRow(got, &wantTape[j][k]) {
					t.Fatalf("trial %d lane %d/%d step %d: tape row differs\n got %+v\nwant %+v", trial, j, n, k, *got, wantTape[j][k])
				}
				seen.add(o, got)
			}
		}
	}
	v := reflect.ValueOf(seen)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).Int() == 0 {
			t.Errorf("no row exercised %s", v.Type().Field(i).Name)
		}
	}
}

// TestAdjointReusesForwardExponentials pins the adjoint's exp-free
// derivatives: dVoc/dz and dR/dz rebuilt from the exponentials on the tape
// equal the cell's own OCVPrime and ResistancePrime at the row's state,
// bit for bit.
func TestAdjointReusesForwardExponentials(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		o := laneScenario(t, rng)
		tape, _ := replayTape(o, randomDecision(rng, o.planner.Spec().Dim()))
		cell := &o.roll.cell
		for k := range tape {
			tp := &tape[k]
			z := units.Clamp(tp.soc0, 0, 1)
			if got, want := cell.OCVPrimeFromExp(z, tp.ocvExp), cell.OCVPrime(tp.soc0); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d step %d: dVoc/dz from tape %v, OCVPrime %v", trial, k, got, want)
			}
			if got, want := cell.ResistancePrimeFromExp(tp.resZExp, tp.resTExp), cell.ResistancePrime(tp.soc0, tp.tb0); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d step %d: dR/dz from tape %v, ResistancePrime %v", trial, k, got, want)
			}
		}
	}
}

// TestGradientUsesMatchingLane checks that after a batched evaluation the
// adjoint picks up the lane recorded at its z and returns that lane's cost
// and the gradient of a cold single-lane evaluation.
func TestGradientUsesMatchingLane(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		o := laneScenario(t, rng)
		dim := o.planner.Spec().Dim()
		zs := make([][]float64, maxLanes)
		for j := range zs {
			zs[j] = randomDecision(rng, dim)
		}
		fs := make([]float64, maxLanes)
		o.objectiveBatch(zs, fs)
		j := rng.Intn(maxLanes)
		warm := make([]float64, dim)
		if cost := o.objectiveGrad(zs[j], warm); math.Float64bits(cost) != math.Float64bits(fs[j]) {
			t.Fatalf("trial %d: reused lane %d cost %v, batch %v", trial, j, cost, fs[j])
		}
		o.tapeLanes = 0
		cold := make([]float64, dim)
		o.objectiveGrad(zs[j], cold)
		for i := range cold {
			if math.Float64bits(cold[i]) != math.Float64bits(warm[i]) {
				t.Fatalf("trial %d grad[%d]: lane %d %v, cold %v", trial, i, j, warm[i], cold[i])
			}
		}
	}
}
