package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/battery"
	"repro/internal/core/floats"
	"repro/internal/sim"
	"repro/internal/units"
)

// withAllSlots gives o a tape for every slot, so the lockstep rollout can
// be exercised on hosts where New allocates only slot 0.
func withAllSlots(o *OTEM) {
	for j := range o.tapes {
		if o.tapes[j] == nil {
			o.tapes[j] = make([]stepTape, o.cfg.Horizon)
			o.tapeZ[j] = make([]float64, o.planner.Spec().Dim())
		}
	}
	o.slots = maxSpec
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
	noCurrent, coldPack, powFallback           int
}

func (c *laneBranches) add(o *OTEM, tp *stepTape) {
	r := &o.roll
	ai := math.Abs(tp.cellI)
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
		// Eq. 5 does not age the cell, for either of its two reasons.
		{floats.Zero(ai), &c.noCurrent},
		{tp.tb0 <= 0, &c.coldPack},
		// The aging power law leaves its direct form for math.Pow.
		{battery.Ages(ai, tp.tb0) && r.agingPow.LogArg(ai) != ai, &c.powFallback},
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
// correction, tracking terms (when tracking is set), and (as degenerate
// model parameters) a zero open-circuit scale and a zero capacitor bus
// voltage, whose discriminants come out exactly zero, a pack starting at
// or below 0 K, where Eq. 5 does not age the cell, and an aging exponent
// whose power law falls back to math.Pow. Controllers built
// with the same tracking flag share one Config, so they may share a
// rollout.
func laneScenario(t *testing.T, rng *rand.Rand, tracking bool) *OTEM {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Horizon = 16
	cfg.BlockSize = 4
	if tracking {
		cfg.SoCRefWeight = 5e7
		cfg.TempRefWeight = 1e5
	}
	o, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	withAllSlots(o)
	plant, err := sim.NewPlant(sim.PlantConfig{})
	if err != nil {
		t.Fatal(err)
	}
	pick := func(xs ...float64) float64 { return xs[rng.Intn(len(xs))] }
	plant.HEES.Battery.SoC = pick(0.15+0.85*rng.Float64(), 0.999, 0.2005)
	plant.HEES.Cap.SoE = pick(rng.Float64(), 1e-7, 0.999, 0.1)
	plant.Loop.BatteryTemp = units.CToK(pick(10+35*rng.Float64(), 42))
	plant.Loop.CoolantTemp = plant.Loop.BatteryTemp - 3*rng.Float64()
	plant.Ambient = units.CToK(-10 + 50*rng.Float64())
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
	case 3:
		o.roll.tb = -5 * rng.Float64()
	case 4:
		o.roll.cell.L[2] = 2.3
		o.roll.agingPow = battery.NewPow(o.roll.cell.L[2])
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

// packedLanes builds one packed rollout call of n lanes over up to n
// controllers: each controller takes 1 to maxSpec consecutive lanes, its
// slots counted from 0 as the packer assigns them.
func packedLanes(t *testing.T, rng *rand.Rand, n int, tracking bool) []fwdLane {
	lanes := make([]fwdLane, 0, n)
	for len(lanes) < n {
		o := laneScenario(t, rng, tracking)
		dim := o.planner.Spec().Dim()
		m := min(1+rng.Intn(maxSpec), n-len(lanes))
		for s := 0; s < m; s++ {
			z := randomDecision(rng, dim)
			if s > 0 && rng.Intn(8) == 0 {
				copy(z, lanes[len(lanes)-1].z) // duplicate lanes must not interact
			}
			lanes = append(lanes, fwdLane{o: o, slot: s, z: z})
		}
	}
	return lanes
}

// TestLockstepRolloutMatchesSingleLane is the lockstep rollout's
// bit-identity contract: for every lane count from 1 to laneBudget, each
// lane's cost and every field of every tape row equal a single-lane
// rollout of its own controller at the same z, over packed calls mixing
// controllers on seeded random plants, forecasts and decisions that reach
// every clamp, both reasons Eq. 5 does not age and the power law's
// math.Pow fallback. Below four lanes the state exponentials of different
// sites share Exp4 calls.
func TestLockstepRolloutMatchesSingleLane(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var seen laneBranches
	for trial := 0; trial < 400; trial++ {
		n := 1 + trial%laneBudget
		lanes := packedLanes(t, rng, n, rng.Intn(3) == 0)
		wantTape := make([][]stepTape, n)
		wantCost := make([]float64, n)
		for j, ln := range lanes {
			wantTape[j], wantCost[j] = replayTape(ln.o, ln.z)
		}
		objectiveFwd(lanes)
		for j, ln := range lanes {
			o := ln.o
			if got := o.tapeCost[ln.slot]; math.Float64bits(got) != math.Float64bits(wantCost[j]) {
				t.Fatalf("trial %d lane %d/%d: packed cost %v, single lane %v", trial, j, n, got, wantCost[j])
			}
			if lane := o.tapeLane(ln.z); lane < 0 || !sameVector(o.tapeZ[lane], ln.z) {
				t.Fatalf("trial %d lane %d: tape not keyed by its z", trial, j)
			}
			for k := range wantTape[j] {
				got := &o.tapes[ln.slot][k]
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
		o := laneScenario(t, rng, rng.Intn(3) == 0)
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

// TestGradientUsesMatchingLane checks that after a packed evaluation the
// adjoint picks up the slot recorded at its z and returns that slot's cost
// and the gradient of a cold single-lane evaluation.
func TestGradientUsesMatchingLane(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		lanes := packedLanes(t, rng, laneBudget, rng.Intn(3) == 0)
		objectiveFwd(lanes)
		ln := lanes[rng.Intn(len(lanes))]
		o := ln.o
		want := o.tapeCost[o.tapeLane(ln.z)]
		warm := make([]float64, len(ln.z))
		if cost := o.objectiveGrad(ln.z, warm); math.Float64bits(cost) != math.Float64bits(want) {
			t.Fatalf("trial %d: reused slot %d cost %v, packed %v", trial, ln.slot, cost, want)
		}
		o.tapeLanes = 0
		cold := make([]float64, len(ln.z))
		o.objectiveGrad(ln.z, cold)
		for i := range cold {
			if math.Float64bits(cold[i]) != math.Float64bits(warm[i]) {
				t.Fatalf("trial %d grad[%d]: slot %d %v, cold %v", trial, i, ln.slot, warm[i], cold[i])
			}
		}
	}
}
