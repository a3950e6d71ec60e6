package core

import (
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/battery"
	"repro/internal/core/floats"
	"repro/internal/sim"
	"repro/internal/units"
)

// withAllSlots gives o a key for every speculation slot, so the lockstep
// rollout can be exercised on hosts where New keys only slot 0.
func withAllSlots(o *OTEM) {
	for j := range o.tapeZ {
		if o.tapeZ[j] == nil {
			o.tapeZ[j] = make([]float64, o.prob.Dim)
		}
	}
	o.slots = maxSpec
}

// laneTape returns the tape and column that slot s of o was recorded into.
func laneTape(o *OTEM, s int) ([]tapeRow, int) {
	return o.tapeOwner[s].tape[:o.cfg.Horizon], o.tapeCol[s]
}

// sameRow reports whether column ca of row a and column cb of row b agree
// in every flag and, by same, in every field.
func sameRow(a *tapeRow, ca int, b *tapeRow, cb int, same func(x, y float64) bool) bool {
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i), vb.Field(i)
		switch fa.Kind() {
		case reflect.Array:
			if !same(fa.Index(ca).Float(), fb.Index(cb).Float()) {
				return false
			}
		case reflect.Uint8:
			if fa.Uint()>>ca&1 != fb.Uint()>>cb&1 {
				return false
			}
		default:
			panic("tapeRow field of unexpected kind " + fa.Kind().String())
		}
	}
	return true
}

// laneString formats column c of a tape row, field by field.
func laneString(tp *tapeRow, c int) string {
	v := reflect.ValueOf(tp).Elem()
	out := ""
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		out += v.Type().Field(i).Name + ":"
		if f.Kind() == reflect.Array {
			out += strconv.FormatFloat(f.Index(c).Float(), 'g', -1, 64) + " "
		} else {
			out += strconv.FormatBool(f.Uint()>>c&1 != 0) + " "
		}
	}
	return out
}

// sameFloatBits reports whether x and y hold the same bits.
func sameFloatBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

// laneBranches counts how often the rollout's clamps, penalties and
// special cases fired across every recorded row, so the identity test can
// show it covered them.
type laneBranches struct {
	soeLow, soeHigh, socLow, socHigh, pmax, c6 int
	battDiscZero, capDiscZero, vcapClamp, sag  int
	capClamp, overTemp, regen, noKr, tracking  int
	noCurrent, coldPack, powFallback           int
}

func (n *laneBranches) add(o *OTEM, tp *tapeRow, c int) {
	r := &o.roll
	ai := math.Abs(tp.cellI[c])
	flags := []struct {
		hit bool
		n   *int
	}{
		{tp.soePre[c] < r.capMinSoE, &n.soeLow},
		{on(tp.soeClampHi, c), &n.soeHigh},
		{tp.socPre[c] < r.battMinSoC, &n.socLow},
		{on(tp.socClampHi, c), &n.socHigh},
		{on(tp.bsClamped, c), &n.pmax},
		{tp.overC6[c] > 0, &n.c6},
		{on(tp.battDiscZero, c) || tp.sBatt[c] == 0, &n.battDiscZero},
		{on(tp.capDiscZero, c) || (r.capESR > 0 && tp.sCap[c] == 0), &n.capDiscZero},
		{on(tp.vcapClamped, c), &n.vcapClamp},
		{on(tp.sagBranch, c), &n.sag},
		{on(tp.capClamped, c), &n.capClamp},
		{tp.tb1[c] > r.safeTemp, &n.overTemp},
		{tp.battBus[c] < 0, &n.regen},
		{r.cell.Kr == 0, &n.noKr},
		{o.trackSoC && o.trackTb, &n.tracking},
		// Eq. 5 does not age the cell, for either of its two reasons.
		{floats.Zero(ai), &n.noCurrent},
		{tp.tb0[c] <= 0, &n.coldPack},
		// The aging power law leaves its direct form for math.Pow.
		{battery.Ages(ai, tp.tb0[c]) && r.agingPow.LogArg(ai) != ai, &n.powFallback},
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
// correction, tracking terms of either reference or both (when tracking
// is set; a quarter of such controllers track neither), and (as degenerate
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
		switch rng.Intn(4) {
		case 0:
			ref = nil
		case 1:
			ref.TempK = nil
		case 2:
			ref.SoC = nil
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
		dim := o.prob.Dim
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
		wantTape := make([][]tapeRow, n)
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
			if o.tapeOwner[ln.slot] != lanes[j&^3].o || o.tapeCol[ln.slot] != j&3 {
				t.Fatalf("trial %d lane %d: recorded outside its group's column", trial, j)
			}
			tape, c := laneTape(o, ln.slot)
			for k := range wantTape[j] {
				got := &tape[k]
				if !sameRow(got, c, &wantTape[j][k], 0, sameFloatBits) {
					t.Fatalf("trial %d lane %d/%d step %d: tape row differs\n got %s\nwant %s", trial, j, n, k, laneString(got, c), laneString(&wantTape[j][k], 0))
				}
				seen.add(o, got, c)
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
		tape, _ := replayTape(o, randomDecision(rng, o.prob.Dim))
		cell := &o.roll.cell
		for k := range tape {
			tp := &tape[k]
			z := units.Clamp(tp.soc0[0], 0, 1)
			if got, want := cell.OCVPrimeFromExp(z, tp.ocvExp[0]), cell.OCVPrime(tp.soc0[0]); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d step %d: dVoc/dz from tape %v, OCVPrime %v", trial, k, got, want)
			}
			if got, want := cell.ResistancePrimeFromExp(tp.resZExp[0], tp.resTExp[0]), cell.ResistancePrime(tp.soc0[0], tp.tb0[0]); math.Float64bits(got) != math.Float64bits(want) {
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
