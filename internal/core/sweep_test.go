package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/battery"
	"repro/internal/core/floats"
	"repro/internal/vmath"
)

// sweepEdges pushes a lane scenario's captured plant, forecast or
// decision to one of the state sweep's edge cases: a zero ESR, an SoE at
// or below the 1e-6 floor, converters that saturate η at its floor or at
// its peak, an idle loss or a negative resistance (neither physical) that
// drives a discriminant below zero, a non-finite state, load or input,
// or a pack a few kelvin above 0 K.
func sweepEdges(rng *rand.Rand, ln fwdLane) {
	r := &ln.o.roll
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
	switch rng.Intn(14) {
	case 0:
		r.capESR = 0
	case 1:
		r.capESR = 0
		r.capBusV = 0
	case 2:
		r.soe = 1e-6 * rng.Float64()
	case 3:
		r.soe = 1e-6
	case 4:
		r.capConv.MinEfficiency, r.battConv.MinEfficiency = 0.96, 0.96
	case 5:
		r.capConv.NominalVoltage, r.battConv.NominalVoltage = 1, 1
	case 6:
		r.capConv.Droop, r.battConv.Droop = 3, 3
	case 7:
		state := [...]*float64{&r.soc, &r.soe, &r.tb, &r.tc}
		*state[rng.Intn(len(state))] = bad
	case 8:
		ln.o.fc[rng.Intn(len(ln.o.fc))] = bad
	case 9:
		ln.z[rng.Intn(len(ln.z))] = bad
	case 10:
		r.capConv.IdleLoss = 1e7
	case 11:
		r.packResScale = -r.packResScale
	case 12:
		// Eq. 5's Arrhenius argument is beyond the vector exp's range
		// below about 10 K. Without Kr the resistance stays finite there,
		// so the cell still carries the current that ages it.
		r.tb = 1 + 9*rng.Float64()
		r.cell.Kr = 0
	}
}

// sweepBranches counts, over every recorded row, how often each branch of
// the state sweep and of the cost went each way: [0] not taken, [1]
// taken.
type sweepBranches map[string][2]int

func (n sweepBranches) add(o *OTEM, tp *tapeRow, c int) {
	both := func(name string, taken bool) {
		m := n[name]
		if taken {
			m[1]++
		} else {
			m[0]++
		}
		n[name] = m
	}
	r := &o.roll
	both("vcapClamped", on(tp.vcapClamped, c))
	both("sagBranch", on(tp.sagBranch, c))
	both("etaCapBusP", on(tp.etaCapBusP, c))
	both("capClamped", on(tp.capClamped, c))
	both("capDiscZero", on(tp.capDiscZero, c))
	both("soeClampHi", on(tp.soeClampHi, c))
	both("etaBattP", on(tp.etaBattP, c))
	both("bsClamped", on(tp.bsClamped, c))
	both("battDiscZero", on(tp.battDiscZero, c))
	both("socClampHi", on(tp.socClampHi, c))
	both("capESR>0", r.capESR > 0)
	both("capBus>=0", tp.capBus[c] >= 0)
	both("battBus>=0", tp.battBus[c] >= 0)
	both("overC6>0", tp.overC6[c] > 0)
	both("tb0>0", tp.tb0[c] > 0)
	both("Kr!=0", r.cell.Kr != 0)
	both("nan", math.IsNaN(tp.soc0[c]+tp.soe0[c]+tp.tb0[c]+tp.voc[c]+tp.i[c]+tp.tb1[c]+tp.tc1[c]))
	// Eq. 5: whether it ages the cell, for each of its reasons, and where
	// it does, whether the power law keeps its direct form and the
	// Arrhenius argument lies within the vector exp's range.
	ai := math.Abs(tp.cellI[c])
	ages := battery.Ages(ai, tp.tb0[c])
	both("ages", ages)
	both("cellI=0", floats.Zero(ai))
	both("cellI=NaN", math.IsNaN(tp.cellI[c]))
	both("!ages||powDirect", !ages || r.agingPow.LogArg(ai) == ai)
	both("!ages||arrhenius<700", !ages || math.Abs(r.cell.AgingExpArg(tp.tb0[c])) < 700)
	if r.capESR <= 0 {
		both("capESR=0,vcap>0", tp.vcap[c] > 0)
	}
	cc, bc := &r.capConv, &r.battConv
	both("etaCap=min", !on(tp.etaCapBusP, c) && tp.etaCapBus[c] == cc.MinEfficiency)
	both("etaCap=peak", !on(tp.etaCapBusP, c) && tp.etaCapBus[c] == cc.PeakEfficiency)
	both("etaBatt=min", !on(tp.etaBattP, c) && tp.etaBatt[c] == bc.MinEfficiency)
	both("etaBatt=peak", !on(tp.etaBattP, c) && tp.etaBatt[c] == bc.PeakEfficiency)
	// The cost stage's hinges, as laneCost tests them, and the tracking
	// terms, on or off per lane (the pmax and C6 terms are bsClamped and
	// overC6>0 above).
	soePre, socPre, tb1 := tp.soePre[c], tp.socPre[c], tp.tb1[c]
	both("cost:soe<min", r.capMinSoE-soePre > 0)
	both("cost:soe>1", soePre-1 > 0)
	both("cost:soc<min", r.battMinSoC-socPre > 0)
	both("cost:soc>1", socPre-1 > 0)
	both("cost:tb>safe", tb1-r.safeTemp > 0)
	tw := (r.battHeatCap*tb1 + r.coolHeatCap*tp.tc1[c]) / (r.battHeatCap + r.coolHeatCap)
	both("cost:tw>target", tw-targetTemp > 0)
	both("cost:trackSoC", o.trackSoC)
	both("cost:trackTb", o.trackTb)
}

// sameValue reports whether x and y hold the same bits, where any NaN
// equals any NaN. The payload (and sign) of the NaN an operation on two
// different NaNs returns is its first operand's, and the Go compiler
// orders the operands of a commutative operation as its register
// allocation likes, so no source program fixes it; whether a value is
// NaN, and every other bit, it does.
func sameValue(x, y float64) bool {
	return sameFloatBits(x, y) || math.IsNaN(x) && math.IsNaN(y)
}

// kernelPath is one way the host runs the state sweep's vector lanes:
// the AVX2 kernel's groups of four, or the AVX-512 kernel's group of
// eight, which calls of at least minLanes lanes reach.
type kernelPath struct {
	name     string
	off      bool // kernel8Off while the path runs
	minLanes int
}

// kernelPaths returns the paths the host has: the AVX2 groups of four
// always (the portable stages where vmath's kernels are not live), and
// the eight-lane kernel where vmath.LiveAVX512 holds.
func kernelPaths() []kernelPath {
	paths := []kernelPath{{name: "avx2", off: true, minLanes: 1}}
	if vmath.LiveAVX512() {
		paths = append(paths, kernelPath{name: "avx512", minLanes: wideLanes})
	}
	return paths
}

// use puts the sweep on the path and returns the function that restores
// the default.
func (p kernelPath) use() func() {
	kernel8Off = p.off
	return func() { kernel8Off = false }
}

// checkSweepKernel checks lanes on every kernel path the host has that a
// call of their number reaches (checkSweepPath), counting each path's
// rows into its entry of seen.
func checkSweepKernel(t *testing.T, lanes []fwdLane, seen map[string]sweepBranches) {
	t.Helper()
	for _, p := range kernelPaths() {
		if len(lanes) < p.minLanes {
			continue
		}
		func() {
			defer p.use()()
			checkSweepPath(t, p.name, lanes, seen[p.name])
		}()
	}
}

// checkSweepPath rolls lanes once on the vector kernel and once on the
// portable stages and fails unless every lane's cost and every field and
// flag of every tape row agree (sameValue), and unless the cost the
// kernel's cost stage summed for each of its lanes equals laneCost's over
// that lane's rows, the terminal term added as objectiveFwd adds it. The
// rows of the lanes that ran on the kernel are counted into seen.
func checkSweepPath(t *testing.T, path string, lanes []fwdLane, seen sweepBranches) {
	t.Helper()
	nk := 0
	if onKernel(len(lanes)) {
		nk = len(lanes)
	}
	objectiveFwd(lanes)
	type lane struct {
		rows []tapeRow
		col  int
		cost float64
	}
	kernel := make([]lane, len(lanes))
	for j, ln := range lanes {
		tape, c := laneTape(ln.o, ln.slot)
		kernel[j] = lane{append([]tapeRow(nil), tape...), c, ln.o.tapeCost[ln.slot]}
	}
	for j, ln := range lanes[:nk] {
		o, kl := ln.o, &kernel[j]
		want := o.laneCost(kl.rows, kl.col)
		last := &kl.rows[len(kl.rows)-1]
		soe := last.soePre[kl.col]
		if on(last.soeClampHi, kl.col) {
			soe = 1
		}
		if d := tebTargetSoE - soe; d > 0 {
			want += o.cfg.TEBWeight * o.roll.capEnergy * d * d
		}
		if !sameValue(kl.cost, want) {
			t.Fatalf("%s: lane %d/%d: kernel cost stage %v, laneCost %v", path, j, len(lanes), kl.cost, want)
		}
	}
	vmath.UsePortable(true)
	defer vmath.UsePortable(false)
	objectiveFwd(lanes)
	for j, ln := range lanes {
		if got, want := kernel[j].cost, ln.o.tapeCost[ln.slot]; !sameValue(got, want) {
			t.Fatalf("%s: lane %d/%d: kernel cost %v, portable %v", path, j, len(lanes), got, want)
		}
		tape, c := laneTape(ln.o, ln.slot)
		for k := range kernel[j].rows {
			got, want := &kernel[j].rows[k], &tape[k]
			if !sameRow(got, kernel[j].col, want, c, sameValue) {
				t.Fatalf("%s: lane %d/%d step %d: kernel row differs\n got %s\nwant %s", path, j, len(lanes), k, laneString(got, kernel[j].col), laneString(want, c))
			}
			if seen != nil && j < nk {
				seen.add(ln.o, want, c)
			}
		}
	}
}

// TestStateSweepKernelMatchesPortable pins the vector kernels to the
// portable stages they replace, on every path the host has (kernelPaths):
// at every lane count from 1 to laneBudget (a lone lane runs the
// portable stages either way), over packed calls on random plants pushed
// to every clamp, both η saturations, a zero ESR, an SoE at or below
// 1e-6, a pack a few kelvin above 0 K and non-finite states, loads and
// inputs, the two sweeps record the same bits (NaN as one value), Eq. 5's
// aging rates and the costs included, and the kernel's cost stage matches
// laneCost. On each path every way of every branch must be reached, the
// aging law's rows that the kernel hands back to Go and every cost hinge
// and tracking term, on and off per lane, among them. The test logs the
// paths it checked, and says so where the AVX-512 kernel is not live.
func TestStateSweepKernelMatchesPortable(t *testing.T) {
	if !useKernel() {
		t.Skip("the state sweep's vector kernel is not live on this host")
	}
	rng := rand.New(rand.NewSource(23))
	seen := map[string]sweepBranches{}
	for _, p := range kernelPaths() {
		seen[p.name] = sweepBranches{}
	}
	for trial := 0; trial < 400; trial++ {
		n := 1 + trial%laneBudget
		lanes := packedLanes(t, rng, n, rng.Intn(3) == 0)
		for _, ln := range lanes {
			if rng.Intn(2) == 0 {
				sweepEdges(rng, ln)
			}
		}
		checkSweepKernel(t, lanes, seen)
	}
	// A zero row on a zero plant names every branch, the capESR ≤ 0 one
	// included.
	names := sweepBranches{}
	names.add(&OTEM{}, &tapeRow{}, 0)
	for _, p := range kernelPaths() {
		for name := range names {
			if n := seen[p.name][name]; n[0] == 0 || n[1] == 0 {
				t.Errorf("%s: branch %s went only one way (%d not taken, %d taken)", p.name, name, n[0], n[1])
			}
		}
		n := seen[p.name]["ages"]
		t.Logf("kernel %s: %d lane rows checked against the portable stages", p.name, n[0]+n[1])
	}
	if !vmath.LiveAVX512() {
		t.Logf("kernel avx512: UNTESTED, AVX-512 F/DQ is not live on this host")
	}
}

// FuzzStateSweep checks the kernel against the portable stages on lanes
// whose first plant starts at the fuzzed state, load and input.
func FuzzStateSweep(f *testing.F) {
	f.Add(int64(1), uint8(4), 0.5, 0.5, 300.0, 30e3, 0.5)
	f.Add(int64(2), uint8(7), 1.2, 1e-7, -4.0, -2e5, -1.0)
	f.Add(int64(3), uint8(2), math.NaN(), 0.3, 310.0, 1e6, 1.0)
	f.Add(int64(4), uint8(8), 0.4, math.Inf(1), math.Inf(-1), math.NaN(), 0.0)
	f.Add(int64(5), uint8(5), -0.1, 0.0, 0.0, 0.0, math.Inf(1))
	// A pack 3 K above 0 K, whose resistance starves the cell of
	// current, and a −1e300 W regen load, whose cell current reaches
	// about −1e149 A before the lane turns NaN.
	f.Add(int64(6), uint8(3), 0.6, 0.5, 3.0, 40e3, 0.2)
	f.Add(int64(7), uint8(6), 0.5, 0.5, 300.0, -1e300, -0.5)
	f.Fuzz(func(t *testing.T, seed int64, n uint8, soc, soe, tb, load, u float64) {
		if !useKernel() {
			t.Skip("the state sweep's vector kernel is not live on this host")
		}
		rng := rand.New(rand.NewSource(seed))
		lanes := packedLanes(t, rng, 1+int(n)%laneBudget, seed%3 == 0)
		o := lanes[0].o
		o.roll.soc, o.roll.soe, o.roll.tb = soc, soe, tb
		for k := range o.fc {
			o.fc[k] = load
		}
		lanes[0].z[0] = u
		checkSweepKernel(t, lanes, nil)
	})
}
