package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/vmath"
)

// sweepEdges pushes a lane scenario's captured plant, forecast or
// decision to one of the state sweep's edge cases: a zero ESR, an SoE at
// or below the 1e-6 floor, converters that saturate η at its floor or at
// its peak, an idle loss or a negative resistance (neither physical) that
// drives a discriminant below zero, or a non-finite state, load or input.
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
	}
}

// sweepBranches counts, over every recorded row, how often each branch of
// the state sweep went each way: [0] not taken, [1] taken.
type sweepBranches map[string][2]int

func (c sweepBranches) add(r *rollout, tp *stepTape) {
	both := func(name string, on bool) {
		n := c[name]
		if on {
			n[1]++
		} else {
			n[0]++
		}
		c[name] = n
	}
	both("vcapClamped", tp.vcapClamped)
	both("sagBranch", tp.sagBranch)
	both("etaCapBusP", tp.etaCapBusP)
	both("capClamped", tp.capClamped)
	both("capDiscZero", tp.capDiscZero)
	both("soeClampHi", tp.soeClampHi)
	both("etaBattP", tp.etaBattP)
	both("bsClamped", tp.bsClamped)
	both("battDiscZero", tp.battDiscZero)
	both("socClampHi", tp.socClampHi)
	both("capESR>0", r.capESR > 0)
	both("capBus>=0", tp.capBus >= 0)
	both("battBus>=0", tp.battBus >= 0)
	both("overC6>0", tp.overC6 > 0)
	both("tb0>0", tp.tb0 > 0)
	both("Kr!=0", r.cell.Kr != 0)
	both("nan", math.IsNaN(tp.soc0+tp.soe0+tp.tb0+tp.voc+tp.i+tp.tb1+tp.tc1))
	if r.capESR <= 0 {
		both("capESR=0,vcap>0", tp.vcap > 0)
	}
	cc, bc := &r.capConv, &r.battConv
	both("etaCap=min", !tp.etaCapBusP && tp.etaCapBus == cc.MinEfficiency)
	both("etaCap=peak", !tp.etaCapBusP && tp.etaCapBus == cc.PeakEfficiency)
	both("etaBatt=min", !tp.etaBattP && tp.etaBatt == bc.MinEfficiency)
	both("etaBatt=peak", !tp.etaBattP && tp.etaBatt == bc.PeakEfficiency)
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

// checkSweepKernel rolls lanes once on the vector kernel and once on the
// portable stages and fails unless every lane's cost and every field and
// flag of every tape row agree (sameValue). The rows are counted into
// seen.
func checkSweepKernel(t *testing.T, lanes []fwdLane, seen sweepBranches) {
	t.Helper()
	objectiveFwd(lanes)
	type lane struct {
		rows []stepTape
		cost float64
	}
	kernel := make([]lane, len(lanes))
	for j, ln := range lanes {
		kernel[j] = lane{append([]stepTape(nil), ln.o.tapes[ln.slot][:ln.o.cfg.Horizon]...), ln.o.tapeCost[ln.slot]}
	}
	vmath.UsePortable(true)
	defer vmath.UsePortable(false)
	objectiveFwd(lanes)
	for j, ln := range lanes {
		if got, want := kernel[j].cost, ln.o.tapeCost[ln.slot]; !sameValue(got, want) {
			t.Fatalf("lane %d/%d: kernel cost %v, portable %v", j, len(lanes), got, want)
		}
		for k := range kernel[j].rows {
			got, want := &kernel[j].rows[k], &ln.o.tapes[ln.slot][k]
			if !sameRow(got, want, sameValue) {
				t.Fatalf("lane %d/%d step %d: kernel row differs\n got %+v\nwant %+v", j, len(lanes), k, *got, *want)
			}
			if seen != nil {
				seen.add(&ln.o.roll, want)
			}
		}
	}
}

// TestStateSweepKernelMatchesPortable pins the vector kernel to the
// portable stages it replaces: at every lane count from 1 to laneBudget
// (a lone lane runs the portable stages either way), over packed calls on random plants pushed to every clamp, both η
// saturations, a zero ESR, an SoE at or below 1e-6 and non-finite states,
// loads and inputs, the two sweeps record the same bits (NaN as one
// value). Every way of every branch must be reached.
func TestStateSweepKernelMatchesPortable(t *testing.T) {
	if !useKernel() {
		t.Skip("the state sweep's vector kernel is not live on this host")
	}
	rng := rand.New(rand.NewSource(23))
	seen := sweepBranches{}
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
	names.add(&rollout{}, &stepTape{})
	for name := range names {
		if n := seen[name]; n[0] == 0 || n[1] == 0 {
			t.Errorf("branch %s went only one way (%d not taken, %d taken)", name, n[0], n[1])
		}
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
