package core

import (
	"math"

	"repro/internal/battery"
	"repro/internal/units"
	"repro/internal/vmath"
)

// This file implements the single-shooting MPC objective's forward rollout
// and its hand-derived reverse-mode (adjoint) gradient. A numeric gradient
// needs 2·dim rollouts (20 at the default horizon and block size). The
// adjoint needs one taped forward pass, which the solver has nearly always
// just made (the line search evaluates the point whose gradient it then
// asks for, and the tape is reused), and one backward sweep that costs
// about a quarter of a rollout: 1.4 µs against 5.1 µs for a single-lane
// rollout on a 2-vCPU Xeon (four lanes in lockstep take 7.4 µs, their
// aging rates recorded by the state kernel).
// Correctness is pinned by TestAnalyticGradientMatchesNumeric, which
// compares against central differences over random states and decisions.

// stepTape records the intermediates of one forward step that the backward
// sweep needs. The branch flags sit at the end, where they share one
// 16-byte tail instead of an 8-byte slot each.
type stepTape struct {
	soc0, soe0, tb0 float64
	pcool, qx       float64

	vcap      float64
	capMax    float64 // capC7, or the 0.97·v²/4R sag limit (sagBranch)
	etaCapBus float64 // η(vcap), used by BusPower for the clamp limit and by StoragePower
	capBus    float64
	sCap      float64 // sqrt of the capacitor discriminant
	capI      float64
	dEcap     float64
	soePre    float64

	voc, res float64
	cellR    float64 // single-cell resistance R(soc0, tb0) behind res and the heat
	// The exponentials behind voc and cellR — exp(V[1]·z), exp(R[1]·z) and
	// the Arrhenius factor at (soc0, tb0) — kept so the adjoint's dVoc/dz
	// and dR/dz need no exp of their own.
	ocvExp, resZExp, resTExp float64
	battBus                  float64
	etaBatt                  float64
	bsPre                    float64 // battery storage power before the pmax clamp
	pmax                     float64
	battStorage              float64
	sBatt                    float64
	i, cellI                 float64
	overC6                   float64 // max(0, i − packMaxI)
	aging                    float64
	socPre                   float64

	tb1, tc1 float64

	vcapClamped  bool // soe0 ≤ 1e-6 → d(vcap)/d(soe) = 0
	sagBranch    bool // capMax came from the 0.97·v²/4R sag limit
	etaCapBusP   bool // derivative of etaCapBus w.r.t. v is nonzero
	capClamped   bool // capBus clamped to (capMax − idle)·etaCapBus
	capDiscZero  bool
	soeClampHi   bool
	etaBattP     bool
	bsClamped    bool
	battDiscZero bool
	socClampHi   bool
}

// cnCoef holds the precomputed Crank–Nicolson coefficients and inverse used
// by both forward and adjoint (the system matrix is constant: the model
// always uses the ambient coupling as w).
type cnCoef struct {
	a, w, w2, cbdt, ccdt   float64
	i00, i01, i10, i11     float64 // M⁻¹ (symmetric)
	r0tb, r0tc, r1tb, r1tc float64 // rhs coefficients
}

func (r *rollout) cn(dt float64) cnCoef {
	p := r.cool
	a := p.HBC / 2
	w := r.ambientCoupling
	w2 := w / 2
	cbdt := p.BatteryHeatCapacity / dt
	ccdt := p.CoolantHeatCapacity / dt
	m00 := cbdt + a
	m01 := -a
	m11 := ccdt + a + w2
	det := m00*m11 - m01*m01
	return cnCoef{
		a: a, w: w, w2: w2, cbdt: cbdt, ccdt: ccdt,
		i00: m11 / det, i01: -m01 / det, i10: -m01 / det, i11: m00 / det,
		r0tb: cbdt - a, r0tc: a,
		r1tb: a, r1tc: ccdt - a - w2,
	}
}

// etaAt evaluates a converter's efficiency and whether its derivative in v
// is nonzero (interior of the clamp).
func etaAt(peak, min, nom, droop, v float64) (float64, bool) {
	sag := 1 - v/nom
	if sag < 0 {
		sag = 0
	}
	eta := peak - droop*sag
	switch {
	case eta <= min:
		return min, false
	case eta >= peak:
		return peak, false
	}
	return eta, true
}

// laneState is one rollout lane's carried plant state.
type laneState struct {
	soc, soe, tb, tc float64
}

// fwdLane is one lane of a lockstep rollout: the controller whose captured
// plant, padded forecast and reference windows it rolls, the tape slot of
// that controller it records into, and its decision vector.
type fwdLane struct {
	o    *OTEM
	slot int
	z    []float64
}

// sweep is the state sweep of one objectiveFwd call: its lanes, each
// lane's captured plant, tape and carried state, and the blocked-input
// cursor's constants.
type sweep struct {
	lanes   []fwdLane
	rs      [laneBudget]*rollout
	tapes   [laneBudget][]stepTape
	st      [laneBudget]laneState
	horizon int
	// bs, mIn and lastBase walk z one block every bs steps: the same
	// indexing as Spec.InputAt, without the per-step division.
	bs, mIn, lastBase int
	// capPowerScale is the lanes' common Config's.
	capPowerScale float64
}

// objectiveFwd is the single source of truth for the MPC cost. It rolls
// the model forward over the horizon for up to laneBudget lanes in
// lockstep. The lanes may belong to different controllers (different
// vehicles of a fleet) of one Config: lane j rolls its controller's
// captured plant and forecast at lanes[j].z, records its intermediates
// into that controller's tape slot lanes[j].slot and keys the slot by z and
// its cost (tapeZ/tapeCost), so the adjoint can reuse whichever lane the
// solver accepts. A controller's slots in one call must run from 0 up;
// its tapeLanes ends as their count.
//
// It runs in up to three sweeps, each filling what the next reads:
//
//   - the state sweep steps every lane through the horizon in lockstep:
//     cooling, capacitor and SoE, the battery up to its cell current and
//     heat, SoC and the thermal network. Each step runs in the eight
//     stages of DESIGN.md §10, each over every lane before the next
//     begins, so the lanes' independent chains of divisions and square
//     roots overlap. Where vmath's vector kernels are live, every group
//     of three or four lanes (kernelLanes) runs the stages four lanes per
//     AVX2 instruction (sweepKernel), with a ninth stage that records the
//     lanes' Eq. 5 aging rates; one or two lanes, alone or after whole
//     groups of four, vmath.UsePortable and other architectures run them
//     as Go loops (stepStages). Eq. 2's and Eq. 3's exponentials go
//     four at a time through vmath.Exp4, or through its kernel inlined
//     in the sweep's;
//   - the aging sweep (agingSweep) fills the Eq. 5 rates of each lane the
//     Go loops ran from its finished tape, four steps per vmath.Log4/Exp4
//     call;
//   - the cost sweep (laneCost) adds each lane's cost terms from its tape
//     in the order the state recurrences produce them.
//
// No state recurrence reads the cost or the aging rate, so deferring them
// changes no operation, and running the lanes side by side reorders only
// operations of different lanes: each lane performs exactly the
// operations a single-lane call performs on its controller and z, a
// lane's cost and tape rows do not depend on which lanes ran beside it,
// and the single-lane call is the plain objective. That holds bit for
// bit except for NaN payloads: where an operation meets two different
// NaNs, the kernel and the Go stages may return either one (DESIGN.md
// §10), and a lone lane runs the Go stages.
//
// Rows are written in full — every conditionally-set field is explicitly
// reset — so a dirty, reused tape is fine and the hot path never zeroes or
// copies a stepTape.
//
//lint:hotpath every trial of every replan rolls through here; allocflow proves it allocation-free
func objectiveFwd(lanes []fwdLane) {
	lead := lanes[0].o
	cfg := &lead.cfg
	spec := lead.planner.Spec()
	s := sweep{
		lanes:         lanes,
		horizon:       cfg.Horizon,
		bs:            spec.BlockSize,
		mIn:           spec.InputsPerStep,
		lastBase:      (spec.Blocks() - 1) * spec.InputsPerStep,
		capPowerScale: cfg.CapPowerScale,
	}
	for j := range lanes {
		o := lanes[j].o
		r := &o.roll
		s.rs[j] = r
		s.tapes[j] = o.tapes[lanes[j].slot][:s.horizon]
		s.st[j] = laneState{soc: r.soc, soe: r.soe, tb: r.tb, tc: r.tc}
	}
	// Lanes [0, nk) run on the kernel, which records their aging rates
	// too; the rest run on the Go stages and then agingSweep.
	nk := kernelLanes(len(lanes))
	s.sweepKernel(nk)
	if nk < len(lanes) {
		s.sweepStages(nk)
	}

	for j := range lanes {
		ln := &lanes[j]
		o := ln.o
		if j >= nk {
			agingSweep(s.rs[j], s.tapes[j])
		}
		cost := o.laneCost(s.tapes[j])
		if d := cfg.TEBTargetSoE - s.st[j].soe; d > 0 {
			cost += cfg.TEBWeight * o.roll.capEnergy * d * d
		}
		o.tapeZ[ln.slot] = o.tapeZ[ln.slot][:len(ln.z)]
		copy(o.tapeZ[ln.slot], ln.z)
		o.tapeCost[ln.slot] = cost
		o.tapeLanes = ln.slot + 1
	}
}

// kernelLanes returns how many of a call's n lanes run on the vector
// kernel: none where it is not live, and otherwise all but a tail of one
// or two lanes after the call's whole groups of four (all of a call of
// one or two). A group that holds one or two real lanes costs the kernel
// as much as four, and the Go stages run one or two lanes faster
// (DESIGN.md §10).
func kernelLanes(n int) int {
	if !useKernel() {
		return 0
	}
	if r := n % 4; r == 1 || r == 2 {
		return n - r
	}
	return n
}

// sweepStages is the portable state sweep of lanes lo and up: every step
// runs stepStages.
func (s *sweep) sweepStages(lo int) {
	// The state exponentials' arguments, site-major and overwritten in
	// place by Exp4: with m = n − lo lanes, lane lo+i's Eq. 2 argument at
	// i, Eq. 3's at m+i and 2m+i.
	var e [3 * laneBudget]float64
	base, nextBlockAt := 0, s.bs
	for k := 0; k < s.horizon; k++ {
		if k == nextBlockAt && base < s.lastBase {
			base += s.mIn
			nextBlockAt += s.bs
		}
		s.stepStages(lo, k, base, &e)
	}
}

// stepStages advances lanes lo and up by step k, whose inputs start at
// z[base], in the eight stages of DESIGN.md §10. Each stage runs over all
// those lanes before the next starts; a stage reads what the earlier ones
// wrote into the tape rows, or the per-lane arrays below for what the
// tape does not keep.
func (s *sweep) stepStages(lo, k, base int, e *[3 * laneBudget]float64) {
	n := len(s.lanes)
	m := n - lo
	var (
		rows   [laneBudget]*stepTape
		capSto [laneBudget]float64 // the capacitor's storage power
	)

	// 1. Tape head, cooling (linear intensity model) and the capacitor
	// voltage.
	for j := lo; j < n; j++ {
		r, ls, tp := s.rs[j], &s.st[j], &s.tapes[j][k]
		rows[j] = tp
		tp.soc0, tp.soe0, tp.tb0 = ls.soc, ls.soe, ls.tb
		coolU := s.lanes[j].z[base+1]
		tp.pcool = coolU * (r.coolerMax + r.pump)
		tp.qx = -coolU * r.coolEff * r.coolerMax
		if ls.soe > 1e-6 {
			tp.vcap = r.capBusV * math.Sqrt(ls.soe)
			tp.vcapClamped = false
		} else {
			tp.vcap = r.capBusV * math.Sqrt(1e-6)
			tp.vcapClamped = true
		}
	}

	// 2. The sag limit, η, the clamped bus power and the storage power.
	for j := lo; j < n; j++ {
		r, tp := s.rs[j], rows[j]
		cc := &r.capConv
		tp.capMax = r.capC7
		tp.sagBranch = false
		if capESR := r.capESR; capESR > 0 {
			if sag := 0.97 * tp.vcap * tp.vcap / (4 * capESR); sag < tp.capMax {
				tp.capMax = sag
				tp.sagBranch = true
			}
		}
		tp.etaCapBus, tp.etaCapBusP = etaAt(cc.PeakEfficiency, cc.MinEfficiency, cc.NominalVoltage, cc.Droop, tp.vcap)
		// BusPower for a non-negative storage power (capMax ≥ 0, idle 0).
		capMaxBus := (tp.capMax - cc.IdleLoss) * tp.etaCapBus
		tp.capBus = s.lanes[j].z[base] * s.capPowerScale
		tp.capClamped = false
		if tp.capBus > capMaxBus {
			tp.capBus = capMaxBus
			tp.capClamped = true
		}
		if tp.capBus >= 0 {
			capSto[j] = tp.capBus/tp.etaCapBus + cc.IdleLoss
		} else {
			capSto[j] = tp.capBus*tp.etaCapBus + cc.IdleLoss
		}
	}

	// 3. The discriminant, its square root and the capacitor current.
	for j := lo; j < n; j++ {
		r, tp := s.rs[j], rows[j]
		capESR := r.capESR
		tp.sCap = 0
		tp.capDiscZero = false
		tp.capI = 0
		if capESR > 0 {
			disc := tp.vcap*tp.vcap - 4*capESR*capSto[j]
			if disc < 0 {
				disc = 0
				tp.capDiscZero = true
			}
			tp.sCap = math.Sqrt(disc)
			tp.capI = (tp.vcap - tp.sCap) / (2 * capESR)
		} else if tp.vcap > 0 {
			tp.capI = capSto[j] / tp.vcap
		}
	}

	// 4. The energy drawn, the SoE and its clamp; then the arguments of
	// the battery formulas' exponentials at this step's (soc, tb).
	for j := lo; j < n; j++ {
		r, ls, tp := s.rs[j], &s.st[j], rows[j]
		tp.dEcap = (capSto[j] + tp.capI*tp.capI*r.capESR) * r.dt
		tp.soePre = ls.soe - tp.dEcap/r.capEnergy
		soe := tp.soePre
		tp.soeClampHi = false
		if soe > 1 {
			soe = 1
			tp.soeClampHi = true
		}
		ls.soe = soe

		cell := &r.cell
		zc := units.Clamp(ls.soc, 0, 1)
		i := j - lo
		e[i] = cell.OCVExpArg(zc)
		e[m+i], e[2*m+i] = cell.ResistanceExpArgs(zc, ls.tb)
	}

	// 5. The exponentials, ⌈3m/4⌉ Exp4 calls. The entries from 3m up to
	// the next multiple of four are reset to 0 every step: Exp4
	// overwrites them too, and a value left to grow step after step would
	// push every later call onto the kernel's scalar fallback.
	ne := (3*m + 3) &^ 3
	for i := 3 * m; i < ne; i++ {
		e[i] = 0
	}
	for i := 0; i < ne; i += 4 {
		vmath.Exp4((*[4]float64)(e[i : i+4]))
	}

	// 6. The open-circuit voltage, the resistance, η, the storage power
	// before its clamp and the power limit.
	for j := lo; j < n; j++ {
		r, tp := s.rs[j], rows[j]
		cell := &r.cell
		bc := &r.battConv
		i := j - lo
		tp.ocvExp, tp.resZExp, tp.resTExp = e[i], e[m+i], e[2*m+i]
		tp.battBus = s.lanes[j].o.fc[k] + tp.pcool - tp.capBus
		tp.voc = r.cellOCVScale * cell.OCVFromExp(units.Clamp(tp.soc0, 0, 1), tp.ocvExp)
		tp.cellR = cell.ResistanceFromExp(tp.resZExp, tp.resTExp)
		tp.res = r.packResScale * tp.cellR
		tp.etaBatt, tp.etaBattP = etaAt(bc.PeakEfficiency, bc.MinEfficiency, bc.NominalVoltage, bc.Droop, tp.voc)
		if tp.battBus >= 0 {
			tp.bsPre = tp.battBus/tp.etaBatt + bc.IdleLoss
		} else {
			tp.bsPre = tp.battBus*tp.etaBatt + bc.IdleLoss
		}
		tp.pmax = tp.voc * tp.voc / (4 * tp.res) * 0.98
	}

	// 7. The power clamp, the discriminant's square root and the pack
	// current.
	for j := lo; j < n; j++ {
		tp := rows[j]
		tp.battStorage = tp.bsPre
		tp.bsClamped = false
		if tp.bsPre > tp.pmax {
			tp.battStorage = tp.pmax
			tp.bsClamped = true
		}
		disc := tp.voc*tp.voc - 4*tp.res*tp.battStorage
		tp.battDiscZero = false
		if disc < 0 {
			disc = 0
			tp.battDiscZero = true
		}
		tp.sBatt = math.Sqrt(disc)
		tp.i = (tp.voc - tp.sBatt) / (2 * tp.res)
	}

	// 8. The C6 excess, the cell current and heat, the SoC and the
	// thermal network (closed-form CN, identical to CNStep2).
	for j := lo; j < n; j++ {
		r, ls, tp := s.rs[j], &s.st[j], rows[j]
		cn := &r.cnc
		soc, tb, tc := ls.soc, ls.tb, ls.tc
		tp.overC6 = tp.i - r.packMaxI
		if !(tp.overC6 > 0) {
			tp.overC6 = 0
		}
		tp.cellI = tp.i / r.parallel
		// Eq. 4 per cell, i²·R + i·T·dVoc/dT, reusing cellR = R(soc, tb).
		heat := (tp.cellI*tp.cellI*tp.cellR + tp.cellI*tb*r.cell.DVocDT) * r.cells

		tp.socPre = soc - tp.i*r.dt/r.packCapC
		soc = tp.socPre
		tp.socClampHi = false
		if soc > 1 {
			soc = 1
			tp.socClampHi = true
		}

		r0 := cn.r0tb*tb + cn.r0tc*tc + heat
		r1 := cn.r1tb*tb + cn.r1tc*tc + cn.w*r.ambient + tp.qx
		tb = cn.i00*r0 + cn.i01*r1
		tc = cn.i10*r0 + cn.i11*r1
		tp.tb1, tp.tc1 = tb, tc
		ls.soc, ls.tb, ls.tc = soc, tb, tc
	}
}

// agingSweep records Eq. 5, as CellParams.AgingRate evaluates it, into
// every row of one lane's tape from the row's cell current and starting
// temperature. Four steps go through each vmath call: the logarithms of
// the power law's bases, then its exponentials and the Arrhenius
// factors. Short blocks are padded with arguments whose results nothing
// reads (log 1, exp 0).
func agingSweep(r *rollout, tape []stepTape) {
	cell, pw, dt := &r.cell, &r.agingPow, r.dt
	for k0 := 0; k0 < len(tape); k0 += 4 {
		blk := tape[k0:min(k0+4, len(tape))]
		lx := [4]float64{1, 1, 1, 1}
		var ai, ep, ea [4]float64
		var ages [4]bool
		for i := range blk {
			ai[i] = math.Abs(blk[i].cellI)
			ages[i] = battery.Ages(ai[i], blk[i].tb0)
			lx[i] = pw.LogArg(ai[i])
		}
		vmath.Log4(&lx)
		for i := range blk {
			if ages[i] {
				ep[i] = pw.ExpArgFromLog(ai[i], lx[i])
				ea[i] = cell.AgingExpArg(blk[i].tb0)
			}
		}
		vmath.Exp4(&ep)
		vmath.Exp4(&ea)
		for i := range blk {
			aging := 0.0
			if ages[i] {
				aging = cell.AgingRateFromExp(ea[i], pw.FromExp(ai[i], ep[i]))
			}
			blk[i].aging = aging * dt
		}
	}
}

// laneCost returns the running cost of one lane's rollout from its
// finished tape. Each step adds its terms in the order the state sweep
// meets them: the SoE penalties, the pmax and C6 penalties, the SoC
// penalties, the safe-temperature and temperature-pressure terms, the
// outer-reference tracking (two-layer MPC: latched per replan, skipped
// entirely for the flat controller) and the Eq. 19 step term.
func (o *OTEM) laneCost(tape []stepTape) float64 {
	r := &o.roll
	cfg := &o.cfg
	dt := r.dt
	stateWeight, safeTempWeight, targetTemp := cfg.StateWeight, cfg.SafeTempWeight, cfg.TargetTemp
	tempPressureWeight, horizonF := cfg.TempPressureWeight, float64(cfg.Horizon)
	w1, w2, w3 := cfg.W1, cfg.W2, cfg.W3
	cost := 0.0
	for k := range tape {
		tp := &tape[k]
		if d := r.capMinSoE - tp.soePre; d > 0 {
			cost += stateWeight * d * d
		}
		if d := tp.soePre - 1; d > 0 {
			cost += stateWeight * d * d
		}
		if tp.bsClamped {
			d := (tp.bsPre - tp.pmax) / 1e3
			cost += 1e6 * d * d
		}
		if tp.overC6 > 0 {
			cost += 1e3 * tp.overC6 * tp.overC6
		}
		if d := r.battMinSoC - tp.socPre; d > 0 {
			cost += stateWeight * d * d
		}
		soc := tp.socPre
		if d := soc - 1; d > 0 {
			cost += stateWeight * d * d
			soc = 1
		}
		if d := tp.tb1 - r.safeTemp; d > 0 {
			cost += safeTempWeight * d * d
		}
		tw := (r.battHeatCap*tp.tb1 + r.coolHeatCap*tp.tc1) / (r.battHeatCap + r.coolHeatCap)
		if d := tw - targetTemp; d > 0 {
			cost += tempPressureWeight / horizonF * d * d
		}
		if o.trackSoC {
			d := soc - o.refSoC[k]
			cost += cfg.SoCRefWeight * d * d
		}
		if o.trackTb {
			d := tp.tb1 - o.refTb[k]
			cost += cfg.TempRefWeight * d * d
		}
		dEbat := tp.voc * tp.i * dt
		cost += w1*tp.pcool*dt + w2*tp.aging + w3*(dEbat+tp.dEcap)
	}
	return cost
}

// objectiveGrad computes the cost and writes ∂cost/∂z into grad via the
// adjoint sweep.
func (o *OTEM) objectiveGrad(z, grad []float64) float64 {
	r := &o.roll
	cfg := &o.cfg
	spec := o.planner.Spec()
	bs, nb, mIn := spec.BlockSize, spec.Blocks(), spec.InputsPerStep
	dt := r.dt
	cn := r.cnc

	// The solver always evaluates the objective at a point right before
	// requesting its gradient there (line-search accept, or the initial
	// f(x0)), so one lane's tape usually already holds this z and the
	// forward pass can be skipped — same rows, same cost, bit-identical.
	lane := o.tapeLane(z)
	if lane < 0 {
		o.objective(z)
		lane = 0
	}
	tape := o.tapes[lane][:cfg.Horizon]
	cost := o.tapeCost[lane]

	for gi := range grad {
		grad[gi] = 0
	}

	// State adjoints at the end of the horizon.
	var asoc, asoe, atb, atc float64
	// Terminal TEB term: cost += W·(T − soe)² when T − soe > 0.
	soeEnd := tape[cfg.Horizon-1].soePre
	if tape[cfg.Horizon-1].soeClampHi {
		soeEnd = 1
	}
	if d := cfg.TEBTargetSoE - soeEnd; d > 0 {
		asoe += -2 * cfg.TEBWeight * r.capEnergy * d
	}

	hcSum := r.battHeatCap + r.coolHeatCap
	trackSoC, trackTb := o.trackSoC, o.trackTb
	refS, refT := o.refSoC, o.refTb
	socRefW, tbRefW := cfg.SoCRefWeight, cfg.TempRefWeight
	for k := cfg.Horizon - 1; k >= 0; k-- {
		tp := &tape[k]

		// --- Outer-reference tracking adjoints: the cost reads the
		// end-of-step states, so they join the carried adjoints before
		// this step's own terms. A clamped SoC has zero derivative and
		// the clamp handling below discards the incoming asoc anyway.
		if trackTb {
			atb += 2 * tbRefW * (tp.tb1 - refT[k])
		}
		if trackSoC {
			socEnd := tp.socPre
			if tp.socClampHi {
				socEnd = 1
			}
			asoc += 2 * socRefW * (socEnd - refS[k])
		}

		// --- Temperature penalties at tb1/tc1 ---
		atb1, atc1 := atb, atc
		if d := tp.tb1 - r.safeTemp; d > 0 {
			atb1 += 2 * cfg.SafeTempWeight * d
		}
		tw := (r.battHeatCap*tp.tb1 + r.coolHeatCap*tp.tc1) / hcSum
		if d := tw - cfg.TargetTemp; d > 0 {
			c := 2 * cfg.TempPressureWeight / float64(cfg.Horizon) * d
			atb1 += c * r.battHeatCap / hcSum
			atc1 += c * r.coolHeatCap / hcSum
		}

		// --- CN adjoint (M⁻¹ is symmetric) ---
		lr0 := cn.i00*atb1 + cn.i10*atc1
		lr1 := cn.i01*atb1 + cn.i11*atc1
		atb0 := cn.r0tb*lr0 + cn.r1tb*lr1
		atc0 := cn.r0tc*lr0 + cn.r1tc*lr1
		aheat := lr0
		aqx := lr1

		// --- SoC clamp/penalties ---
		asocPre := asoc
		if tp.socClampHi {
			asocPre = 2 * cfg.StateWeight * (tp.socPre - 1)
		}
		if d := r.battMinSoC - tp.socPre; d > 0 {
			asocPre += -2 * cfg.StateWeight * d
		}
		// soc' = soc0 − i·dt/capC
		asoc0 := asocPre
		ai := -asocPre * dt / r.packCapC

		// --- Running battery cost terms ---
		// dEbat = voc·i·dt (weight W3).
		avoc := cfg.W3 * tp.i * dt
		ai += cfg.W3 * tp.voc * dt
		// aging = rate(|cellI|, tb0)·dt (weight W2).
		acellI := 0.0
		absCell := math.Abs(tp.cellI)
		if absCell > 0 {
			dRdI := tp.aging * r.cell.L[2] / absCell // ∂(rate·dt)/∂|i|
			sign := 1.0
			if tp.cellI < 0 {
				sign = -1
			}
			acellI += cfg.W2 * dRdI * sign
			atb0 += cfg.W2 * tp.aging * r.cell.L[1] / (units.GasConstant * tp.tb0 * tp.tb0)
		}
		// heat = cells·(cellI²·R(soc,tb) + cellI·tb·dVocdT). cellR and the
		// shared R'(soc,tb) come off the tape / one call instead of three
		// redundant Resistance evaluations.
		cellR := tp.cellR
		rPrime := r.cell.ResistancePrimeFromExp(tp.resZExp, tp.resTExp)
		dHdI := r.cells * (2*tp.cellI*cellR + tp.tb0*r.cell.DVocDT)
		dHdSoc := r.cells * tp.cellI * tp.cellI * rPrime
		dRdT := cellR * (-r.cell.Kr / (tp.tb0 * tp.tb0))
		dHdT := r.cells * (tp.cellI*tp.cellI*dRdT + tp.cellI*r.cell.DVocDT)
		acellI += aheat * dHdI
		asoc0 += aheat * dHdSoc
		atb0 += aheat * dHdT
		// C6 penalty.
		ai += acellI / r.parallel
		if tp.overC6 > 0 {
			ai += 2 * 1e3 * tp.overC6
		}

		// --- Current solve i = (voc − s)/(2res), s² = voc² − 4res·bs ---
		var abs_, avocI, aresI float64
		//lint:ignore floatcompare the adjoint must take the same branch the forward pass took; sBatt is exactly 0 iff the forward clamp fired
		if tp.battDiscZero || tp.sBatt == 0 {
			// i = voc/(2res) (s clamped to 0).
			avocI = ai / (2 * tp.res)
			aresI = -ai * tp.voc / (2 * tp.res * tp.res)
		} else {
			s := tp.sBatt
			avocI = ai * (1 - tp.voc/s) / (2 * tp.res)
			abs_ = ai / s
			aresI = ai * (4*tp.res*tp.battStorage/s - 2*(tp.voc-s)) / (4 * tp.res * tp.res)
		}
		avoc += avocI
		ares := aresI

		// --- pmax clamp ---
		absPre := abs_
		apmax := 0.0
		if tp.bsClamped {
			d := (tp.bsPre - tp.pmax) / 1e3
			absPre = 2 * 1e6 * d / 1e3 // penalty on bsPre
			apmax = abs_ - 2*1e6*d/1e3 // downstream flows to pmax, minus penalty
		}
		//lint:ignore floatcompare skip-if-zero fast path: apmax is exactly 0 iff no upstream adjoint flowed into pmax
		if apmax != 0 {
			avoc += apmax * 0.98 * 2 * tp.voc / (4 * tp.res)
			ares += -apmax * 0.98 * tp.voc * tp.voc / (4 * tp.res * tp.res)
		}

		// --- battery converter ---
		var abattBus float64
		if tp.battBus >= 0 {
			abattBus = absPre / tp.etaBatt
			if tp.etaBattP {
				avoc += -absPre * tp.battBus * (r.battConv.Droop / r.battConv.NominalVoltage) / (tp.etaBatt * tp.etaBatt)
			}
		} else {
			abattBus = absPre * tp.etaBatt
			if tp.etaBattP {
				avoc += absPre * tp.battBus * (r.battConv.Droop / r.battConv.NominalVoltage)
			}
		}

		// --- voc/res to soc0/tb0 ---
		asoc0 += avoc * r.cellOCVScale * r.cell.OCVPrimeFromExp(units.Clamp(tp.soc0, 0, 1), tp.ocvExp)
		asoc0 += ares * r.packResScale * rPrime
		atb0 += ares * r.packResScale * dRdT

		// --- battBus = load − capBus ---
		aload := abattBus
		acapBus := -abattBus

		// --- SoE clamp/penalties ---
		asoePre := asoe
		if tp.soeClampHi {
			asoePre = 2 * cfg.StateWeight * (tp.soePre - 1)
		}
		if d := r.capMinSoE - tp.soePre; d > 0 {
			asoePre += -2 * cfg.StateWeight * d
		}
		asoe0 := asoePre
		adE := -asoePre/r.capEnergy + cfg.W3 // soe' = soe0 − dE/E; plus W3·dEcap

		// --- dEcap = (capStorage + capI²·Rc)·dt ---
		var acs, avcap float64
		if r.capESR > 0 {
			var dIdCS, dIdV float64
			//lint:ignore floatcompare the adjoint must take the same branch the forward pass took; sCap is exactly 0 iff the forward clamp fired
			if tp.capDiscZero || tp.sCap == 0 {
				dIdCS = 0
				dIdV = 1 / (2 * r.capESR)
			} else {
				dIdCS = 1 / tp.sCap
				dIdV = (1 - tp.vcap/tp.sCap) / (2 * r.capESR)
			}
			acs = adE * dt * (1 + 2*tp.capI*r.capESR*dIdCS)
			avcap = adE * dt * 2 * tp.capI * r.capESR * dIdV
		} else {
			acs = adE * dt
		}

		// --- capacitor converter (StoragePower) ---
		droopTerm := r.capConv.Droop / r.capConv.NominalVoltage
		if tp.capBus >= 0 {
			acapBus += acs / tp.etaCapBus
			if tp.etaCapBusP {
				avcap += -acs * tp.capBus * droopTerm / (tp.etaCapBus * tp.etaCapBus)
			}
		} else {
			acapBus += acs * tp.etaCapBus
			if tp.etaCapBusP {
				avcap += acs * tp.capBus * droopTerm
			}
		}

		// --- capBus clamp ---
		var acapU float64
		if tp.capClamped {
			// capBus = capMaxBus = (capMax − idle)·η(vcap)
			acmb := acapBus
			acapMax := acmb * tp.etaCapBus
			if tp.etaCapBusP {
				avcap += acmb * (tp.capMax - r.capConv.IdleLoss) * droopTerm
			}
			if tp.sagBranch {
				avcap += acapMax * 0.97 * 2 * tp.vcap / (4 * r.capESR)
			}
		} else {
			acapU = acapBus * cfg.CapPowerScale
		}

		// --- vcap = busV·sqrt(soe0) ---
		if !tp.vcapClamped {
			asoe0 += avcap * r.capBusV / (2 * math.Sqrt(tp.soe0))
		}

		// --- cooling controls ---
		apcool := aload + cfg.W1*dt
		acoolU := apcool*(r.coolerMax+r.pump) + aqx*(-r.coolEff*r.coolerMax)

		// --- accumulate into the blocked gradient ---
		b := k / bs
		if b >= nb {
			b = nb - 1
		}
		grad[b*mIn] += acapU
		grad[b*mIn+1] += acoolU

		asoc, asoe, atb, atc = asoc0, asoe0, atb0, atc0
	}
	return cost
}
