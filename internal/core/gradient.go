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
// about a fifth of a rollout: 1.8 µs against 7.9 µs for a single-lane
// rollout on a 2-vCPU Xeon (four lanes in lockstep take 9.7 µs, their
// aging rates and costs recorded by the state kernel).
// Correctness is pinned by TestAnalyticGradientMatchesNumeric, which
// compares against central differences over random states and decisions.

// tapeRow records the intermediates of one forward step that the backward
// sweep needs, for the four lanes of one kernel group: one [4]float64 per
// field, lane j at index j, and each branch flag as a 4-bit lane mask, bit
// j for lane j. A tape is one row per horizon step, and its four columns
// are the lanes of the group that recorded it: the state kernel stores a
// field of all four with one vector store, and a flag with one byte.
type tapeRow struct {
	soc0, soe0, tb0 [4]float64
	pcool, qx       [4]float64

	vcap      [4]float64
	capMax    [4]float64 // capC7, or the 0.97·v²/4R sag limit (sagBranch)
	etaCapBus [4]float64 // η(vcap), used by BusPower for the clamp limit and by StoragePower
	capBus    [4]float64
	sCap      [4]float64 // sqrt of the capacitor discriminant
	capI      [4]float64
	dEcap     [4]float64
	soePre    [4]float64

	voc, res [4]float64
	cellR    [4]float64 // single-cell resistance R(soc0, tb0) behind res and the heat
	// The exponentials behind voc and cellR — exp(V[1]·z), exp(R[1]·z) and
	// the Arrhenius factor at (soc0, tb0) — kept so the adjoint's dVoc/dz
	// and dR/dz need no exp of their own.
	ocvExp, resZExp, resTExp [4]float64
	battBus                  [4]float64
	etaBatt                  [4]float64
	bsPre                    [4]float64 // battery storage power before the pmax clamp
	pmax                     [4]float64
	battStorage              [4]float64
	sBatt                    [4]float64
	i, cellI                 [4]float64
	overC6                   [4]float64 // max(0, i − packMaxI)
	aging                    [4]float64
	socPre                   [4]float64

	tb1, tc1 [4]float64

	vcapClamped  uint8 // soe0 ≤ 1e-6 → d(vcap)/d(soe) = 0
	sagBranch    uint8 // capMax came from the 0.97·v²/4R sag limit
	etaCapBusP   uint8 // derivative of etaCapBus w.r.t. v is nonzero
	capClamped   uint8 // capBus clamped to (capMax − idle)·etaCapBus
	capDiscZero  uint8
	soeClampHi   uint8
	etaBattP     uint8
	bsClamped    uint8
	battDiscZero uint8
	socClampHi   uint8
}

// on reports lane c's bit of the lane mask f.
func on(f uint8, c int) bool { return f>>c&1 != 0 }

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
// plant, padded forecast and reference windows it rolls, the speculation
// slot of that controller it fills, and its decision vector.
type fwdLane struct {
	o    *OTEM
	slot int
	z    []float64
}

// sweep is the state sweep of one objectiveFwd call: its lanes, each
// lane's captured plant, carried state and cost, each group's tape, and
// the blocked-input cursor's constants.
type sweep struct {
	lanes []fwdLane
	rs    [laneBudget]*rollout
	st    [laneBudget]laneState
	cost  [laneBudget]float64
	// tapes[g] is the tape group g records into, that of the controller
	// of the group's first lane: lane l writes column l&3 of tapes[l>>2].
	tapes   [laneBudget / 4][]tapeRow
	horizon int
	// bs, mIn and lastBase walk z one block every bs steps: the same
	// indexing as OTEM.blockOf, without the per-step division.
	bs, mIn, lastBase int
}

// objectiveFwd is the single source of truth for the MPC cost. It rolls
// the model forward over the horizon for up to laneBudget lanes in
// lockstep. The lanes may belong to different controllers (different
// vehicles of a fleet) of one Config: lane j rolls its controller's
// captured plant and forecast at lanes[j].z. Lanes go in groups of four
// by position, and group g records into the tape of the controller of its
// first lane, lane j into column j&3 (DESIGN.md §10). Each lane's slot of
// its controller is keyed by its z and cost (tapeZ/tapeCost) and points at
// that column and the tape's generation, so the adjoint can reuse
// whichever lane the solver accepts while no later call has written the
// tape. A controller's slots in one call must run from 0 up and sit in
// consecutive lanes; its tapeLanes ends as their count.
//
// It runs in one or two sweeps:
//
//   - the state sweep steps every lane through the horizon in lockstep:
//     cooling, capacitor and SoE, the battery up to its cell current and
//     heat, SoC and the thermal network. Each step runs in the eight
//     stages of DESIGN.md §10, each over every lane before the next
//     begins, so the lanes' independent chains of divisions and square
//     roots overlap. Where vmath's vector kernels are live, a call of
//     two or more lanes runs wholly on them (sweepKernel): the stages
//     four lanes per AVX2 instruction, with a ninth stage that records
//     the lanes' Eq. 5 aging rates and a tenth that adds their cost
//     terms; where AVX-512 is live too, a call of wideLanes or more runs
//     them eight lanes per instruction as one group instead. A group the
//     call does not fill is padded with copies of its first lane. A lone
//     lane, vmath.UsePortable and other architectures run the stages as
//     Go loops (stepStages). Eq. 2's and Eq. 3's exponentials go four at
//     a time through vmath.Exp4, or through its kernel inlined in the
//     sweep's;
//   - on the Go loops, the aging sweep (agingSweep) then fills each
//     lane's Eq. 5 rates from its finished tape column, four steps per
//     vmath.Log4/Exp4 call, and the cost sweep (laneCost) adds its cost
//     terms in the order the state recurrences produce them.
//
// No state recurrence reads the cost or the aging rate, so deferring them
// changes no operation, and running the lanes side by side reorders only
// operations of different lanes: each lane performs exactly the
// operations a single-lane call performs on its controller and z, a
// lane's cost and tape column do not depend on which lanes ran beside it,
// and the single-lane call is the plain objective. That holds bit for
// bit except for NaN payloads: where an operation meets two different
// NaNs, the kernel and the Go stages may return either one (DESIGN.md
// §10), and a lone lane runs the Go stages.
//
// A lane's column is written in full — every conditionally-set field and
// flag is explicitly reset — so a dirty, reused tape is fine and the hot
// path never zeroes or copies a tapeRow.
//
//lint:hotpath every trial of every replan rolls through here; allocflow proves it allocation-free
func objectiveFwd(lanes []fwdLane) {
	lead := lanes[0].o
	cfg := &lead.cfg
	s := sweep{
		lanes:    lanes,
		horizon:  cfg.Horizon,
		bs:       cfg.BlockSize,
		mIn:      inputs,
		lastBase: (lead.blocks - 1) * inputs,
	}
	for j := range lanes {
		o := lanes[j].o
		r := &o.roll
		s.rs[j] = r
		if j&3 == 0 {
			s.tapes[j>>2] = o.tape[:s.horizon]
			o.tapeGen++
		}
		s.st[j] = laneState{soc: r.soc, soe: r.soe, tb: r.tb, tc: r.tc}
	}
	// The kernel records the lanes' aging rates and costs too; after the
	// Go stages, agingSweep and laneCost do.
	kernel := onKernel(len(lanes))
	if kernel {
		s.sweepKernel()
	} else {
		s.sweepStages()
	}

	for j := range lanes {
		ln := &lanes[j]
		o := ln.o
		tape, col := s.tapes[j>>2], j&3
		cost := s.cost[j]
		if !kernel {
			agingSweep(s.rs[j], tape, col)
			cost = o.laneCost(tape, col)
		}
		if d := tebTargetSoE - s.st[j].soe; d > 0 {
			cost += cfg.TEBWeight * o.roll.capEnergy * d * d
		}
		owner := lanes[j&^3].o
		o.tapeZ[ln.slot] = o.tapeZ[ln.slot][:len(ln.z)]
		copy(o.tapeZ[ln.slot], ln.z)
		o.tapeCost[ln.slot] = cost
		o.tapeOwner[ln.slot], o.tapeCol[ln.slot], o.tapeGenAt[ln.slot] = owner, col, owner.tapeGen
		o.tapeLanes = ln.slot + 1
	}
}

// onKernel reports whether a call of n lanes runs on the vector kernels:
// where they are live and n is two or more. A lone lane costs a padded
// group of four more than it costs the Go stages (DESIGN.md §10).
func onKernel(n int) bool { return n > 1 && useKernel() }

// wideLanes is the fewest lanes of a call that run as one group of eight
// on the AVX-512 kernel where it is live (useKernel8): a call of 5 to 8
// lanes costs it less than the two AVX2 groups of four it would otherwise
// run as (DESIGN.md §10).
const wideLanes = 5

// kernel8Off puts every call on the AVX2 kernel's groups of four even
// where the AVX-512 kernel is live: a test hook, so that one binary
// checks and measures both.
var kernel8Off bool

// sweepStages is the portable state sweep of every lane: every step runs
// stepStages.
func (s *sweep) sweepStages() {
	// The state exponentials' arguments, site-major and overwritten in
	// place by Exp4: with n lanes, lane j's Eq. 2 argument at j, Eq. 3's
	// at n+j and 2n+j.
	var e [3 * laneBudget]float64
	base, nextBlockAt := 0, s.bs
	for k := 0; k < s.horizon; k++ {
		if k == nextBlockAt && base < s.lastBase {
			base += s.mIn
			nextBlockAt += s.bs
		}
		s.stepStages(k, base, &e)
	}
}

// stepStages advances every lane by step k, whose inputs start at
// z[base], in the eight stages of DESIGN.md §10. Each stage runs over all
// lanes before the next starts; a stage reads what the earlier ones wrote
// into the lanes' tape columns, or the per-lane arrays below for what the
// tape does not keep.
func (s *sweep) stepStages(k, base int, e *[3 * laneBudget]float64) {
	n := len(s.lanes)
	var (
		rows   [laneBudget]*tapeRow
		capSto [laneBudget]float64 // the capacitor's storage power
	)

	// 1. Tape head, cooling (linear intensity model) and the capacitor
	// voltage.
	for j := 0; j < n; j++ {
		r, ls, tp, c := s.rs[j], &s.st[j], &s.tapes[j>>2][k], j&3
		rows[j] = tp
		tp.soc0[c], tp.soe0[c], tp.tb0[c] = ls.soc, ls.soe, ls.tb
		coolU := s.lanes[j].z[base+1]
		tp.pcool[c] = coolU * (r.coolerMax + r.pump)
		tp.qx[c] = -coolU * r.coolEff * r.coolerMax
		if ls.soe > 1e-6 {
			tp.vcap[c] = r.capBusV * math.Sqrt(ls.soe)
			tp.vcapClamped &^= 1 << c
		} else {
			tp.vcap[c] = r.capBusV * math.Sqrt(1e-6)
			tp.vcapClamped |= 1 << c
		}
	}

	// 2. The sag limit, η, the clamped bus power and the storage power.
	for j := 0; j < n; j++ {
		r, tp, c := s.rs[j], rows[j], j&3
		cc := &r.capConv
		vcap := tp.vcap[c]
		capMax := r.capC7
		tp.sagBranch &^= 1 << c
		if capESR := r.capESR; capESR > 0 {
			if sag := 0.97 * vcap * vcap / (4 * capESR); sag < capMax {
				capMax = sag
				tp.sagBranch |= 1 << c
			}
		}
		tp.capMax[c] = capMax
		eta, etaP := etaAt(cc.PeakEfficiency, cc.MinEfficiency, cc.NominalVoltage, cc.Droop, vcap)
		tp.etaCapBus[c] = eta
		tp.etaCapBusP &^= 1 << c
		if etaP {
			tp.etaCapBusP |= 1 << c
		}
		// BusPower for a non-negative storage power (capMax ≥ 0, idle 0).
		capMaxBus := (capMax - cc.IdleLoss) * eta
		capBus := s.lanes[j].z[base] * capPowerScale
		tp.capClamped &^= 1 << c
		if capBus > capMaxBus {
			capBus = capMaxBus
			tp.capClamped |= 1 << c
		}
		tp.capBus[c] = capBus
		if capBus >= 0 {
			capSto[j] = capBus/eta + cc.IdleLoss
		} else {
			capSto[j] = capBus*eta + cc.IdleLoss
		}
	}

	// 3. The discriminant, its square root and the capacitor current.
	for j := 0; j < n; j++ {
		r, tp, c := s.rs[j], rows[j], j&3
		capESR, vcap := r.capESR, tp.vcap[c]
		sCap, capI := 0.0, 0.0
		tp.capDiscZero &^= 1 << c
		if capESR > 0 {
			disc := vcap*vcap - 4*capESR*capSto[j]
			if disc < 0 {
				disc = 0
				tp.capDiscZero |= 1 << c
			}
			sCap = math.Sqrt(disc)
			capI = (vcap - sCap) / (2 * capESR)
		} else if vcap > 0 {
			capI = capSto[j] / vcap
		}
		tp.sCap[c], tp.capI[c] = sCap, capI
	}

	// 4. The energy drawn, the SoE and its clamp; then the arguments of
	// the battery formulas' exponentials at this step's (soc, tb).
	for j := 0; j < n; j++ {
		r, ls, tp, c := s.rs[j], &s.st[j], rows[j], j&3
		capI := tp.capI[c]
		dEcap := (capSto[j] + capI*capI*r.capESR) * r.dt
		tp.dEcap[c] = dEcap
		soe := ls.soe - dEcap/r.capEnergy
		tp.soePre[c] = soe
		tp.soeClampHi &^= 1 << c
		if soe > 1 {
			soe = 1
			tp.soeClampHi |= 1 << c
		}
		ls.soe = soe

		cell := &r.cell
		zc := units.Clamp(ls.soc, 0, 1)
		e[j] = cell.OCVExpArg(zc)
		e[n+j], e[2*n+j] = cell.ResistanceExpArgs(zc, ls.tb)
	}

	// 5. The exponentials, ⌈3n/4⌉ Exp4 calls. The entries from 3n up to
	// the next multiple of four are reset to 0 every step: Exp4
	// overwrites them too, and a value left to grow step after step would
	// push every later call onto the kernel's scalar fallback.
	ne := (3*n + 3) &^ 3
	for i := 3 * n; i < ne; i++ {
		e[i] = 0
	}
	for i := 0; i < ne; i += 4 {
		vmath.Exp4((*[4]float64)(e[i : i+4]))
	}

	// 6. The open-circuit voltage, the resistance, η, the storage power
	// before its clamp and the power limit.
	for j := 0; j < n; j++ {
		r, tp, c := s.rs[j], rows[j], j&3
		cell := &r.cell
		bc := &r.battConv
		ocvExp, resZExp, resTExp := e[j], e[n+j], e[2*n+j]
		tp.ocvExp[c], tp.resZExp[c], tp.resTExp[c] = ocvExp, resZExp, resTExp
		battBus := s.lanes[j].o.fc[k] + tp.pcool[c] - tp.capBus[c]
		tp.battBus[c] = battBus
		voc := r.cellOCVScale * cell.OCVFromExp(units.Clamp(tp.soc0[c], 0, 1), ocvExp)
		cellR := cell.ResistanceFromExp(resZExp, resTExp)
		res := r.packResScale * cellR
		tp.voc[c], tp.cellR[c], tp.res[c] = voc, cellR, res
		eta, etaP := etaAt(bc.PeakEfficiency, bc.MinEfficiency, bc.NominalVoltage, bc.Droop, voc)
		tp.etaBatt[c] = eta
		tp.etaBattP &^= 1 << c
		if etaP {
			tp.etaBattP |= 1 << c
		}
		if battBus >= 0 {
			tp.bsPre[c] = battBus/eta + bc.IdleLoss
		} else {
			tp.bsPre[c] = battBus*eta + bc.IdleLoss
		}
		tp.pmax[c] = voc * voc / (4 * res) * 0.98
	}

	// 7. The power clamp, the discriminant's square root and the pack
	// current.
	for j := 0; j < n; j++ {
		tp, c := rows[j], j&3
		voc, res, pmax := tp.voc[c], tp.res[c], tp.pmax[c]
		bs := tp.bsPre[c]
		tp.bsClamped &^= 1 << c
		if bs > pmax {
			bs = pmax
			tp.bsClamped |= 1 << c
		}
		tp.battStorage[c] = bs
		disc := voc*voc - 4*res*bs
		tp.battDiscZero &^= 1 << c
		if disc < 0 {
			disc = 0
			tp.battDiscZero |= 1 << c
		}
		sBatt := math.Sqrt(disc)
		tp.sBatt[c] = sBatt
		tp.i[c] = (voc - sBatt) / (2 * res)
	}

	// 8. The C6 excess, the cell current and heat, the SoC and the
	// thermal network (closed-form CN, identical to CNStep2).
	for j := 0; j < n; j++ {
		r, ls, tp, c := s.rs[j], &s.st[j], rows[j], j&3
		cn := &r.cnc
		soc, tb, tc := ls.soc, ls.tb, ls.tc
		i := tp.i[c]
		overC6 := i - r.packMaxI
		if !(overC6 > 0) {
			overC6 = 0
		}
		tp.overC6[c] = overC6
		cellI := i / r.parallel
		tp.cellI[c] = cellI
		// Eq. 4 per cell, i²·R + i·T·dVoc/dT, reusing cellR = R(soc, tb).
		heat := (cellI*cellI*tp.cellR[c] + cellI*tb*r.cell.DVocDT) * r.cells

		soc -= i * r.dt / r.packCapC
		tp.socPre[c] = soc
		tp.socClampHi &^= 1 << c
		if soc > 1 {
			soc = 1
			tp.socClampHi |= 1 << c
		}

		r0 := cn.r0tb*tb + cn.r0tc*tc + heat
		r1 := cn.r1tb*tb + cn.r1tc*tc + cn.w*r.ambient + tp.qx[c]
		tb = cn.i00*r0 + cn.i01*r1
		tc = cn.i10*r0 + cn.i11*r1
		tp.tb1[c], tp.tc1[c] = tb, tc
		ls.soc, ls.tb, ls.tc = soc, tb, tc
	}
}

// agingSweep records Eq. 5, as CellParams.AgingRate evaluates it, into
// column c of every row of a tape from the column's cell current and
// starting temperature. Four steps go through each vmath call: the
// logarithms of the power law's bases, then its exponentials and the
// Arrhenius factors. Short blocks are padded with arguments whose results
// nothing reads (log 1, exp 0).
func agingSweep(r *rollout, tape []tapeRow, c int) {
	c &= 3
	cell, pw, dt := &r.cell, &r.agingPow, r.dt
	for k0 := 0; k0 < len(tape); k0 += 4 {
		blk := tape[k0:min(k0+4, len(tape))]
		lx := [4]float64{1, 1, 1, 1}
		var ai, ep, ea [4]float64
		var ages [4]bool
		for i := range blk {
			ai[i] = math.Abs(blk[i].cellI[c])
			ages[i] = battery.Ages(ai[i], blk[i].tb0[c])
			lx[i] = pw.LogArg(ai[i])
		}
		vmath.Log4(&lx)
		for i := range blk {
			if ages[i] {
				ep[i] = pw.ExpArgFromLog(ai[i], lx[i])
				ea[i] = cell.AgingExpArg(blk[i].tb0[c])
			}
		}
		vmath.Exp4(&ep)
		vmath.Exp4(&ea)
		for i := range blk {
			aging := 0.0
			if ages[i] {
				aging = cell.AgingRateFromExp(ea[i], pw.FromExp(ai[i], ep[i]))
			}
			blk[i].aging[c] = aging * dt
		}
	}
}

// laneCost returns the running cost of one lane's rollout from column c
// of its finished tape. Each step adds its terms in the order the state
// sweep meets them: the SoE penalties, the pmax and C6 penalties, the SoC
// penalties, the safe-temperature and temperature-pressure terms, the
// outer-reference tracking (two-layer MPC: latched per replan, skipped
// entirely for the flat controller) and the Eq. 19 step term. The state
// kernel's cost stage adds the same terms in the same order (DESIGN.md
// §10).
func (o *OTEM) laneCost(tape []tapeRow, c int) float64 {
	c &= 3
	r := &o.roll
	cfg := &o.cfg
	dt := r.dt
	tempPressureWeight, horizonF := cfg.TempPressureWeight, float64(cfg.Horizon)
	w1, w2, w3 := cfg.W1, cfg.W2, cfg.W3
	cost := 0.0
	for k := range tape {
		tp := &tape[k]
		soePre, socPre, tb1 := tp.soePre[c], tp.socPre[c], tp.tb1[c]
		if d := r.capMinSoE - soePre; d > 0 {
			cost += stateWeight * d * d
		}
		if d := soePre - 1; d > 0 {
			cost += stateWeight * d * d
		}
		if on(tp.bsClamped, c) {
			d := (tp.bsPre[c] - tp.pmax[c]) / 1e3
			cost += 1e6 * d * d
		}
		if overC6 := tp.overC6[c]; overC6 > 0 {
			cost += 1e3 * overC6 * overC6
		}
		if d := r.battMinSoC - socPre; d > 0 {
			cost += stateWeight * d * d
		}
		soc := socPre
		if d := soc - 1; d > 0 {
			cost += stateWeight * d * d
			soc = 1
		}
		if d := tb1 - r.safeTemp; d > 0 {
			cost += safeTempWeight * d * d
		}
		tw := (r.battHeatCap*tb1 + r.coolHeatCap*tp.tc1[c]) / (r.battHeatCap + r.coolHeatCap)
		if d := tw - targetTemp; d > 0 {
			cost += tempPressureWeight / horizonF * d * d
		}
		if o.trackSoC {
			d := soc - o.refSoC[k]
			cost += cfg.SoCRefWeight * d * d
		}
		if o.trackTb {
			d := tb1 - o.refTb[k]
			cost += cfg.TempRefWeight * d * d
		}
		dEbat := tp.voc[c] * tp.i[c] * dt
		cost += w1*tp.pcool[c]*dt + w2*tp.aging[c] + w3*(dEbat+tp.dEcap[c])
	}
	return cost
}

// objectiveGrad computes the cost and writes ∂cost/∂z into grad via the
// adjoint sweep.
func (o *OTEM) objectiveGrad(z, grad []float64) float64 {
	r := &o.roll
	cfg := &o.cfg
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
	tape := o.tapeOwner[lane].tape[:cfg.Horizon]
	c := o.tapeCol[lane] & 3
	cost := o.tapeCost[lane]

	for gi := range grad {
		grad[gi] = 0
	}

	// State adjoints at the end of the horizon.
	var asoc, asoe, atb, atc float64
	// Terminal TEB term: cost += W·(T − soe)² when T − soe > 0.
	soeEnd := tape[cfg.Horizon-1].soePre[c]
	if on(tape[cfg.Horizon-1].soeClampHi, c) {
		soeEnd = 1
	}
	if d := tebTargetSoE - soeEnd; d > 0 {
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
			atb += 2 * tbRefW * (tp.tb1[c] - refT[k])
		}
		if trackSoC {
			socEnd := tp.socPre[c]
			if on(tp.socClampHi, c) {
				socEnd = 1
			}
			asoc += 2 * socRefW * (socEnd - refS[k])
		}

		// --- Temperature penalties at tb1/tc1 ---
		atb1, atc1 := atb, atc
		if d := tp.tb1[c] - r.safeTemp; d > 0 {
			atb1 += 2 * safeTempWeight * d
		}
		tw := (r.battHeatCap*tp.tb1[c] + r.coolHeatCap*tp.tc1[c]) / hcSum
		if d := tw - targetTemp; d > 0 {
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
		if on(tp.socClampHi, c) {
			asocPre = 2 * stateWeight * (tp.socPre[c] - 1)
		}
		if d := r.battMinSoC - tp.socPre[c]; d > 0 {
			asocPre += -2 * stateWeight * d
		}
		// soc' = soc0 − i·dt/capC
		asoc0 := asocPre
		ai := -asocPre * dt / r.packCapC

		// --- Running battery cost terms ---
		// dEbat = voc·i·dt (weight W3).
		avoc := cfg.W3 * tp.i[c] * dt
		ai += cfg.W3 * tp.voc[c] * dt
		// aging = rate(|cellI|, tb0)·dt (weight W2).
		acellI := 0.0
		absCell := math.Abs(tp.cellI[c])
		if absCell > 0 {
			dRdI := tp.aging[c] * r.cell.L[2] / absCell // ∂(rate·dt)/∂|i|
			sign := 1.0
			if tp.cellI[c] < 0 {
				sign = -1
			}
			acellI += cfg.W2 * dRdI * sign
			atb0 += cfg.W2 * tp.aging[c] * r.cell.L[1] / (units.GasConstant * tp.tb0[c] * tp.tb0[c])
		}
		// heat = cells·(cellI²·R(soc,tb) + cellI·tb·dVocdT). cellR and the
		// shared R'(soc,tb) come off the tape / one call instead of three
		// redundant Resistance evaluations.
		cellR := tp.cellR[c]
		rPrime := r.cell.ResistancePrimeFromExp(tp.resZExp[c], tp.resTExp[c])
		dHdI := r.cells * (2*tp.cellI[c]*cellR + tp.tb0[c]*r.cell.DVocDT)
		dHdSoc := r.cells * tp.cellI[c] * tp.cellI[c] * rPrime
		dRdT := cellR * (-r.cell.Kr / (tp.tb0[c] * tp.tb0[c]))
		dHdT := r.cells * (tp.cellI[c]*tp.cellI[c]*dRdT + tp.cellI[c]*r.cell.DVocDT)
		acellI += aheat * dHdI
		asoc0 += aheat * dHdSoc
		atb0 += aheat * dHdT
		// C6 penalty.
		ai += acellI / r.parallel
		if tp.overC6[c] > 0 {
			ai += 2 * 1e3 * tp.overC6[c]
		}

		// --- Current solve i = (voc − s)/(2res), s² = voc² − 4res·bs ---
		var abs_, avocI, aresI float64
		//lint:ignore floatcompare the adjoint must take the same branch the forward pass took; sBatt is exactly 0 iff the forward clamp fired
		if on(tp.battDiscZero, c) || tp.sBatt[c] == 0 {
			// i = voc/(2res) (s clamped to 0).
			avocI = ai / (2 * tp.res[c])
			aresI = -ai * tp.voc[c] / (2 * tp.res[c] * tp.res[c])
		} else {
			s := tp.sBatt[c]
			avocI = ai * (1 - tp.voc[c]/s) / (2 * tp.res[c])
			abs_ = ai / s
			aresI = ai * (4*tp.res[c]*tp.battStorage[c]/s - 2*(tp.voc[c]-s)) / (4 * tp.res[c] * tp.res[c])
		}
		avoc += avocI
		ares := aresI

		// --- pmax clamp ---
		absPre := abs_
		apmax := 0.0
		if on(tp.bsClamped, c) {
			d := (tp.bsPre[c] - tp.pmax[c]) / 1e3
			absPre = 2 * 1e6 * d / 1e3 // penalty on bsPre
			apmax = abs_ - 2*1e6*d/1e3 // downstream flows to pmax, minus penalty
		}
		//lint:ignore floatcompare skip-if-zero fast path: apmax is exactly 0 iff no upstream adjoint flowed into pmax
		if apmax != 0 {
			avoc += apmax * 0.98 * 2 * tp.voc[c] / (4 * tp.res[c])
			ares += -apmax * 0.98 * tp.voc[c] * tp.voc[c] / (4 * tp.res[c] * tp.res[c])
		}

		// --- battery converter ---
		var abattBus float64
		if tp.battBus[c] >= 0 {
			abattBus = absPre / tp.etaBatt[c]
			if on(tp.etaBattP, c) {
				avoc += -absPre * tp.battBus[c] * (r.battConv.Droop / r.battConv.NominalVoltage) / (tp.etaBatt[c] * tp.etaBatt[c])
			}
		} else {
			abattBus = absPre * tp.etaBatt[c]
			if on(tp.etaBattP, c) {
				avoc += absPre * tp.battBus[c] * (r.battConv.Droop / r.battConv.NominalVoltage)
			}
		}

		// --- voc/res to soc0/tb0 ---
		asoc0 += avoc * r.cellOCVScale * r.cell.OCVPrimeFromExp(units.Clamp(tp.soc0[c], 0, 1), tp.ocvExp[c])
		asoc0 += ares * r.packResScale * rPrime
		atb0 += ares * r.packResScale * dRdT

		// --- battBus = load − capBus ---
		aload := abattBus
		acapBus := -abattBus

		// --- SoE clamp/penalties ---
		asoePre := asoe
		if on(tp.soeClampHi, c) {
			asoePre = 2 * stateWeight * (tp.soePre[c] - 1)
		}
		if d := r.capMinSoE - tp.soePre[c]; d > 0 {
			asoePre += -2 * stateWeight * d
		}
		asoe0 := asoePre
		adE := -asoePre/r.capEnergy + cfg.W3 // soe' = soe0 − dE/E; plus W3·dEcap

		// --- dEcap = (capStorage + capI²·Rc)·dt ---
		var acs, avcap float64
		if r.capESR > 0 {
			var dIdCS, dIdV float64
			//lint:ignore floatcompare the adjoint must take the same branch the forward pass took; sCap is exactly 0 iff the forward clamp fired
			if on(tp.capDiscZero, c) || tp.sCap[c] == 0 {
				dIdCS = 0
				dIdV = 1 / (2 * r.capESR)
			} else {
				dIdCS = 1 / tp.sCap[c]
				dIdV = (1 - tp.vcap[c]/tp.sCap[c]) / (2 * r.capESR)
			}
			acs = adE * dt * (1 + 2*tp.capI[c]*r.capESR*dIdCS)
			avcap = adE * dt * 2 * tp.capI[c] * r.capESR * dIdV
		} else {
			acs = adE * dt
		}

		// --- capacitor converter (StoragePower) ---
		droopTerm := r.capConv.Droop / r.capConv.NominalVoltage
		if tp.capBus[c] >= 0 {
			acapBus += acs / tp.etaCapBus[c]
			if on(tp.etaCapBusP, c) {
				avcap += -acs * tp.capBus[c] * droopTerm / (tp.etaCapBus[c] * tp.etaCapBus[c])
			}
		} else {
			acapBus += acs * tp.etaCapBus[c]
			if on(tp.etaCapBusP, c) {
				avcap += acs * tp.capBus[c] * droopTerm
			}
		}

		// --- capBus clamp ---
		var acapU float64
		if on(tp.capClamped, c) {
			// capBus = capMaxBus = (capMax − idle)·η(vcap)
			acmb := acapBus
			acapMax := acmb * tp.etaCapBus[c]
			if on(tp.etaCapBusP, c) {
				avcap += acmb * (tp.capMax[c] - r.capConv.IdleLoss) * droopTerm
			}
			if on(tp.sagBranch, c) {
				avcap += acapMax * 0.97 * 2 * tp.vcap[c] / (4 * r.capESR)
			}
		} else {
			acapU = acapBus * capPowerScale
		}

		// --- vcap = busV·sqrt(soe0) ---
		if !on(tp.vcapClamped, c) {
			asoe0 += avcap * r.capBusV / (2 * math.Sqrt(tp.soe0[c]))
		}

		// --- cooling controls ---
		apcool := aload + cfg.W1*dt
		acoolU := apcool*(r.coolerMax+r.pump) + aqx*(-r.coolEff*r.coolerMax)

		// --- accumulate into the blocked gradient ---
		b := o.blockOf(k) * inputs
		grad[b] += acapU
		grad[b+1] += acoolU

		asoc, asoe, atb, atc = asoc0, asoe0, atb0, atc0
	}
	return cost
}
