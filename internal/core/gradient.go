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
// about a fifth of a rollout: 2.1 µs against 10.3 µs on a 2-vCPU Xeon.
// Correctness is pinned by TestAnalyticGradientMatchesNumeric, which
// compares against central differences over random states and decisions.

// stepTape records the intermediates of one forward step that the backward
// sweep needs.
type stepTape struct {
	soc0, soe0, tb0, tc0 float64

	capU, coolU float64
	pcool, qx   float64

	vcap        float64
	vcapClamped bool // soe0 ≤ 1e-6 → d(vcap)/d(soe) = 0
	sagBranch   bool // capMax came from the 0.97·v²/4R sag limit
	capMax      float64
	etaCapBus   float64 // η(vcap) used by BusPower for capMaxBus
	etaCapBusP  bool    // derivative of that η w.r.t. v is nonzero
	capMaxBus   float64
	capClamped  bool // capBus = capMaxBus taken
	capBus      float64
	etaCapSto   float64 // η(vcap) used by StoragePower
	etaCapStoP  bool
	capStorage  float64
	sCap        float64 // sqrt of the capacitor discriminant
	capDiscZero bool
	capI        float64
	dEcap       float64
	soePre      float64
	soeClampHi  bool

	voc, res float64
	cellR    float64 // single-cell resistance R(soc0, tb0) behind res/heat
	// The exponentials behind voc and cellR — exp(V[1]·z), exp(R[1]·z) and
	// the Arrhenius factor at (soc0, tb0) — kept so the adjoint's dVoc/dz
	// and dR/dz need no exp of their own.
	ocvExp, resZExp, resTExp float64
	battBus                  float64
	etaBatt                  float64
	etaBattP                 bool
	bsPre                    float64 // battery storage power before the pmax clamp
	pmax                     float64
	bsClamped                bool
	battStorage              float64
	sBatt                    float64
	battDiscZero             bool
	i, cellI                 float64
	overC6                   float64 // max(0, i − packMaxI)
	heat                     float64
	aging                    float64
	socPre                   float64
	socClampHi               bool

	tb1, tc1 float64
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

// expLanes replaces the first n entries of x with their exponentials: a
// single lane takes one math.Exp, more lanes one vmath.Exp4 call. Both are
// bit-identical to math.Exp. Lanes at and beyond n are reset to 0 first:
// Exp4 overwrites them too, and a value left to grow step after step would
// push every later call onto the kernel's scalar fallback.
func expLanes(x *[maxLanes]float64, n int) {
	if n == 1 {
		x[0] = math.Exp(x[0])
		return
	}
	for j := n; j < maxLanes; j++ {
		x[j] = 0
	}
	vmath.Exp4(x)
}

// laneState is one rollout lane's carried plant state and running cost.
type laneState struct {
	soc, soe, tb, tc, cost float64
}

// objectiveFwd is the single source of truth for the MPC cost. It rolls the
// model forward over the horizon for len(zs) decision vectors in lockstep
// (1 to maxLanes lanes): lane j evaluates zs[j], records its intermediates
// into o.tapes[j] and keys that tape by zs[j] and its cost, so the adjoint
// can reuse whichever lane the solver accepts.
//
// The lanes share one instruction stream, and each step splits where the
// battery formulas need exponentials (the Eq. 2/3/5 exps, then the aging
// power law's): every lane computes its arguments, one expLanes call per
// site evaluates them, and the lanes carry on. Each lane performs exactly
// the operations a single-lane call performs on its z, so a lane's cost and
// tape rows do not depend on how many lanes ran beside it; the single-lane
// call is the plain objective.
//
// Rows are written in full — every conditionally-set field is explicitly
// reset — so a dirty, reused tape is fine and the hot path never zeroes or
// copies a stepTape.
func (o *OTEM) objectiveFwd(zs [][]float64) {
	n := len(zs)
	r := &o.roll
	cfg := &o.cfg
	spec := o.planner.Spec()
	bs, nb, mIn := spec.BlockSize, spec.Blocks(), spec.InputsPerStep
	cc := r.capConv
	bc := r.battConv
	dt := r.dt
	cn := r.cnc

	// Hoist every scalar the loop reads into locals: the tape writes go
	// through a pointer, so without this the compiler must reload each field
	// from o.roll / o.cfg after every store. Values and operation order are
	// unchanged.
	cell := &r.cell
	dvocdt := r.cell.DVocDT
	agingPow := r.agingPow
	coolerMax, pump, coolEff := r.coolerMax, r.pump, r.coolEff
	capBusV, capC7, capESR := r.capBusV, r.capC7, r.capESR
	capEnergy, capMinSoE := r.capEnergy, r.capMinSoE
	cellOCVScale, packResScale := r.cellOCVScale, r.packResScale
	packMaxI, parallel, cells := r.packMaxI, r.parallel, r.cells
	packCapC, battMinSoC, safeTemp := r.packCapC, r.battMinSoC, r.safeTemp
	battHeatCap, coolHeatCap := r.battHeatCap, r.coolHeatCap
	hcSum := battHeatCap + coolHeatCap
	wAmbient := cn.w * r.ambient
	capPowerScale, stateWeight := cfg.CapPowerScale, cfg.StateWeight
	safeTempWeight, targetTemp := cfg.SafeTempWeight, cfg.TargetTemp
	tempPressureWeight, horizonF := cfg.TempPressureWeight, float64(cfg.Horizon)
	w1, w2, w3 := cfg.W1, cfg.W2, cfg.W3
	fc := o.fc
	tapes := &o.tapes
	// Outer-layer tracking terms: latched per replan, skipped entirely for
	// the flat controller so its cost stays bit-identical.
	trackSoC, trackTb := o.trackSoC, o.trackTb
	refS, refT := o.refSoC, o.refTb
	socRefW, tbRefW := cfg.SoCRefWeight, cfg.TempRefWeight

	var st [maxLanes]laneState
	for j := 0; j < n; j++ {
		st[j] = laneState{soc: r.soc, soe: r.soe, tb: r.tb, tc: r.tc}
	}
	// Per-site exponential arguments, overwritten in place by expLanes.
	var eOCV, eResZ, eResT, eAge, ePow [maxLanes]float64

	// Blocked-input cursor: base walks z one block every bs steps (same
	// indexing as Spec.InputAt, without the per-step division).
	base, nextBlockAt, lastBase := 0, bs, (nb-1)*mIn
	for k := 0; k < cfg.Horizon; k++ {
		if k == nextBlockAt && base < lastBase {
			base += mIn
			nextBlockAt += bs
		}

		// Cooling, ultracapacitor and SoE; then the arguments of the
		// battery formulas' exponentials at this step's (soc, tb).
		for j := 0; j < n; j++ {
			s := &st[j]
			tp := &tapes[j][k]
			soc, soe, tb := s.soc, s.soe, s.tb
			cost := s.cost
			tp.soc0, tp.soe0, tp.tb0, tp.tc0 = soc, soe, tb, s.tc
			z := zs[j]
			tp.capU = z[base]
			tp.coolU = z[base+1]

			// --- Cooling: linear intensity model ---
			tp.pcool = tp.coolU * (coolerMax + pump)
			tp.qx = -tp.coolU * coolEff * coolerMax

			// --- Ultracapacitor branch ---
			capBus0 := tp.capU * capPowerScale
			if soe > 1e-6 {
				tp.vcap = capBusV * math.Sqrt(soe)
				tp.vcapClamped = false
			} else {
				tp.vcap = capBusV * math.Sqrt(1e-6)
				tp.vcapClamped = true
			}
			tp.capMax = capC7
			tp.sagBranch = false
			if capESR > 0 {
				if sag := 0.97 * tp.vcap * tp.vcap / (4 * capESR); sag < tp.capMax {
					tp.capMax = sag
					tp.sagBranch = true
				}
			}
			tp.etaCapBus, tp.etaCapBusP = etaAt(cc.PeakEfficiency, cc.MinEfficiency, cc.NominalVoltage, cc.Droop, tp.vcap)
			// BusPower for a non-negative storage power (capMax ≥ 0, idle 0).
			tp.capMaxBus = (tp.capMax - cc.IdleLoss) * tp.etaCapBus
			tp.capBus = capBus0
			tp.capClamped = false
			if tp.capBus > tp.capMaxBus {
				tp.capBus = tp.capMaxBus
				tp.capClamped = true
			}
			tp.etaCapSto, tp.etaCapStoP = tp.etaCapBus, tp.etaCapBusP
			if tp.capBus >= 0 {
				tp.capStorage = tp.capBus/tp.etaCapSto + cc.IdleLoss
			} else {
				tp.capStorage = tp.capBus*tp.etaCapSto + cc.IdleLoss
			}
			tp.sCap = 0
			tp.capDiscZero = false
			tp.capI = 0
			if capESR > 0 {
				disc := tp.vcap*tp.vcap - 4*capESR*tp.capStorage
				if disc < 0 {
					disc = 0
					tp.capDiscZero = true
				}
				tp.sCap = math.Sqrt(disc)
				tp.capI = (tp.vcap - tp.sCap) / (2 * capESR)
			} else if tp.vcap > 0 {
				tp.capI = tp.capStorage / tp.vcap
			}
			tp.dEcap = (tp.capStorage + tp.capI*tp.capI*capESR) * dt
			tp.soePre = soe - tp.dEcap/capEnergy
			soe = tp.soePre
			if d := capMinSoE - soe; d > 0 {
				cost += stateWeight * d * d
			}
			tp.soeClampHi = false
			if d := soe - 1; d > 0 {
				cost += stateWeight * d * d
				soe = 1
				tp.soeClampHi = true
			}
			s.soe, s.cost = soe, cost

			zc := units.Clamp(soc, 0, 1)
			eOCV[j] = cell.OCVExpArg(zc)
			eResZ[j], eResT[j] = cell.ResistanceExpArgs(zc, tb)
			eAge[j] = cell.AgingExpArg(tb)
		}
		expLanes(&eOCV, n)
		expLanes(&eResZ, n)
		expLanes(&eResT, n)
		expLanes(&eAge, n)

		// Battery branch up to the cell current; then the argument of the
		// aging power law's exponential at |cellI|.
		for j := 0; j < n; j++ {
			s := &st[j]
			tp := &tapes[j][k]
			tb, cost := s.tb, s.cost
			tp.ocvExp, tp.resZExp, tp.resTExp = eOCV[j], eResZ[j], eResT[j]

			tp.battBus = fc[k] + tp.pcool - tp.capBus
			tp.voc = cellOCVScale * cell.OCVFromExp(units.Clamp(tp.soc0, 0, 1), tp.ocvExp)
			cellR := cell.ResistanceFromExp(tp.resZExp, tp.resTExp)
			tp.cellR = cellR
			tp.res = packResScale * cellR
			tp.etaBatt, tp.etaBattP = etaAt(bc.PeakEfficiency, bc.MinEfficiency, bc.NominalVoltage, bc.Droop, tp.voc)
			if tp.battBus >= 0 {
				tp.bsPre = tp.battBus/tp.etaBatt + bc.IdleLoss
			} else {
				tp.bsPre = tp.battBus*tp.etaBatt + bc.IdleLoss
			}
			tp.pmax = tp.voc * tp.voc / (4 * tp.res) * 0.98
			tp.battStorage = tp.bsPre
			tp.bsClamped = false
			if tp.bsPre > tp.pmax {
				d := (tp.bsPre - tp.pmax) / 1e3
				cost += 1e6 * d * d
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
			tp.overC6 = tp.i - packMaxI
			if tp.overC6 > 0 {
				cost += 1e3 * tp.overC6 * tp.overC6
			} else {
				tp.overC6 = 0
			}
			tp.cellI = tp.i / parallel
			// Inlined HeatRate: i²·R + i·T·dVoc/dT, reusing cellR (the same
			// R(soc, tb) the method would recompute).
			tp.heat = (tp.cellI*tp.cellI*cellR + tp.cellI*tb*dvocdt) * cells
			s.cost = cost
			ePow[j] = agingPow.ExpArg(math.Abs(tp.cellI))
		}
		expLanes(&ePow, n)

		// Aging, SoC, thermal network and the step's cost terms.
		for j := 0; j < n; j++ {
			s := &st[j]
			tp := &tapes[j][k]
			soc, tb, tc, cost := s.soc, s.tb, s.tc, s.cost

			// Eq. 5 as CellParams.AgingRate evaluates it.
			aging := 0.0
			if ai := math.Abs(tp.cellI); battery.Ages(ai, tb) {
				aging = cell.AgingRateFromExp(eAge[j], agingPow.FromExp(ai, ePow[j]))
			}
			tp.aging = aging * dt
			dEbat := tp.voc * tp.i * dt
			tp.socPre = soc - tp.i*dt/packCapC
			soc = tp.socPre
			if d := battMinSoC - soc; d > 0 {
				cost += stateWeight * d * d
			}
			tp.socClampHi = false
			if d := soc - 1; d > 0 {
				cost += stateWeight * d * d
				soc = 1
				tp.socClampHi = true
			}

			// --- Thermal network (closed-form CN, identical to CNStep2) ---
			r0 := cn.r0tb*tb + cn.r0tc*tc + tp.heat
			r1 := cn.r1tb*tb + cn.r1tc*tc + wAmbient + tp.qx
			tb = cn.i00*r0 + cn.i01*r1
			tc = cn.i10*r0 + cn.i11*r1
			tp.tb1, tp.tc1 = tb, tc
			if d := tb - safeTemp; d > 0 {
				cost += safeTempWeight * d * d
			}
			tw := (battHeatCap*tb + coolHeatCap*tc) / hcSum
			if d := tw - targetTemp; d > 0 {
				cost += tempPressureWeight / horizonF * d * d
			}

			// --- Outer-reference tracking (two-layer MPC) ---
			if trackSoC {
				d := soc - refS[k]
				cost += socRefW * d * d
			}
			if trackTb {
				d := tb - refT[k]
				cost += tbRefW * d * d
			}

			cost += w1*tp.pcool*dt + w2*tp.aging + w3*(dEbat+tp.dEcap)
			s.soc, s.tb, s.tc, s.cost = soc, tb, tc, cost
		}
	}

	for j := 0; j < n; j++ {
		cost := st[j].cost
		if d := cfg.TEBTargetSoE - st[j].soe; d > 0 {
			cost += cfg.TEBWeight * r.capEnergy * d * d
		}
		o.tapeZ[j] = o.tapeZ[j][:len(zs[j])]
		copy(o.tapeZ[j], zs[j])
		o.tapeCost[j] = cost
	}
	o.tapeLanes = n
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
		o.objectiveFwd([][]float64{z})
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
			acapBus += acs / tp.etaCapSto
			if tp.etaCapStoP {
				avcap += -acs * tp.capBus * droopTerm / (tp.etaCapSto * tp.etaCapSto)
			}
		} else {
			acapBus += acs * tp.etaCapSto
			if tp.etaCapStoP {
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
