package core

import (
	"math"

	"repro/internal/core/floats"
	"repro/internal/vmath"
)

// useKernel reports whether the state sweep runs its AVX2 kernel: exactly
// when vmath's vector kernels are live, so vmath.UsePortable puts the
// sweep on its portable stages as well.
func useKernel() bool { return vmath.Live() }

// useKernel8 reports whether calls of wideLanes or more lanes run as one
// group on the eight-lane AVX-512 kernel: where vmath.LiveAVX512 holds
// (so vmath.UsePortable switches it off too) and kernel8Off does not.
func useKernel8() bool { return vmath.LiveAVX512() && !kernel8Off }

// laneGroup is the lanes of a lockstep rollout laid out for the state
// sweep's vector kernels: one [8] array per quantity, lane j at index j.
// The AVX2 kernel runs a group of four and reads the first four entries
// of each array; the AVX-512 kernel runs a group of eight. The lanes of a
// group beyond the call's are padded with copies of the first lane of
// their four (lane 0 or lane 4), which compute that lane's values into
// the spare columns of its tape.
type laneGroup struct {
	// Row 0 of the tapes of the group's low and high four lanes, and per
	// lane its decision vector, its padded forecast and its reference
	// windows.
	tape          [2]*tapeRow
	z             [8]*float64
	fc            [8]*float64
	refSoC, refTb [8]*float64

	// The carried plant state and the running cost.
	soc, soe, tb, tc [8]float64
	cost             [8]float64

	// The arguments of the step's state exponentials, Eq. 2's at e[0]
	// and Eq. 3's at e[1] and e[2], where the kernel hands a step back to
	// Go.
	e [3][8]float64

	// The horizon, the blocked-input cursor (sweep's bs, mIn and lastBase;
	// base and nextBlockAt carry across a return to the caller), whether
	// the next call resumes a step after its exponentials, and whether
	// any lane tracks a reference.
	horizon, bs, mIn, lastBase int
	base, nextBlockAt          int
	resume                     int
	track                      int

	// The captured plants' constants, each formed exactly as the portable
	// stages form it (a product like 4·capESR rounds the same once as at
	// every step). Masks are all ones where the condition holds.
	capPowerScale                     [8]float64
	coolP, coolEff, coolerMax         [8]float64
	capBusV, vcapFloor                [8]float64
	capESR, capESR2, capESR4          [8]float64
	escOn                             [8]uint64 // capESR > 0
	capC7                             [8]float64
	ccNom, ccDroop, ccPeak, ccMin     [8]float64
	ccIdle                            [8]float64
	dt, capEnergy                     [8]float64
	v0, v1, v2, v3, v4, v5, v6        [8]float64
	r0, r1, r2, kr, invRef            [8]float64
	krOff                             [8]uint64 // floats.Zero(Kr): no Arrhenius factor
	ocvScale, resScale                [8]float64
	bcNom, bcDroop, bcPeak, bcMin     [8]float64
	bcIdle                            [8]float64
	packMaxI, parallel, dVocDT, cells [8]float64
	packCapC                          [8]float64
	r0tb, r0tc, r1tb, r1tc, wAmb      [8]float64
	i00, i01, i10, i11                [8]float64

	// Eq. 5: L[0], −L[1], and the aging power law's direct form, its
	// fraction yf and whether it applies (battery.Pow.Direct).
	agL0, agNegL1, powYf [8]float64
	powDirect            [8]uint64

	// The cost terms' constants, as laneCost forms them: the penalty
	// windows and weights, the temperature-pressure weight over the
	// horizon, the heat capacities and their sum, the Eq. 19 weights and
	// the tracking weights behind masks of the lanes that track.
	capMinSoE, battMinSoC, safeTemp, targetTemp [8]float64
	stateWeight, safeTempWeight, pressureWeight [8]float64
	battHeatCap, coolHeatCap, heatCapSum        [8]float64
	w1, w2, w3                                  [8]float64
	socRefWeight, tbRefWeight                   [8]float64
	trackSoC, trackTb                           [8]uint64

	// agingMiss has bit j set once a row of lane j needed Eq. 5 where the
	// kernel's form does not reproduce it: a base outside the power law's
	// direct form, a product beyond its exact range or an Arrhenius
	// argument beyond the vector exp's. The caller records that lane's
	// rates again with agingSweep, and its cost with laneCost.
	agingMiss uint64
}

// mask returns a lane mask: all ones when on.
func mask(on bool) uint64 {
	if on {
		return math.MaxUint64
	}
	return 0
}

// setLane fills lane j's state and constants from its controller's
// captured plant, Config and tracking flags.
func (g *laneGroup) setLane(j int, o *OTEM, st *laneState) {
	r, cfg := &o.roll, &o.cfg
	g.soc[j], g.soe[j], g.tb[j], g.tc[j] = st.soc, st.soe, st.tb, st.tc
	g.capPowerScale[j] = capPowerScale
	g.coolP[j], g.coolEff[j], g.coolerMax[j] = r.coolerMax+r.pump, r.coolEff, r.coolerMax
	g.capBusV[j], g.vcapFloor[j] = r.capBusV, r.capBusV*math.Sqrt(1e-6)
	g.capESR[j], g.capESR2[j], g.capESR4[j] = r.capESR, 2*r.capESR, 4*r.capESR
	g.escOn[j] = mask(r.capESR > 0)
	g.capC7[j] = r.capC7
	cc := &r.capConv
	g.ccNom[j], g.ccDroop[j], g.ccPeak[j], g.ccMin[j], g.ccIdle[j] =
		cc.NominalVoltage, cc.Droop, cc.PeakEfficiency, cc.MinEfficiency, cc.IdleLoss
	g.dt[j], g.capEnergy[j] = r.dt, r.capEnergy
	cell := &r.cell
	g.v0[j], g.v1[j], g.v2[j], g.v3[j], g.v4[j], g.v5[j], g.v6[j] =
		cell.V[0], cell.V[1], cell.V[2], cell.V[3], cell.V[4], cell.V[5], cell.V[6]
	g.r0[j], g.r1[j], g.r2[j] = cell.R[0], cell.R[1], cell.R[2]
	g.kr[j], g.invRef[j] = cell.Kr, 1/cell.RefTemp
	g.krOff[j] = mask(floats.Zero(cell.Kr))
	g.ocvScale[j], g.resScale[j] = r.cellOCVScale, r.packResScale
	bc := &r.battConv
	g.bcNom[j], g.bcDroop[j], g.bcPeak[j], g.bcMin[j], g.bcIdle[j] =
		bc.NominalVoltage, bc.Droop, bc.PeakEfficiency, bc.MinEfficiency, bc.IdleLoss
	g.packMaxI[j], g.parallel[j], g.dVocDT[j], g.cells[j] = r.packMaxI, r.parallel, cell.DVocDT, r.cells
	g.packCapC[j] = r.packCapC
	cn := &r.cnc
	g.r0tb[j], g.r0tc[j], g.r1tb[j], g.r1tc[j], g.wAmb[j] = cn.r0tb, cn.r0tc, cn.r1tb, cn.r1tc, cn.w*r.ambient
	g.i00[j], g.i01[j], g.i10[j], g.i11[j] = cn.i00, cn.i01, cn.i10, cn.i11
	yf, direct := r.agingPow.Direct()
	g.agL0[j], g.agNegL1[j], g.powYf[j], g.powDirect[j] = cell.L[0], -cell.L[1], yf, mask(direct)
	g.capMinSoE[j], g.battMinSoC[j], g.safeTemp[j], g.targetTemp[j] = r.capMinSoE, r.battMinSoC, r.safeTemp, targetTemp
	g.stateWeight[j], g.safeTempWeight[j] = stateWeight, safeTempWeight
	g.pressureWeight[j] = cfg.TempPressureWeight / float64(cfg.Horizon)
	g.battHeatCap[j], g.coolHeatCap[j], g.heatCapSum[j] = r.battHeatCap, r.coolHeatCap, r.battHeatCap+r.coolHeatCap
	g.w1[j], g.w2[j], g.w3[j] = cfg.W1, cfg.W2, cfg.W3
	g.socRefWeight[j], g.tbRefWeight[j] = cfg.SoCRefWeight, cfg.TempRefWeight
	g.trackSoC[j], g.trackTb[j] = mask(o.trackSoC), mask(o.trackTb)
	if o.trackSoC || o.trackTb {
		g.track = 1
	}
}

// sweepKernel is the state sweep of every lane on the vector kernels,
// their aging rates and costs included: the lanes run in groups of four,
// each group through the whole horizon in one sweepGroup call, or, where
// useKernel8 holds and the call has wideLanes lanes or more, as one group
// of eight in one sweepGroup8 call. A call returns early only at a step
// whose exponentials its vector exp cannot take; math.Exp evaluates them
// there, into the step's rows, and the call resumes. A lane whose aging
// the kernel could not finish has it recorded again by agingSweep and its
// cost added again by laneCost.
func (s *sweep) sweepKernel() {
	n := len(s.lanes)
	var g laneGroup
	w := 4
	if n >= wideLanes && useKernel8() {
		w = 8
	}
	for l0 := 0; l0 < n; l0 += w {
		for h := 0; h < w>>2; h++ {
			g.tape[h] = &s.tapes[l0>>2+h][0]
		}
		g.track = 0
		for j := 0; j < w; j++ {
			l := l0 + j
			if l >= n {
				l = l0 + j&^3
			}
			// The pointers go straight into g: a store through a pointer
			// counts as a store to the heap, which would make the lanes
			// escape.
			ln := &s.lanes[l]
			o := ln.o
			g.z[j], g.fc[j], g.refSoC[j], g.refTb[j] = &ln.z[0], &o.fc[0], &o.refSoC[0], &o.refTb[0]
			g.setLane(j, o, &s.st[l])
		}
		g.horizon, g.bs, g.mIn, g.lastBase = s.horizon, s.bs, s.mIn, s.lastBase
		g.base, g.nextBlockAt, g.resume, g.agingMiss = 0, s.bs, 0, 0
		g.cost = [8]float64{}
		for k := runGroup(&g, w, 0); k < s.horizon; k = runGroup(&g, w, k) {
			// A lane's exponential argument at step k is not finite or
			// beyond the vector exp's range.
			for j := 0; j < w; j++ {
				row, c := &s.tapes[(l0+j)>>2][k], j&3
				row.ocvExp[c] = math.Exp(g.e[0][j])
				row.resZExp[c] = math.Exp(g.e[1][j])
				row.resTExp[c] = math.Exp(g.e[2][j])
			}
			g.resume = 1
		}
		for j := 0; j < w && l0+j < n; j++ {
			l := l0 + j
			s.st[l] = laneState{soc: g.soc[j], soe: g.soe[j], tb: g.tb[j], tc: g.tc[j]}
			s.cost[l] = g.cost[j]
			if g.agingMiss&(1<<j) != 0 {
				tape := s.tapes[l>>2]
				agingSweep(s.rs[l], tape, l&3)
				s.cost[l] = s.lanes[l].o.laneCost(tape, l&3)
			}
		}
	}
}

// runGroup runs the group of w lanes of lg from step k on, on the kernel
// of that width.
func runGroup(lg *laneGroup, w, k int) int {
	if w == 8 {
		return sweepGroup8(lg, k)
	}
	return sweepGroup(lg, k)
}

// sweepGroup runs the state sweep of the four lanes of lg from step k on
// and returns the horizon, or the step whose exponentials it could not
// take: lg.e then holds their arguments, Eq. 2's at e[0] and Eq. 3's at
// e[1] and e[2], and the caller writes their exponentials into the step's
// row, sets lg.resume and calls again at that step. Each step records the
// group's tape row, the lanes' Eq. 5 aging rates included, adds the
// lanes' cost terms to lg.cost and carries their state in lg, in the
// stages of DESIGN.md §10; the exponentials and the aging law's logarithm
// are vmath's exp4AVX and log4AVX inlined, op for op. Every comparison
// takes the branch the portable stage takes on every input, NaN included.
// Lanes with a row whose aging rate the kernel's form does not reproduce
// are flagged in lg.agingMiss.
//
//go:noescape
func sweepGroup(lg *laneGroup, k int) int

// sweepGroup8 is sweepGroup over the eight lanes of lg on AVX-512, each
// zmm register one lane per element. It stores the low four lanes of a
// step into the row of lg.tape[0] and the high four into that of
// lg.tape[1], so the rows are those two sweepGroup calls record. Its code
// (sweep8_amd64.s) is generated from sweepGroup's by
// TestSweepKernel8Generated.
//
//go:noescape
func sweepGroup8(lg *laneGroup, k int) int
