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

// laneGroup is four lanes of a lockstep rollout laid out for the state
// sweep's vector kernel: one [4] array per quantity, lane j at index j.
// A group of fewer than four lanes is padded with copies of its first
// lane, which compute that lane's values and store them to its own rows.
type laneGroup struct {
	// Per lane: slot 0 of its tape, its decision vector and its padded
	// forecast.
	tape [4]*stepTape
	z    [4]*float64
	fc   [4]*float64

	// The carried plant state.
	soc, soe, tb, tc [4]float64

	// The step's state exponentials, Eq. 2's at e[0:4] and Eq. 3's at
	// e[4:8] and e[8:12], and what one stage hands a later one beyond the
	// registers.
	e                        [12]float64
	pcool, qx, capBus, cellR [4]float64

	// The horizon, the blocked-input cursor (sweep's bs, mIn and lastBase;
	// base and nextBlockAt carry across a return to the caller), and
	// whether the next call resumes a step after its exponentials.
	horizon, bs, mIn, lastBase int
	base, nextBlockAt          int
	resume                     int

	// The captured plants' constants, each formed exactly as the portable
	// stages form it (a product like 4·capESR rounds the same once as at
	// every step). Masks are all ones where the condition holds.
	capPowerScale                     [4]float64
	coolP, coolEff, coolerMax         [4]float64
	capBusV, vcapFloor                [4]float64
	capESR, capESR2, capESR4          [4]float64
	escOn                             [4]uint64 // capESR > 0
	capC7                             [4]float64
	ccNom, ccDroop, ccPeak, ccMin     [4]float64
	ccIdle                            [4]float64
	dt, capEnergy                     [4]float64
	v0, v1, v2, v3, v4, v5, v6        [4]float64
	r0, r1, r2, kr, invRef            [4]float64
	krOff                             [4]uint64 // floats.Zero(Kr): no Arrhenius factor
	ocvScale, resScale                [4]float64
	bcNom, bcDroop, bcPeak, bcMin     [4]float64
	bcIdle                            [4]float64
	packMaxI, parallel, dVocDT, cells [4]float64
	packCapC                          [4]float64
	r0tb, r0tc, r1tb, r1tc, wAmb      [4]float64
	i00, i01, i10, i11                [4]float64

	// Eq. 5: L[0], −L[1], and the aging power law's direct form, its
	// fraction yf and whether it applies (battery.Pow.Direct).
	agL0, agNegL1, powYf [4]float64
	powDirect            [4]uint64

	// agingMiss has bit j set once a row of lane j needed Eq. 5 where the
	// kernel's form does not reproduce it: a base outside the power law's
	// direct form, a product beyond its exact range or an Arrhenius
	// argument beyond the vector exp's. The caller records that lane's
	// rates again with agingSweep.
	agingMiss uint64
}

// mask returns a lane mask: all ones when on.
func mask(on bool) uint64 {
	if on {
		return math.MaxUint64
	}
	return 0
}

// setLane fills lane j's state and constants from its captured plant r.
func (g *laneGroup) setLane(j int, r *rollout, st *laneState, capPowerScale float64) {
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
}

// sweepKernel is the state sweep of lanes 0 to n−1 on the vector kernel,
// their aging rates included: the lanes run in groups of four, each group
// through the whole horizon in one sweepGroup call. A call returns early
// only at a step whose exponentials its vector exp cannot take; math.Exp
// evaluates them there and the call resumes. A lane whose aging the
// kernel could not finish has it recorded again by agingSweep.
func (s *sweep) sweepKernel(n int) {
	var g laneGroup
	for l0 := 0; l0 < n; l0 += 4 {
		for j := 0; j < 4; j++ {
			l := l0 + j
			if l >= n {
				l = l0
			}
			// The pointers go straight into g: a store through a pointer
			// counts as a store to the heap, which would make the lanes
			// escape.
			ln := &s.lanes[l]
			g.tape[j], g.z[j], g.fc[j] = &s.tapes[l][0], &ln.z[0], &ln.o.fc[0]
			g.setLane(j, s.rs[l], &s.st[l], s.capPowerScale)
		}
		g.horizon, g.bs, g.mIn, g.lastBase = s.horizon, s.bs, s.mIn, s.lastBase
		g.base, g.nextBlockAt, g.resume, g.agingMiss = 0, s.bs, 0, 0
		for k := sweepGroup(&g, 0); k < s.horizon; k = sweepGroup(&g, k) {
			// A lane's exponential argument at step k is not finite or
			// beyond the vector exp's range.
			for i := range g.e {
				g.e[i] = math.Exp(g.e[i])
			}
			g.resume = 1
		}
		for j := 0; j < 4 && l0+j < n; j++ {
			s.st[l0+j] = laneState{soc: g.soc[j], soe: g.soe[j], tb: g.tb[j], tc: g.tc[j]}
			if g.agingMiss&(1<<j) != 0 {
				agingSweep(s.rs[l0+j], s.tapes[l0+j])
			}
		}
	}
}

// sweepGroup runs the state sweep of the four lanes of lg from step k on
// and returns the horizon, or the step whose exponentials it could not
// take: lg.e then holds their twelve arguments, Eq. 2's at e[0:4] and
// Eq. 3's at e[4:8] and e[8:12], and the caller overwrites them with
// their exponentials, sets lg.resume and calls again at that step. Each
// step records the lanes' tape rows, their Eq. 5 aging rates included, and
// carries their state in lg, in the stages of DESIGN.md §10; the
// exponentials and the aging law's logarithm are vmath's exp4AVX and
// log4AVX inlined, op for op. Every comparison takes the branch the
// portable stage takes on every input, NaN included. Rows whose aging
// rate the kernel's form does not reproduce are flagged in lg.agingMiss.
//
//go:noescape
func sweepGroup(lg *laneGroup, k int) int
