// Package core implements OTEM — the paper's contribution (§III): an
// Optimized Thermal and Energy Management controller for the hybrid HEES
// with an active battery cooling system.
//
// At every re-planning instant the controller solves the finite-horizon
// optimisation of paper Eqs. 18–19 by single shooting: the decision
// variables are, per move-blocked horizon step, the ultracapacitor bus
// power and a normalised cooling intensity; the plant model (battery
// Eqs. 1–5, ultracapacitor Eqs. 6–9, converters, coolant network
// Eqs. 14–17) is rolled forward inside the objective, and the cost
//
//	F = Σ w1·P_c·Δt + w2·Q_loss + w3·(dE_bat + dE_cap)      (Eq. 19)
//
// is minimised subject to constraints C1–C7 (boxes on the decision
// variables, smooth hinge penalties on the state paths, clamps on the
// physical limits). Because the horizon sees the predicted power requests,
// the controller provides "Thermal and Energy Budget" (TEB): it pre-charges
// the ultracapacitor and/or pre-cools the battery ahead of demand bursts
// exactly as §III-A describes.
package core

import (
	"fmt"
	"math"

	"repro/internal/battery"
	"repro/internal/converter"
	"repro/internal/cooling"
	"repro/internal/optimize"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/vmath"
)

// Config tunes the OTEM controller. Zero fields take the defaults from
// DefaultConfig.
type Config struct {
	// Horizon is the MPC control-window size N in steps (paper Alg. 1
	// line 4).
	Horizon int
	// BlockSize move-blocks the decision variables.
	BlockSize int
	// ReplanInterval is how many plant steps each optimised plan is
	// executed before re-solving.
	ReplanInterval int

	// W1, W2 and W3 are the Eq. 19 weights: cooling energy (J), capacity
	// loss (% → J equivalents) and HEES energy (J).
	W1, W2, W3 float64
	// TempPressureWeight prices battery-temperature excess over targetTemp,
	// integrated across the horizon (J/K² total, distributed per step) —
	// the proxy for aging beyond the window that makes cooling *now*
	// strictly better than cooling later (otherwise the receding horizon
	// procrastinates forever).
	TempPressureWeight float64
	// TEBWeight prices the terminal ultracapacitor deficit below
	// tebTargetSoE, in joules of cost per joule of capacity at unit
	// squared deficit — the "Thermal and Energy Budget" incentive that
	// makes the controller re-charge during cheap moments (idle, regen)
	// and pre-charge "upto the perfect amount" (§III-A) before demand
	// beyond the window.
	TEBWeight float64
	// SoCRefWeight and TempRefWeight price per-step deviation from an
	// outer-layer reference trajectory installed via SetReference — the
	// tracking terms of the two-layer hierarchical MPC (arXiv 1809.10002).
	// J per squared SoC fraction and J/K² respectively. Zero (the default)
	// disables tracking entirely: the flat controller's cost, gradients and
	// plans are bit-identical whether or not a reference is installed.
	SoCRefWeight float64
	// TempRefWeight is SoCRefWeight's battery-temperature counterpart.
	TempRefWeight float64
	// Optimizer tunes the inner solver.
	Optimizer optimize.Options
}

// DefaultConfig returns the configuration used for the paper experiments.
func DefaultConfig() Config {
	return Config{
		Horizon:            40,
		BlockSize:          8,
		ReplanInterval:     4,
		W1:                 1,
		W2:                 2e10,
		W3:                 1,
		TempPressureWeight: 2e5,
		TEBWeight:          2,
		Optimizer: optimize.Options{
			MaxIterations: 30,
			Tolerance:     1e-4,
		},
	}
}

// Validate reports an error for an unusable configuration. Each check is
// written so that NaN fails it, and every weight must be finite.
func (c Config) Validate() error {
	switch {
	case c.Horizon <= 0:
		return fmt.Errorf("core: Horizon = %d, must be > 0", c.Horizon)
	case c.BlockSize <= 0 || c.BlockSize > c.Horizon:
		return fmt.Errorf("core: BlockSize = %d invalid for horizon %d", c.BlockSize, c.Horizon)
	case c.ReplanInterval <= 0:
		return fmt.Errorf("core: ReplanInterval = %d, must be > 0", c.ReplanInterval)
	case !finiteNonNeg(c.W1) || !finiteNonNeg(c.W2) || !finiteNonNeg(c.W3):
		return fmt.Errorf("core: cost weights (%g, %g, %g) must be finite and >= 0", c.W1, c.W2, c.W3)
	case !finiteNonNeg(c.TempPressureWeight) || !finiteNonNeg(c.TEBWeight):
		return fmt.Errorf("core: TempPressureWeight/TEBWeight (%g, %g) must be finite and >= 0", c.TempPressureWeight, c.TEBWeight)
	case !finiteNonNeg(c.SoCRefWeight) || !finiteNonNeg(c.TempRefWeight):
		return fmt.Errorf("core: reference-tracking weights (%g, %g) must be finite and >= 0", c.SoCRefWeight, c.TempRefWeight)
	}
	return nil
}

// The fixed terms of the horizon problem, shared by every controller.
const (
	// tebTargetSoE is the state of energy the terminal TEB cost pulls
	// toward from below (exceeding it is free).
	tebTargetSoE = 0.85
	// targetTemp is the temperature the terminal cost pulls toward, kelvin.
	targetTemp = 27 + units.ZeroCelsius
	// safeTempWeight penalises per-step violation of constraint C1 (J/K²).
	safeTempWeight = 1e7
	// stateWeight penalises per-step violation of the SoC/SoE windows
	// C4/C5 (J per squared fraction).
	stateWeight = 1e8
	// capPowerScale converts the normalised ultracapacitor decision
	// u∈[-1,1] to bus watts (C7 bound).
	capPowerScale = 90e3
	// coolingOnThreshold is the normalised intensity below which the pump
	// stays off.
	coolingOnThreshold = 0.03
)

// finiteNonNeg reports whether w is a usable cost weight: finite and >= 0.
func finiteNonNeg(w float64) bool { return w >= 0 && !math.IsInf(w, 1) }

// inputs is the number of decision inputs per move block: u0, the
// ultracapacitor bus power normalised to capPowerScale, and u1, the
// cooling intensity.
const inputs = 2

// OTEM is the controller. It implements sim.Controller. Construct with New.
type OTEM struct {
	cfg Config

	// The horizon problem: blocks is the number of move blocks
	// ceil(Horizon/BlockSize); prob is the box-bounded problem over the
	// blocked decision vector, whose Grad is the adjoint gradient; ws is
	// the optimizer that solves it; warm is the next solve's start — the
	// last solution, shifted by AdvanceWarmStart, or the bounds' midpoint before
	// the first solve. ws holds every solver buffer, so a warm replan runs
	// without allocating, and makes the controller single-goroutine state.
	blocks int
	prob   optimize.Problem
	ws     optimize.Workspace
	warm   []float64

	// Current plan and its execution cursor.
	plan      []float64
	planValid bool
	cursor    int

	// Rollout scratch (captured from the plant at each re-plan so the
	// objective closure performs no allocation).
	roll rollout
	// forecast buffer padded to the horizon.
	fc []float64
	// tape is this controller's group-major tape of adjoint-gradient
	// intermediates (gradient.go), one row per horizon step. Its four
	// columns are the lanes of a call's group of four whose first lane is
	// this controller's: its own trials from there on, then other
	// controllers' lanes packed beside them. tapeGen counts the calls that
	// wrote it. It is the scratch of every evaluation, so steady-state
	// replans never allocate.
	tape    []tapeRow
	tapeGen uint64
	// slots is the number of speculation slots a replan fills: 1, or
	// maxSpec where vmath's vector exp is live. tapeZ/tapeCost key each
	// slot by the decision vector and cost it was evaluated at, and
	// tapeOwner/tapeCol/tapeGenAt name the tape column that recorded it
	// and that tape's generation then. tapeLanes counts the slots of the
	// last call this controller's lanes ran in (0 after a capture). The
	// line search always evaluates the objective at the accepted point
	// immediately before the solver asks for its gradient, so the adjoint
	// can skip its own forward pass by reading the slot whose z matches —
	// bit-identical, since the column is exactly what that forward pass
	// would re-record — as long as no later call wrote the tape.
	slots     int
	tapeZ     [maxSpec][]float64
	tapeCost  [maxSpec]float64
	tapeOwner [maxSpec]*OTEM
	tapeCol   [maxSpec]int
	tapeGenAt [maxSpec]uint64
	tapeLanes int

	// State of a replan in a lockstep group (group.go): replanning from
	// beginReplan to endReplan, solving until the solve is done (started
	// records whether it began at all), the class leader whose Config this
	// controller's trials pack with and the budget of the next Ask. stats
	// is the leader's count of its packing work.
	replanning, solving, started bool
	lead                         *OTEM
	budget                       int
	stats                        packStats

	// Outer-layer reference tracking (reference.go). ref is the installed
	// trajectory (nil without an outer layer); stepAbs is the absolute
	// plant step, indexing ref; refSoC/refTb are the per-replan horizon
	// windows the objective reads; trackSoC/trackTb gate the tracking
	// terms so a zero-weight or absent reference leaves the flat cost
	// untouched bit for bit.
	ref             *Reference
	stepAbs         int
	refSoC, refTb   []float64
	trackSoC        bool
	trackTb         bool
	replans, nudges int
}

// New returns an OTEM controller for the given configuration.
func New(cfg Config) (*OTEM, error) {
	//lint:ignore floatcompare the zero-value Config is the documented use-defaults sentinel; exact compare intended
	if cfg == (Config{}) {
		cfg = DefaultConfig()
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	blocks := (cfg.Horizon + cfg.BlockSize - 1) / cfg.BlockSize
	dim := blocks * inputs
	o := &OTEM{
		cfg:    cfg,
		blocks: blocks,
		warm:   make([]float64, dim),
		plan:   make([]float64, 0, dim),
		fc:     make([]float64, cfg.Horizon),
		refSoC: make([]float64, cfg.Horizon),
		refTb:  make([]float64, cfg.Horizon),
	}
	o.prob = optimize.Problem{
		Dim:   dim,
		Grad:  func(z, g []float64) { o.objectiveGrad(z, g) },
		Lower: make([]float64, dim),
		Upper: make([]float64, dim),
	}
	// Box bounds: u0 ∈ [-1, 1] (constraint C7), u1 ∈ [0, 1]. The first
	// solve starts at their midpoint.
	lower, upper := [inputs]float64{-1, 0}, [inputs]float64{1, 1}
	for b := 0; b < blocks; b++ {
		for i := 0; i < inputs; i++ {
			o.prob.Lower[b*inputs+i] = lower[i]
			o.prob.Upper[b*inputs+i] = upper[i]
			o.warm[b*inputs+i] = (lower[i] + upper[i]) / 2
		}
	}
	o.slots = 1
	if vmath.Live() {
		o.slots = maxSpec
	}
	// One backing array for the slots' keys, so extra slots add no
	// allocations.
	o.tape = make([]tapeRow, cfg.Horizon)
	keys := make([]float64, o.slots*dim)
	for j := 0; j < o.slots; j++ {
		o.tapeZ[j] = keys[j*dim : (j+1)*dim : (j+1)*dim]
	}
	return o, nil
}

// Name implements sim.Controller.
func (o *OTEM) Name() string { return "OTEM" }

// ForecastDepth implements sim.ForecastReader: the MPC consumes the whole
// window (replan pads it to the horizon), so the batched rollout must fill
// every entry.
func (o *OTEM) ForecastDepth() int { return -1 }

// Decide implements sim.Controller: execute the current plan, re-solving
// the Eq. 18/19 optimisation every ReplanInterval steps (paper Alg. 1
// lines 10–22). It is DecideGroup over a group of one lane.
func (o *OTEM) Decide(p *sim.Plant, forecast []float64) sim.Action {
	g := [1]sim.GroupLane{{Ctrl: o, Plant: p, Forecast: forecast}}
	o.DecideGroup(g[:])
	return g[0].Action
}

// dueForReplan reports whether this step re-solves: the plan is spent or
// missing, or the realized state drifted past the reference tolerances —
// the rest of the current plan then tracks a trajectory it can no longer
// reach, so it re-solves now instead of waiting out the interval.
func (o *OTEM) dueForReplan(p *sim.Plant) bool {
	if o.planValid && o.cursor < o.cfg.ReplanInterval && o.divergedFromRef(p) {
		o.planValid = false
		o.nudges++
	}
	return !o.planValid || o.cursor >= o.cfg.ReplanInterval
}

// execute returns the current plan's action for this step and advances
// the cursor.
func (o *OTEM) execute(p *sim.Plant, forecast []float64) sim.Action {
	o.stepAbs++
	b := o.blockOf(o.cursor) * inputs
	capU, coolU := o.plan[b], o.plan[b+1]
	o.cursor++

	act := sim.Action{Arch: sim.ArchHybrid}
	// Defensive clamps to the instantaneous capabilities so the plant never
	// sees an infeasible command even if the model drifted: discharging is
	// limited by the bank, charging by the battery headroom above the
	// present request.
	capBus := capU * capPowerScale
	if maxBus := 0.97 * p.HEES.CapMaxBusPower(); capBus > maxBus {
		capBus = maxBus
	}
	if capBus < 0 {
		headroom := p.HEES.BatteryMaxBusPower()*0.95 - math.Max(forecast[0], 0)
		if headroom < 0 {
			headroom = 0
		}
		if -capBus > headroom {
			capBus = -headroom
		}
	}
	act.CapBusPower = capBus

	if coolU > coolingOnThreshold {
		act.CoolingOn = true
		loop := p.Loop
		minTi := loop.MinFeasibleInlet()
		act.InletTemp = loop.CoolantTemp - coolU*(loop.CoolantTemp-minTi)
	}
	return act
}

// replan snapshots the plant, solves the horizon problem and resets the
// execution cursor: a replan group of one.
func (o *OTEM) replan(p *sim.Plant, forecast []float64) {
	o.beginReplan(p, forecast)
	g := [1]sim.GroupLane{{Ctrl: o}}
	replanGroup(g[:])
	o.endReplan()
}

// beginReplan snapshots the plant and forecast into the rollout and starts
// the ask/tell solve from the warm start; replanGroup drives it and
// endReplan takes its plan.
func (o *OTEM) beginReplan(p *sim.Plant, forecast []float64) {
	o.roll.capture(p, o.cfg)
	o.prepareRefWindow()
	o.replans++
	// The rollout state and forecast changed, so any recorded tape is stale.
	o.tapeLanes = 0
	// Pad/truncate the forecast to the horizon.
	for k := range o.fc {
		if k < len(forecast) {
			o.fc[k] = forecast[k]
		} else {
			o.fc[k] = 0
		}
	}
	o.AdvanceWarmStart(o.cursor)
	o.replanning = true
	o.started = o.ws.Start(&o.prob, o.warm, &o.cfg.Optimizer) == nil
	o.solving = o.started
}

// endReplan installs the finished solve's plan, which also becomes the
// next warm start, and resets the cursor.
func (o *OTEM) endReplan() {
	o.replanning = false
	// The buffer was sized to the decision dimension at construction, so
	// this reslice never grows it (replan is on the warm PlanTrip path and
	// must stay allocation-free).
	o.plan = o.plan[:o.prob.Dim]
	if o.started {
		copy(o.warm, o.ws.Result().X)
		copy(o.plan, o.warm)
	} else {
		// A validated config never fails to start; fall back to a
		// do-nothing hybrid action (battery carries everything).
		for i := range o.plan {
			o.plan[i] = 0
		}
	}
	o.planValid = true
	o.cursor = 0
}

// blockOf returns the move block of horizon step k; steps past the
// horizon hold the last block.
func (o *OTEM) blockOf(k int) int { return min(k/o.cfg.BlockSize, o.blocks-1) }

// AdvanceWarmStart shifts the warm start forward by n executed horizon
// steps (receding horizon): whole executed blocks are dropped and the
// tail is padded by repeating the last block. Fewer steps than a block
// leave it unchanged; a shift past the horizon leaves every block equal
// to the last. Every replan shifts by the steps executed since the last
// one; PlanTrip callers call it when the trip window has moved forward.
func (o *OTEM) AdvanceWarmStart(n int) {
	shift := min(n/o.cfg.BlockSize, o.blocks-1)
	if shift <= 0 {
		return
	}
	copy(o.warm, o.warm[shift*inputs:])
	last := o.warm[(o.blocks-shift-1)*inputs : (o.blocks-shift)*inputs]
	for b := o.blocks - shift; b < o.blocks; b++ {
		copy(o.warm[b*inputs:(b+1)*inputs], last)
	}
}

// objective is the single-shooting cost of the blocked decision vector z:
// a one-lane forward pass into slot 0, column 0 of the controller's own
// tape (gradient.go has the rollout and the adjoint).
func (o *OTEM) objective(z []float64) float64 {
	lane := [1]fwdLane{{o: o, z: z}}
	objectiveFwd(lane[:])
	return o.tapeCost[0]
}

// tapeLane returns the slot recorded at exactly this z in the current
// replan whose tape column no later call has overwritten, or -1.
func (o *OTEM) tapeLane(z []float64) int {
	for j := 0; j < o.tapeLanes; j++ {
		if o.tapeOwner[j].tapeGen == o.tapeGenAt[j] && sameVector(o.tapeZ[j], z) {
			return j
		}
	}
	return -1
}

// sameVector reports whether a and b hold the same bits.
func sameVector(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		//lint:ignore floatcompare the tape is reusable only for the bit-identical decision vector; exact compare intended
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// rollout caches everything the objective needs from the plant as plain
// scalars, so each evaluation is allocation-free.
type rollout struct {
	// Initial state.
	soc, soe, tb, tc float64
	dt               float64

	// Battery aggregates.
	cell         battery.CellParams
	agingPow     battery.Pow // cell.L[2] split once per capture
	cells        float64     // total cell count
	parallel     float64
	cellOCVScale float64 // series count
	packResScale float64 // series/parallel
	packCapC     float64 // pack capacity in coulombs
	packMaxI     float64
	battMinSoC   float64
	safeTemp     float64

	// Ultracapacitor aggregates.
	capBusV   float64
	capESR    float64
	capC7     float64
	capEnergy float64
	capMinSoE float64

	// Converters.
	battConv, capConv converter.Params

	// Cooling.
	cool                     cooling.Params
	battHeatCap, coolHeatCap float64
	flow, coolEff            float64
	coolerMax, pump          float64
	minInlet                 float64
	ambientCoupling          float64
	ambient                  float64

	// cnc caches the Crank–Nicolson coefficients (they depend only on the
	// captured cooling params and dt, so one computation per capture serves
	// every objective/adjoint evaluation of the replan).
	cnc cnCoef
}

func (r *rollout) capture(p *sim.Plant, cfg Config) {
	b := p.HEES.Battery
	c := p.HEES.Cap

	r.soc = b.SoC
	r.soe = c.SoE
	r.tb = p.Loop.BatteryTemp
	r.tc = p.Loop.CoolantTemp
	r.dt = p.DT

	r.cell = b.Cell
	r.cells = float64(b.CellCount())
	r.parallel = float64(b.Parallel)
	r.cellOCVScale = float64(b.Series)
	r.packResScale = float64(b.Series) / float64(b.Parallel)
	r.packCapC = units.AhToCoulomb(b.CapacityAh())
	r.packMaxI = b.MaxCurrent()
	r.battMinSoC = b.Cell.MinSoC
	r.safeTemp = b.Cell.SafeTemp

	r.capBusV = c.Params.BusVoltage
	r.capESR = c.Params.ESR
	r.capC7 = c.Params.MaxPower
	r.capEnergy = c.Params.EnergyCapacity()
	r.capMinSoE = c.Params.MinSoE

	r.battConv = p.HEES.BattConv
	r.capConv = p.HEES.CapConv

	r.cool = p.Loop.Params
	r.battHeatCap = p.Loop.Params.BatteryHeatCapacity
	r.coolHeatCap = p.Loop.Params.CoolantHeatCapacity
	r.flow = p.Loop.Params.FlowHeatRate
	r.coolEff = p.Loop.Params.CoolerEfficiency
	r.coolerMax = p.Loop.Params.MaxCoolerPower
	r.pump = p.Loop.Params.PumpPower
	r.minInlet = p.Loop.Params.MinInletTemp
	r.ambientCoupling = p.Loop.Params.AmbientCoupling
	r.ambient = p.Ambient
	r.cnc = r.cn(r.dt)
	r.agingPow = battery.NewPow(r.cell.L[2])
}

var _ sim.Controller = (*OTEM)(nil)
