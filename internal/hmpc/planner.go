package hmpc

import (
	"math"

	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/sim"
)

// Planner is the outer scheduling layer: a coarse-grid OTEM instance (one
// decision block per BlockSeconds, Δt = BlockSeconds) solved over the
// whole remaining trip, whose predicted state trajectory becomes the
// inner layer's Reference. All buffers are preallocated at construction;
// the warm Replan path is allocation-free, which allocflow proves via the
// hotpath annotation.
//
// A Planner is single-goroutine state, like the core.OTEM it wraps.
type Planner struct {
	spec       Spec // Resolved
	preview    []float64
	steps      int
	innerDT    float64
	blockSteps int
	blocks     int

	coarse *core.OTEM
	cplant *sim.Plant
	fc     []float64       // per-block mean of the remaining preview
	traj   core.Trajectory // block-end states of the last solve
	ref    core.Reference  // per-inner-step references, rewritten in place
	plan   []float64       // last coarse decision vector (aliases coarse's buffer)

	lastStep int // inner step of the last outer replan
	replans  int
}

// NewPlanner builds the outer layer for a resolved spec: preview is the
// per-inner-step expected power series (Route.Preview), plantCfg the real
// plant's configuration — the coarse clone copies it with Δt stretched to
// the block length.
func NewPlanner(spec Spec, preview []float64, plantCfg sim.PlantConfig) (*Planner, error) {
	spec = spec.Resolved()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	plantCfg = plantCfg.Defaults()
	steps := len(preview)

	blockSteps := int(math.Round(spec.BlockSeconds / plantCfg.DT))
	if blockSteps < 1 {
		blockSteps = 1
	}
	blocks := (steps + blockSteps - 1) / blockSteps
	if blocks < 1 {
		blocks = 1
	}
	if blocks > spec.MaxBlocks {
		blocks = spec.MaxBlocks
	}

	// The coarse clone plant: same pack, bank, converters and cooling
	// loop, integrated on the block grid. Replan overwrites its state
	// from the realized plant, so the configured initial state is
	// irrelevant.
	coarseCfg := plantCfg
	coarseCfg.DT = plantCfg.DT * float64(blockSteps)
	cplant, err := sim.NewPlant(coarseCfg)
	if err != nil {
		return nil, err
	}

	// The outer solver is core.OTEM itself with one block per step: the
	// paper-default weights price cooling energy, aging and HEES energy
	// per block exactly as the inner cost does per second (every running
	// term scales with Δt). The longer horizon gets a higher iteration
	// budget; the warm mid-route replans converge in far fewer.
	outerCfg := core.DefaultConfig()
	outerCfg.Horizon = blocks
	outerCfg.BlockSize = 1
	outerCfg.ReplanInterval = 1
	outerCfg.Optimizer.MaxIterations = 60
	coarse, err := core.New(outerCfg)
	if err != nil {
		return nil, err
	}

	return &Planner{
		spec:       spec,
		preview:    preview,
		steps:      steps,
		innerDT:    plantCfg.DT,
		blockSteps: blockSteps,
		blocks:     blocks,
		coarse:     coarse,
		cplant:     cplant,
		fc:         make([]float64, blocks),
		traj: core.Trajectory{
			SoC:          make([]float64, blocks),
			SoE:          make([]float64, blocks),
			BatteryTempK: make([]float64, blocks),
			CoolantTempK: make([]float64, blocks),
		},
		ref: core.Reference{
			SoC:      make([]float64, steps),
			TempK:    make([]float64, steps),
			SoCTol:   spec.SoCTol,
			TempTolK: spec.TempTolK,
		},
	}, nil
}

// Reference returns the trajectory the inner controller tracks; its
// slices are rewritten in place by Replan.
func (pl *Planner) Reference() *core.Reference { return &pl.ref }

// Replans reports how many outer solves have run.
func (pl *Planner) Replans() int { return pl.replans }

// syncState copies the realized plant state into the coarse clone, the
// initial condition of the outer solve.
func (pl *Planner) syncState(p *sim.Plant) {
	pl.cplant.HEES.Battery.SoC = p.HEES.Battery.SoC
	pl.cplant.HEES.Battery.Temp = p.Loop.BatteryTemp
	pl.cplant.HEES.Cap.SoE = p.HEES.Cap.SoE
	pl.cplant.Loop.BatteryTemp = p.Loop.BatteryTemp
	pl.cplant.Loop.CoolantTemp = p.Loop.CoolantTemp
}

// Replan re-solves the outer problem over the remaining trip from the
// realized plant state at inner step `step`, then rewrites the shared
// reference trajectories in place — the next inner replan tracks the new
// schedule without any further wiring. Warm mid-route replans reuse the
// previous outer solution shifted by the executed blocks.
//
//lint:hotpath the warm outer replan fires mid-route on the divergence trigger; allocflow proves it allocation-free
func (pl *Planner) Replan(p *sim.Plant, step int) error {
	if shift := (step - pl.lastStep) / pl.blockSteps; shift > 0 {
		pl.coarse.AdvanceWarmStart(shift)
	}
	pl.lastStep = step
	pl.syncState(p)

	// Per-block mean of the remaining preview, zero past the route end
	// (consistent with the simulator's zero-padded forecasts).
	for b := 0; b < pl.blocks; b++ {
		lo := step + b*pl.blockSteps
		var sum float64
		for j := lo; j < lo+pl.blockSteps && j < pl.steps; j++ {
			sum += pl.preview[j]
		}
		pl.fc[b] = sum / float64(pl.blockSteps)
	}

	plan, err := pl.coarse.PlanTrip(pl.cplant, pl.fc, &pl.traj)
	if err != nil {
		return err
	}
	pl.plan = plan
	pl.expandRefs(p, step)
	pl.replans++
	return nil
}

// expandRefs linearly interpolates the block-end states into per-step
// references from `step` onward, holding the final block state to the end
// of the route. Entries before `step` are in the past and stay untouched.
func (pl *Planner) expandRefs(p *sim.Plant, step int) {
	s0 := p.HEES.Battery.SoC
	t0 := p.Loop.BatteryTemp
	for b := 0; b < pl.blocks; b++ {
		s1 := pl.traj.SoC[b]
		t1 := pl.traj.BatteryTempK[b]
		for j := 0; j < pl.blockSteps; j++ {
			i := step + b*pl.blockSteps + j
			if i >= pl.steps {
				return
			}
			f := float64(j+1) / float64(pl.blockSteps)
			pl.ref.SoC[i] = s0 + (s1-s0)*f
			pl.ref.TempK[i] = t0 + (t1-t0)*f
		}
		s0, t0 = s1, t1
	}
	for i := step + pl.blocks*pl.blockSteps; i < pl.steps; i++ {
		pl.ref.SoC[i] = s0
		pl.ref.TempK[i] = t0
	}
}

// Plan is the wire-level snapshot of an outer solve: the block-boundary
// reference trajectories plus the coarse decisions, the payload of
// otem-serve's POST /v1/plan and the otem.plan/v1 JSON schema.
type Plan struct {
	// Spec is the canonical spec encoding that produced the plan (the
	// plan-cache key).
	Spec string
	// BlockSeconds and Blocks describe the coarse grid.
	BlockSeconds float64
	Blocks       int
	// Steps is the number of inner steps the plan covers.
	Steps int
	// SoC, SoE and TempK are the block-boundary state trajectories,
	// length Blocks+1: the initial state followed by each block-end state.
	SoC, SoE, TempK []float64
	// CapU and CoolU are the coarse decisions per block: normalised
	// ultracapacitor bus power in [-1, 1] and cooling intensity in [0, 1].
	CapU, CoolU []float64
}

// Snapshot renders the last outer solve as a Plan. It allocates; the hot
// path never calls it.
func (pl *Planner) Snapshot() *Plan {
	p := &Plan{
		Spec:         canon.String(pl.spec),
		BlockSeconds: pl.innerDT * float64(pl.blockSteps),
		Blocks:       pl.blocks,
		Steps:        pl.steps,
		SoC:          make([]float64, 0, pl.blocks+1),
		SoE:          make([]float64, 0, pl.blocks+1),
		TempK:        make([]float64, 0, pl.blocks+1),
		CapU:         make([]float64, 0, pl.blocks),
		CoolU:        make([]float64, 0, pl.blocks),
	}
	p.SoC = append(p.SoC, pl.cplant.HEES.Battery.SoC)
	p.SoE = append(p.SoE, pl.cplant.HEES.Cap.SoE)
	p.TempK = append(p.TempK, pl.cplant.Loop.BatteryTemp)
	for b := 0; b < pl.blocks; b++ {
		p.SoC = append(p.SoC, pl.traj.SoC[b])
		p.SoE = append(p.SoE, pl.traj.SoE[b])
		p.TempK = append(p.TempK, pl.traj.BatteryTempK[b])
		// One block per coarse step and two inputs per step, so the
		// decision vector is laid out [capU₀ coolU₀ capU₁ coolU₁ …].
		p.CapU = append(p.CapU, pl.plan[2*b])
		p.CoolU = append(p.CoolU, pl.plan[2*b+1])
	}
	return p
}
