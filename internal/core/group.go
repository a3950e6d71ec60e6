package core

import (
	"repro/internal/optimize"
	"repro/internal/sim"
	"repro/internal/vmath"
)

// This file packs the replans of many vehicles into shared lockstep
// rollouts. Every lane of a sim.RunBatch that is due to replan on a step
// runs its own ask/tell solve (mpc.Planner over optimize.Workspace); the
// solves advance together in rounds, and each round evaluates every
// unfinished vehicle's next trial in one objectiveFwd call. A vehicle that
// finishes drops out of the rounds. Each vehicle's solver sees exactly the
// values its solo replan sees — the rollout lanes are independent and
// bit-identical to single-lane calls, and Tell counts only the sequential
// evaluations — so packing changes how fast a plan is found, never which.

const (
	// laneBudget is the widest lockstep rollout: the two four-lane
	// groups of the state sweep's kernel. On a 2-vCPU Xeon,
	// BenchmarkObjectiveLanes reads about 3.8 µs per lane at 8 lanes, as
	// at 4, against about 7.8 µs for a lane alone (DESIGN.md §9, §10).
	// A round of fewer trials is topped up with speculative ones up to
	// it.
	laneBudget = 8
	// maxSpec is the most trials one vehicle puts into a round: one Ask's
	// optimize.BatchWidth, and the number of tape slots that needs. A
	// vehicle alone therefore runs a line search's first trial alone and
	// then up to maxSpec trials per round.
	maxSpec = optimize.BatchWidth
)

// packStats counts a class leader's packing work: the replan groups it led,
// their rounds, the objectiveFwd calls of those rounds and the lanes of
// those calls.
type packStats struct {
	groups, rounds, calls, lanes int
}

// DecideGroup implements sim.GroupDecider: every lane whose controller is
// an *OTEM is decided exactly as its own Decide would decide it, and the
// lanes due to replan on this step solve together (replanGroup). Lanes
// with other controllers are decided through their own Decide.
//
//lint:hotpath the batched fleet rollout decides every OTEM lane here each step; allocflow proves it allocation-free
func (*OTEM) DecideGroup(lanes []sim.GroupLane) {
	for i := range lanes {
		ln := &lanes[i]
		c, ok := ln.Ctrl.(*OTEM)
		if !ok {
			ln.Action = ln.Ctrl.Decide(ln.Plant, ln.Forecast)
			continue
		}
		if c.dueForReplan(ln.Plant) {
			c.beginReplan(ln.Plant, ln.Forecast)
		}
	}
	replanGroup(lanes)
	for i := range lanes {
		ln := &lanes[i]
		if c, ok := ln.Ctrl.(*OTEM); ok {
			if c.replanning {
				c.endReplan()
			}
			ln.Action = c.execute(ln.Plant, ln.Forecast)
		}
	}
}

// otemAt returns lane i's controller if it is an *OTEM with a replan
// begun, else nil.
func otemAt(lanes []sim.GroupLane, i int) *OTEM {
	c, ok := lanes[i].Ctrl.(*OTEM)
	if !ok || !c.replanning {
		return nil
	}
	return c
}

// replanGroup runs the begun solves of the group to completion. The
// replanning controllers are split into classes of equal Config, since the
// lanes of one rollout share its horizon, blocking and weights; each class
// is led by its first lane and advances one round at a time until every
// member is done.
func replanGroup(lanes []sim.GroupLane) {
	assignLeads(lanes)
	for i := range lanes {
		if c := otemAt(lanes, i); c != nil && c.lead == c {
			for c.packRound(lanes[i:]) {
			}
		}
	}
}

// assignLeads points every replanning controller at its class leader: the
// first replanning lane with an equal Config.
func assignLeads(lanes []sim.GroupLane) {
	for i := range lanes {
		c := otemAt(lanes, i)
		if c == nil {
			continue
		}
		c.lead = c
		for j := 0; j < i; j++ {
			//lint:ignore floatcompare lanes pack only with bit-identical configurations; exact compare intended
			if d := otemAt(lanes, j); d != nil && d.lead == d && d.cfg == c.cfg {
				c.lead = d
				break
			}
		}
		if c.lead == c {
			c.stats.groups++
		}
	}
}

// member returns lane i's controller if it is a solving member of lead's
// class, else nil.
func (lead *OTEM) member(lanes []sim.GroupLane, i int) *OTEM {
	c := otemAt(lanes, i)
	if c == nil || c.lead != lead || !c.solving {
		return nil
	}
	return c
}

// packRound advances every solving member of lead's class (lanes starts
// at the leader) by one ask/tell round and reports whether any was
// solving. Each member asks for its next sequential trial. When that makes
// fewer than laneBudget trials and vmath's vector exp is live, members
// past a rejected trial raise their budget one trial at a time, round
// robin in lane order, up to their tape slots, until the round holds
// laneBudget. The trials go through objectiveFwd in calls of at most
// laneBudget lanes, split evenly, and every member tells its values back.
//
//lint:hotpath one round per trial of every replan group; allocflow proves it allocation-free
func (lead *OTEM) packRound(lanes []sim.GroupLane) bool {
	p := 0
	for i := range lanes {
		if c := lead.member(lanes, i); c != nil {
			c.budget = 1
			p++
		}
	}
	if p == 0 {
		return false
	}
	if p < laneBudget && vmath.Live() {
		for spare := laneBudget - p; spare > 0; {
			added := false
			for i := range lanes {
				c := lead.member(lanes, i)
				if c == nil || c.budget >= c.slots || !c.planner.Backtracking() {
					continue
				}
				c.budget++
				added = true
				if spare--; spare == 0 {
					break
				}
			}
			if !added {
				break
			}
		}
	}
	// A round is topped up only below laneBudget, so one bigger than that
	// asks one trial per member and p bounds it.
	per := laneBudget
	if p > laneBudget {
		calls := (p + laneBudget - 1) / laneBudget
		per = (p + calls - 1) / calls
	}

	lead.stats.rounds++
	var call [laneBudget]fwdLane
	n := 0
	for i := range lanes {
		c := lead.member(lanes, i)
		if c == nil {
			continue
		}
		pts := c.planner.Ask(c.budget)
		c.asked = len(pts)
		if len(pts) == 0 {
			c.solving = false
			continue
		}
		if n+len(pts) > per {
			lead.flush(call[:n])
			n = 0
		}
		for s, z := range pts {
			call[n] = fwdLane{o: c, slot: s, z: z}
			n++
		}
	}
	if n > 0 {
		lead.flush(call[:n])
	}
	for i := range lanes {
		c := lead.member(lanes, i)
		if c == nil || c.asked == 0 {
			continue
		}
		c.planner.Tell(c.tapeCost[:c.asked])
		c.asked = 0
		if c.planner.Done() {
			c.solving = false
		}
	}
	return true
}

// flush evaluates one packed call and counts it.
func (lead *OTEM) flush(call []fwdLane) {
	objectiveFwd(call)
	lead.stats.calls++
	lead.stats.lanes += len(call)
}

var _ sim.GroupDecider = (*OTEM)(nil)
