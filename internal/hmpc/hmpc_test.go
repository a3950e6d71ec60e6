package hmpc

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/canon"
	"repro/internal/drivecycle"
	"repro/internal/fleet"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/vehicle"
)

func TestSpecCanonicalStable(t *testing.T) {
	// The canonical encoding is a cache key: defaults must be folded in so
	// an empty spec and a spelled-out default spec share one entry.
	empty := canon.String(Spec{})
	spelled := canon.String(Spec{
		Usage: "commuter", Seed: 1, RouteSeconds: 900, Repeats: 1,
		UltracapF: 25000, AmbientK: 298, Horizon: 40, BlockSeconds: 30, MaxBlocks: 64,
	})
	if empty != spelled {
		t.Fatalf("defaulted encodings differ:\n%s\n%s", empty, spelled)
	}
	if !strings.HasPrefix(empty, "otem.hmpc|") {
		t.Fatalf("canonical prefix wrong: %s", empty)
	}
	// Negative (explicitly-off) weights must encode differently from the
	// defaults, or collapsed runs would collide with tracked runs.
	off := canon.String(Spec{SoCRefWeight: -1})
	if off == empty {
		t.Fatal("disabled tracking weight encodes identically to the default")
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{Usage: "aviation"},
		{RouteSeconds: 10},
		{Repeats: 99},
		{AmbientK: 100},
		// A negative value within floats.Eps of zero is not a request for
		// the default.
		{Cycle: "UDDS", UltracapF: -5e-10, AmbientK: -1e-10, BlockSeconds: -1e-10},
		{Cycle: "UDDS", AmbientK: -1e-10},
		{Cycle: "UDDS", BlockSeconds: -1e-10},
		{Usage: "commuter", RouteSeconds: -1e-10},
		{BlockSeconds: 0.25},
		{MaxBlocks: 1000},
		{RouteSeconds: math.NaN()},
		{RouteSeconds: math.Inf(1)},
		{UltracapF: math.NaN()},
		{UltracapF: math.Inf(1)},
		{AmbientK: math.NaN()},
		{AmbientK: math.Inf(1)},
		{BlockSeconds: math.NaN()},
		{BlockSeconds: math.Inf(1)},
		{SoCRefWeight: math.NaN()},
		{TempRefWeight: math.Inf(1)},
		{SoCTol: math.NaN()},
		{TempTolK: math.Inf(-1)},
		{OuterSoCTol: math.NaN()},
		{OuterTempTolK: math.Inf(1)},
	}
	for i, s := range bad {
		if err := s.Resolved().Validate(); err == nil {
			t.Errorf("spec %d: expected validation error", i)
		}
	}
	if err := (Spec{}).Resolved().Validate(); err != nil {
		t.Fatalf("zero spec must validate after defaults: %v", err)
	}
	off := Spec{SoCRefWeight: -1, TempRefWeight: -1, SoCTol: -1, TempTolK: -1, OuterSoCTol: -1, OuterTempTolK: -1}
	if err := off.Resolved().Validate(); err != nil {
		t.Fatalf("negative (off) tunables must validate: %v", err)
	}
}

// FuzzSpecResolved holds the two spec resolvers, Spec.Resolved and
// fleet.Spec.Resolved, to their contract on any input: resolving twice
// changes nothing, every zero field takes the default the zero spec
// resolves to, a negative offable tunable stays negative (off), and
// Validate judges a spec and its Resolved form alike. The fleet spec
// shares the route, bank and horizon arguments; its horizon is folded
// into [-1000, 1000], the serve limit, since its Validate builds a
// controller of that horizon.
func FuzzSpecResolved(f *testing.F) {
	f.Add("", "", int64(0), 0.0, 0, 0.0, 0.0, 0, 0.0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0, 0, "", 0)
	f.Add("UDDS", "highway", int64(9), 300.0, 2, 25000.0, 298.0, 40, 30.0, 1, -1.0, -1.0, -1.0, -1.0, -1.0, -1.0, 50, 3, "Parallel", 256)
	f.Add("", "delivery", int64(-3), 5e-10, -1, -5e-10, 1e-10, -2, 0.25, 1000, -1e-10, 1e-10, 0.0, -5e-10, math.Copysign(0, -1), 3.0, -1, -1, "Nonsense", -3)
	f.Fuzz(func(t *testing.T, cycle, usage string, seed int64, routeS float64, repeats int, ucapF, ambientK float64,
		horizon int, blockS float64, maxBlocks int, wSoC, wTemp, tolSoC, tolTemp, outerSoC, outerTemp float64,
		vehicles, days int, method string, sketchK int) {
		raw := Spec{
			Cycle: cycle, Usage: usage, Seed: seed, RouteSeconds: routeS, Repeats: repeats,
			UltracapF: ucapF, AmbientK: ambientK, Horizon: horizon, BlockSeconds: blockS, MaxBlocks: maxBlocks,
			SoCRefWeight: wSoC, TempRefWeight: wTemp, SoCTol: tolSoC, TempTolK: tolTemp,
			OuterSoCTol: outerSoC, OuterTempTolK: outerTemp,
		}
		res := raw.Resolved()
		checkResolved(t, raw, res, res.Resolved(), Spec{Cycle: cycle}.Resolved(), raw.Validate(), res.Validate())
		for _, off := range [][2]float64{
			{raw.SoCRefWeight, res.SoCRefWeight}, {raw.TempRefWeight, res.TempRefWeight},
			{raw.SoCTol, res.SoCTol}, {raw.TempTolK, res.TempTolK},
			{raw.OuterSoCTol, res.OuterSoCTol}, {raw.OuterTempTolK, res.OuterTempTolK},
		} {
			if off[0] < 0 && math.Float64bits(off[1]) != math.Float64bits(off[0]) {
				t.Errorf("negative (off) tunable %g resolved to %g", off[0], off[1])
			}
		}

		fraw := fleet.Spec{
			Vehicles: vehicles, Days: days, Seed: seed, Method: policy.Methodology(method),
			UltracapF: ucapF, RouteSeconds: routeS, Horizon: horizon % 1001, SketchK: sketchK,
		}
		fres := fraw.Resolved()
		checkResolved(t, fraw, fres, fres.Resolved(), fleet.Spec{}.Resolved(), fraw.Validate(), fres.Validate())
	})
}

// checkResolved asserts the resolver properties shared by both specs:
// resolved and twice are bit-identical (Resolved is idempotent), each
// field that is zero in raw (a float equal to ±0) holds def's value in
// resolved, and raw and resolved validate alike (errRaw, errRes).
func checkResolved(t *testing.T, raw, resolved, twice, def any, errRaw, errRes error) {
	t.Helper()
	if a, b := fmt.Sprintf("%#v", resolved), fmt.Sprintf("%#v", twice); a != b {
		t.Errorf("Resolved is not idempotent:\n once %s\ntwice %s", a, b)
	}
	rv, res, dv := reflect.ValueOf(raw), reflect.ValueOf(resolved), reflect.ValueOf(def)
	for i := 0; i < rv.NumField(); i++ {
		f := rv.Field(i)
		zero := f.IsZero() || (f.Kind() == reflect.Float64 && f.Float() == 0)
		if got, want := fmt.Sprintf("%#v", res.Field(i)), fmt.Sprintf("%#v", dv.Field(i)); zero && got != want {
			t.Errorf("%T: zero %s resolved to %s, want the default %s", raw, rv.Type().Field(i).Name, got, want)
		}
	}
	if a, b := fmt.Sprint(errRaw), fmt.Sprint(errRes); a != b {
		t.Errorf("%T: Validate(raw) = %s, Validate(resolved) = %s", raw, a, b)
	}
}

func TestRoutePreviewConservesEnergy(t *testing.T) {
	// The segment preview loses burst timing, not energy: its integral
	// must match the realized power series' integral almost exactly
	// (segment means times segment durations).
	c, err := drivecycle.ByName("UDDS")
	if err != nil {
		t.Fatal(err)
	}
	p := vehicle.MidSizeEV()
	requests := p.PowerSeriesAt(c, 308)
	route := RouteFromCycle(c, p, 30, 308)
	preview := route.Preview(p, c.DT, nil)
	if len(preview) != len(requests) {
		t.Fatalf("preview length %d != requests %d", len(preview), len(requests))
	}
	var eReq, ePrev float64
	for i := range requests {
		eReq += requests[i] * c.DT
		ePrev += preview[i] * c.DT
	}
	if rel := math.Abs(eReq-ePrev) / math.Abs(eReq); rel > 1e-9 {
		t.Fatalf("preview energy %.6e deviates from realized %.6e (rel %.2e)", ePrev, eReq, rel)
	}
	// And it must genuinely be coarser: the preview's peak is well below
	// the realized peak on a stop-and-go cycle.
	var maxReq, maxPrev float64
	for i := range requests {
		maxReq = math.Max(maxReq, requests[i])
		maxPrev = math.Max(maxPrev, preview[i])
	}
	if maxPrev >= maxReq {
		t.Fatalf("segment preview peak %.0f not below realized peak %.0f", maxPrev, maxReq)
	}
}

func TestSegmentModelPower(t *testing.T) {
	p := vehicle.MidSizeEV()
	r := Route{AmbientK: 308, Segments: []Segment{{Seconds: 60, MeanSpeed: 25}}}
	flat := r.segmentPower(p, r.Segments[0])
	r.Segments[0].GradePct = 5
	climb := r.segmentPower(p, r.Segments[0])
	if climb <= flat {
		t.Fatalf("5%% grade power %.0f not above flat %.0f", climb, flat)
	}
	r.Segments[0].GradePct = -5
	descent := r.segmentPower(p, r.Segments[0])
	if descent >= flat {
		t.Fatalf("-5%% grade power %.0f not below flat %.0f", descent, flat)
	}
	// A carried MeanPowerW wins over the model.
	r.Segments[0].MeanPowerW = 1234
	if got := r.segmentPower(p, r.Segments[0]); got != 1234 {
		t.Fatalf("MeanPowerW not honoured: %v", got)
	}
}

func buildPlanner(t *testing.T, spec Spec) (*Planner, *sim.Plant) {
	t.Helper()
	spec = spec.Resolved()
	cycle, err := spec.route()
	if err != nil {
		t.Fatal(err)
	}
	p := vehicle.MidSizeEV()
	route := RouteFromCycle(cycle, p, spec.BlockSeconds, spec.AmbientK)
	preview := route.Preview(p, cycle.DT, nil)
	plantCfg := sim.PlantConfig{UltracapF: spec.UltracapF, Ambient: spec.AmbientK, DT: cycle.DT}
	plant, err := sim.NewPlant(plantCfg)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewPlanner(spec, preview, plantCfg)
	if err != nil {
		t.Fatal(err)
	}
	return pl, plant
}

func TestPlannerReplanFillsReferences(t *testing.T) {
	pl, plant := buildPlanner(t, Spec{Usage: "highway", RouteSeconds: 600, AmbientK: 308})
	if err := pl.Replan(plant, 0); err != nil {
		t.Fatal(err)
	}
	ref := pl.Reference()
	if len(ref.SoC) != pl.steps || len(ref.TempK) != pl.steps {
		t.Fatalf("reference lengths %d/%d != steps %d", len(ref.SoC), len(ref.TempK), pl.steps)
	}
	for i := 0; i < pl.steps; i++ {
		if ref.SoC[i] <= 0 || ref.SoC[i] > 1 {
			t.Fatalf("step %d: reference SoC %v outside (0, 1]", i, ref.SoC[i])
		}
		if ref.TempK[i] < 270 || ref.TempK[i] > 340 {
			t.Fatalf("step %d: reference temp %v K unphysical", i, ref.TempK[i])
		}
	}
	// The schedule must drain monotonically-ish from the initial SoC: the
	// battery only discharges on a positive-power route, so the reference
	// at the end is below the start.
	if ref.SoC[pl.steps-1] >= plant.HEES.Battery.SoC {
		t.Fatalf("terminal reference SoC %v not below initial %v", ref.SoC[pl.steps-1], plant.HEES.Battery.SoC)
	}

	snap := pl.Snapshot()
	if snap.Blocks != pl.blocks || snap.Steps != pl.steps {
		t.Fatalf("snapshot geometry %d/%d != planner %d/%d", snap.Blocks, snap.Steps, pl.blocks, pl.steps)
	}
	if len(snap.SoC) != pl.blocks+1 || len(snap.CapU) != pl.blocks {
		t.Fatalf("snapshot lengths: soc %d capU %d for %d blocks", len(snap.SoC), len(snap.CapU), pl.blocks)
	}
	if snap.Spec != canon.String(pl.spec) {
		t.Fatalf("snapshot spec %q != canonical %q", snap.Spec, canon.String(pl.spec))
	}
	for b, u := range snap.CapU {
		if u < -1.0001 || u > 1.0001 || snap.CoolU[b] < -1e-9 || snap.CoolU[b] > 1.0001 {
			t.Fatalf("block %d: decisions out of bounds capU=%v coolU=%v", b, u, snap.CoolU[b])
		}
	}
}

func TestPlannerWarmReplanAllocsZero(t *testing.T) {
	pl, plant := buildPlanner(t, Spec{Usage: "commuter", RouteSeconds: 600, AmbientK: 305})
	if err := pl.Replan(plant, 0); err != nil {
		t.Fatal(err)
	}
	step := 0
	allocs := testing.AllocsPerRun(8, func() {
		step += pl.blockSteps
		plant.HEES.Battery.SoC -= 2e-4
		plant.Loop.BatteryTemp += 0.05
		if err := pl.Replan(plant, step); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm outer Replan allocates %.1f times per call", allocs)
	}
}

func TestRunHierarchical(t *testing.T) {
	spec := Spec{Usage: "highway", RouteSeconds: 600, AmbientK: 308}
	res, err := Run(context.Background(), spec, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 600 {
		t.Fatalf("steps %d != 600", res.Steps)
	}
	if res.Plan == nil || res.Plan.Blocks < 2 {
		t.Fatalf("missing or degenerate outer plan: %+v", res.Plan)
	}
	if res.OuterReplans < 1 {
		t.Fatal("route-start outer plan not counted")
	}
	if res.InnerReplans < res.Steps/8 {
		t.Fatalf("implausibly few inner replans: %d", res.InnerReplans)
	}
	if res.QlossPct <= 0 || res.HEESEnergyJ <= 0 || res.MaxBatteryTemp < res.Result.AvgBatteryTemp {
		t.Fatalf("unphysical result: %+v", res.Result)
	}
	if res.Controller != "HMPC" {
		t.Fatalf("controller name %q", res.Controller)
	}
}

func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, Spec{Usage: "commuter", RouteSeconds: 300}, sim.Config{}); err == nil {
		t.Fatal("expected cancellation error")
	}
}
