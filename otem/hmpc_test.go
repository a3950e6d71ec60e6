package otem_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/drivecycle"
	"repro/otem"
)

// goldenPlanSpec is a small deterministic route for the plan schema tests:
// a registered cycle so no synthesis is involved, hot enough that the
// cooling decisions are non-trivial.
func goldenPlanSpec() otem.PlanSpec {
	return otem.PlanSpec{Cycle: "NYCC", AmbientK: 308}
}

// TestPlanJSONGolden pins the otem.plan/v1 wire schema: field set, json
// tags, value formatting and the schema version string. A diff here is a
// wire-format break — if it is intentional, bump PlanSchemaVersion and
// regenerate with `go test ./otem -run PlanJSONGolden -update`.
func TestPlanJSONGolden(t *testing.T) {
	plan, err := otem.PlanRoute(goldenPlanSpec())
	if err != nil {
		t.Fatalf("PlanRoute: %v", err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(otem.EncodePlan(plan)); err != nil {
		t.Fatalf("encode: %v", err)
	}
	path := filepath.Join("testdata", "plan_v1.golden.json")
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("stable JSON schema drifted from golden file %s\n-- got --\n%s\n-- want --\n%s",
			path, buf.Bytes(), want)
	}
}

// TestEncodePlanSchemaInvariants checks what the golden file cannot: the
// version constant, the spec linkage that makes the plan cacheable,
// geometry consistency and lossless round-tripping through the json tags.
func TestEncodePlanSchemaInvariants(t *testing.T) {
	spec := goldenPlanSpec()
	plan, err := otem.PlanRoute(spec)
	if err != nil {
		t.Fatalf("PlanRoute: %v", err)
	}
	wire := otem.EncodePlan(plan)
	if wire.Schema != otem.PlanSchemaVersion {
		t.Errorf("Schema = %q, want %q", wire.Schema, otem.PlanSchemaVersion)
	}
	if wire.Spec != otem.Canonical(spec) {
		t.Errorf("Spec = %q, want the canonical encoding %q", wire.Spec, otem.Canonical(spec))
	}
	if len(wire.SoC) != wire.Blocks+1 || len(wire.SoE) != wire.Blocks+1 ||
		len(wire.TempKelvin) != wire.Blocks+1 ||
		len(wire.CapU) != wire.Blocks || len(wire.CoolU) != wire.Blocks {
		t.Errorf("trajectory/decision lengths inconsistent with Blocks=%d: soc=%d soe=%d temp=%d capU=%d coolU=%d",
			wire.Blocks, len(wire.SoC), len(wire.SoE), len(wire.TempKelvin), len(wire.CapU), len(wire.CoolU))
	}

	raw, err := json.Marshal(wire)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back otem.PlanJSON
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(back, wire) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", back, wire)
	}
}

// TestPlanRouteDeterministic is the cacheability contract of POST
// /v1/plan: the same spec always yields the same plan, byte for byte.
func TestPlanRouteDeterministic(t *testing.T) {
	a, err := otem.PlanRoute(goldenPlanSpec())
	if err != nil {
		t.Fatalf("PlanRoute: %v", err)
	}
	b, err := otem.PlanRoute(goldenPlanSpec())
	if err != nil {
		t.Fatalf("PlanRoute: %v", err)
	}
	ra, _ := json.Marshal(otem.EncodePlan(a))
	rb, _ := json.Marshal(otem.EncodePlan(b))
	if !bytes.Equal(ra, rb) {
		t.Errorf("plans for identical specs differ:\n%s\n%s", ra, rb)
	}
}

// collapsedSpec disables the two-layer machinery for a cycle: a single
// outer block, tracking weights and every divergence tolerance explicitly
// off (negative). Under it the inner controller must behave exactly like
// the flat default OTEM.
func collapsedSpec(cycle string) otem.PlanSpec {
	return otem.PlanSpec{
		Cycle:        cycle,
		BlockSeconds: 40,
		MaxBlocks:    1,
		SoCRefWeight: -1, TempRefWeight: -1,
		SoCTol: -1, TempTolK: -1,
		OuterSoCTol: -1, OuterTempTolK: -1,
	}
}

// TestHierarchicalCollapsesToFlat is the issue's bit-identity property:
// with the outer layer collapsed to a single block and zero-weight
// tracking, SimulateHierarchical must reproduce the flat SimulateContext result
// exactly — every numeric Result field bit-identical — on every registered
// drive cycle. This pins that the tracking terms, the reference plumbing
// and the divergence triggers are true no-ops when disabled, so the
// hierarchical controller is a strict extension of the flat one.
func TestHierarchicalCollapsesToFlat(t *testing.T) {
	for _, name := range drivecycle.AllNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			requests, err := otem.PowerSeriesAt(name, 1, 298)
			if err != nil {
				t.Fatalf("PowerSeriesAt: %v", err)
			}
			cycle, err := otem.CycleByName(name)
			if err != nil {
				t.Fatalf("CycleByName: %v", err)
			}
			plant, err := otem.NewPlant(otem.PlantConfig{UltracapF: 25000, Ambient: 298, DT: cycle.DT})
			if err != nil {
				t.Fatalf("NewPlant: %v", err)
			}
			ctrl, err := otem.New(otem.Config{})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			flat, err := otem.SimulateContext(context.Background(), plant, ctrl, requests)
			if err != nil {
				t.Fatalf("SimulateContext: %v", err)
			}

			hier, err := otem.SimulateHierarchical(context.Background(), collapsedSpec(name))
			if err != nil {
				t.Fatalf("SimulateHierarchical: %v", err)
			}
			got := hier.Result
			// The controller label is the one legitimate difference.
			if got.Controller != "HMPC" || flat.Controller != "OTEM" {
				t.Fatalf("controller names %q / %q", got.Controller, flat.Controller)
			}
			got.Controller = flat.Controller
			//lint:ignore floatcompare the collapsed hierarchical run must be bit-identical, not merely close
			if got != flat {
				t.Errorf("collapsed hierarchical run differs from flat:\n got %+v\nwant %+v", got, flat)
			}
		})
	}
}
