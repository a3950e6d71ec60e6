package experiments

import (
	"context"
	"strings"
	"testing"
)

// TestHMPCCompareWins is the PR's headline acceptance check: the two-layer
// controller must beat flat OTEM on at least one preview scenario at equal
// comfort, and must never lose comfort anywhere (the thermal-violation
// seconds match on every row).
func TestHMPCCompareWins(t *testing.T) {
	if testing.Short() {
		t.Skip("full comparison grid in -short mode")
	}
	res, err := HMPCCompareContext(context.Background(), nil, HMPCScenarios())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(HMPCScenarios()) {
		t.Fatalf("rows = %d, want %d", len(res.Rows), len(HMPCScenarios()))
	}
	wins := 0
	for _, row := range res.Rows {
		if !row.EqualComfort() {
			t.Errorf("%s: comfort differs (flat %v s vs hmpc %v s violation)",
				row.Scenario.Name, row.Flat.ThermalViolationSec, row.Hier.ThermalViolationSec)
		}
		if row.Flat.Controller != "HMPC" || row.Hier.Controller != "HMPC" {
			t.Errorf("%s: unexpected controllers %q/%q", row.Scenario.Name,
				row.Flat.Controller, row.Hier.Controller)
		}
		if row.Flat.Plan.Blocks != 1 {
			t.Errorf("%s: flat baseline outer plan has %d blocks, want collapsed 1",
				row.Scenario.Name, row.Flat.Plan.Blocks)
		}
		if row.Hier.Plan.Blocks < 2 {
			t.Errorf("%s: hierarchical plan has %d blocks, want ≥2",
				row.Scenario.Name, row.Hier.Plan.Blocks)
		}
		if row.Wins() {
			wins++
		}
	}
	if wins < 1 {
		var b strings.Builder
		res.Write(&b)
		t.Fatalf("two-layer beats flat on 0 scenarios, want ≥1\n%s", b.String())
	}

	var b strings.Builder
	res.Write(&b)
	out := b.String()
	if !strings.Contains(out, "Scenario") || !strings.Contains(out, "✓") {
		t.Errorf("table rendering lost the header or the win marker:\n%s", out)
	}
}
