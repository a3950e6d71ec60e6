package experiments

import (
	"context"
	"strings"
	"testing"
)

func TestHotspotStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the MPC controller; skipped in -short")
	}
	r, err := HotspotContext(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	var parallel, otem HotspotRow
	for _, row := range r.Rows {
		switch row.Method {
		case MethodParallel:
			parallel = row
		case MethodOTEM:
			otem = row
		}
	}
	// Passive architectures have no coolant advection, hence no gradient.
	if parallel.MaxGradient > 0.5 {
		t.Errorf("parallel gradient %.2f K, want ~0 (no flow)", parallel.MaxGradient)
	}
	// Active cooling creates a real inlet→outlet gradient, so the worst
	// module runs hotter than the lumped model predicts.
	if otem.MaxGradient < 1 {
		t.Errorf("OTEM gradient %.2f K, want a visible channel gradient", otem.MaxGradient)
	}
	if otem.DistributedMaxT <= otem.LumpedMaxT {
		t.Error("distributed hotspot should exceed the lumped estimate under cooling")
	}
	// The paper's simplification survives: even the worst module stays
	// inside the safe zone under OTEM.
	if otem.ViolationSec > 0 {
		t.Errorf("worst module violated the safe zone for %v s", otem.ViolationSec)
	}
	var sb strings.Builder
	r.Write(&sb)
	if !strings.Contains(sb.String(), "Hotspot") {
		t.Error("Write output malformed")
	}
}
