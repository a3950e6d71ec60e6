package experiments

import (
	"context"
	"testing"

	"repro/internal/units"
)

// TestGoldenHeadlines pins the headline reproduction numbers on the paper's
// canonical workload (US06 ×5, 25 kF) inside tolerance bands. The bands are
// intentionally loose enough to survive benign refactoring but tight enough
// that a physics or controller regression trips them — this test is the
// repository's reproduction contract.
func TestGoldenHeadlines(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the MPC controller; skipped in -short")
	}
	otem, err := RunContext(context.Background(), RunSpec{Method: MethodOTEM, Cycle: "US06", Repeats: 5})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunContext(context.Background(), RunSpec{Method: MethodParallel, Cycle: "US06", Repeats: 5})
	if err != nil {
		t.Fatal(err)
	}

	inBand := func(name string, got, lo, hi float64) {
		t.Helper()
		if got < lo || got > hi {
			t.Errorf("%s = %v, want in [%v, %v]", name, got, lo, hi)
		}
	}
	// OTEM absolute bands (measured 0.00687 % / 20.6 kW / 32.6 °C peak).
	inBand("OTEM capacity loss %", otem.QlossPct, 0.005, 0.009)
	inBand("OTEM average power W", otem.AvgPowerW, 19e3, 22e3)
	inBand("OTEM peak temp °C", units.KToC(otem.MaxBatteryTemp), 26, 38)
	if otem.ThermalViolationSec != 0 {
		t.Errorf("OTEM violated the safe zone for %v s", otem.ThermalViolationSec)
	}

	// The Table-I@25 kF ratio: OTEM between 45 % and 70 % of parallel
	// (paper 42.9 %, measured 56.6 %).
	inBand("OTEM/parallel loss ratio", otem.QlossPct/parallel.QlossPct, 0.45, 0.70)

	// Parallel absolute band (measured 0.01215 % / 16.6 kW).
	inBand("parallel capacity loss %", parallel.QlossPct, 0.009, 0.016)
	inBand("parallel average power W", parallel.AvgPowerW, 15.5e3, 18e3)

	// Determinism: the exact same run must reproduce bit for bit.
	again, err := RunContext(context.Background(), RunSpec{Method: MethodOTEM, Cycle: "US06", Repeats: 5})
	if err != nil {
		t.Fatal(err)
	}
	if again.QlossPct != otem.QlossPct || again.HEESEnergyJ != otem.HEESEnergyJ {
		t.Errorf("nondeterministic reproduction: %v vs %v", again.QlossPct, otem.QlossPct)
	}
}
