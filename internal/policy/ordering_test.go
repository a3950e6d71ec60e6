package policy

import (
	"testing"

	"repro/internal/units"
)

// TestPaperBaselineOrderings pins the qualitative shape of the paper's
// baseline comparison on US06 ×5 at 25 kF (the Figs. 6/8/9 workload):
//
//	capacity loss: ActiveCooling < Dual < Parallel < BatteryOnly
//	average power: ActiveCooling and Dual above Parallel (management costs),
//	               ActiveCooling the most expensive (paper Fig. 9 premise)
//	temperature:   ActiveCooling holds the safe zone; the unmanaged
//	               architectures violate it
//
// These orderings are the calibration contract the experiment suite relies
// on; if a model-parameter change breaks one of them, the paper's
// tables/figures will no longer reproduce.
func TestPaperBaselineOrderings(t *testing.T) {
	requests := us06Requests(t, 5)
	type row struct {
		qloss, avgP, viol, maxT float64
	}
	results := map[string]row{}
	for name, m := range map[string]Methodology{
		"battery":  MethodologyBattery,
		"parallel": MethodologyParallel,
		"dual":     MethodologyDual,
		"cooling":  MethodologyCooling,
	} {
		ctrl, err := ByMethodology(m)
		if err != nil {
			t.Fatal(err)
		}
		r := runPolicy(t, ctrl, 25000, requests)
		results[name] = row{r.QlossPct, r.AvgPowerW, r.ThermalViolationSec, r.MaxBatteryTemp}
	}

	if !(results["cooling"].qloss < results["dual"].qloss &&
		results["dual"].qloss < results["parallel"].qloss &&
		results["parallel"].qloss < results["battery"].qloss) {
		t.Errorf("capacity-loss ordering broken: cooling=%v dual=%v parallel=%v battery=%v",
			results["cooling"].qloss, results["dual"].qloss,
			results["parallel"].qloss, results["battery"].qloss)
	}
	if results["cooling"].avgP <= results["parallel"].avgP ||
		results["cooling"].avgP <= results["dual"].avgP {
		t.Errorf("active cooling avg power %v should be the most expensive (parallel %v, dual %v)",
			results["cooling"].avgP, results["parallel"].avgP, results["dual"].avgP)
	}
	if results["cooling"].viol != 0 {
		t.Errorf("active cooling should hold the safe zone, violated %v s", results["cooling"].viol)
	}
	if results["battery"].viol == 0 || results["parallel"].viol == 0 {
		t.Error("unmanaged architectures should violate the 40 °C limit on US06 ×5")
	}
	// Dual at 25 kF lands near the paper's 0.85× loss ratio vs parallel.
	ratio := results["dual"].qloss / results["parallel"].qloss
	if ratio < 0.60 || ratio > 0.95 {
		t.Errorf("dual/parallel loss ratio = %.3f, want ≈0.85 (paper Table I)", ratio)
	}
	if results["cooling"].maxT > units.CToK(40) {
		t.Errorf("active cooling peak temp %v exceeds the safe limit", results["cooling"].maxT)
	}
}
