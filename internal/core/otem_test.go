package core

import (
	"math"
	"testing"

	"repro/internal/drivecycle"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/vehicle"
)

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero horizon", func(c *Config) { c.Horizon = 0 }},
		{"block beyond horizon", func(c *Config) { c.BlockSize = c.Horizon + 1 }},
		{"zero replan", func(c *Config) { c.ReplanInterval = 0 }},
		{"negative weight", func(c *Config) { c.W2 = -1 }},
		{"negative TEB", func(c *Config) { c.TEBWeight = -1 }},
		{"NaN weight", func(c *Config) { c.W1 = math.NaN() }},
		{"infinite weight", func(c *Config) { c.W3 = math.Inf(1) }},
		{"NaN temp pressure", func(c *Config) { c.TempPressureWeight = math.NaN() }},
		{"infinite TEB", func(c *Config) { c.TEBWeight = math.Inf(1) }},
		{"NaN tracking weight", func(c *Config) { c.SoCRefWeight = math.NaN() }},
		{"infinite tracking weight", func(c *Config) { c.TempRefWeight = math.Inf(1) }},
	}
	for _, m := range mutations {
		cfg := DefaultConfig()
		m.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", m.name)
		}
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New accepted", m.name)
		}
	}
}

func TestNewZeroConfigUsesDefaults(t *testing.T) {
	o, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if o.cfg.Horizon != DefaultConfig().Horizon {
		t.Errorf("zero config horizon = %d", o.cfg.Horizon)
	}
	if o.Name() != "OTEM" {
		t.Errorf("Name = %q", o.Name())
	}
}

// shortConfig keeps controller tests fast.
func shortConfig() Config {
	cfg := DefaultConfig()
	cfg.Horizon = 20
	cfg.BlockSize = 5
	cfg.ReplanInterval = 5
	cfg.Optimizer.MaxIterations = 15
	return cfg
}

func TestOTEMServesConstantLoad(t *testing.T) {
	plant, err := sim.NewPlant(sim.PlantConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := New(shortConfig())
	if err != nil {
		t.Fatal(err)
	}
	requests := make([]float64, 120)
	for i := range requests {
		requests[i] = 20e3
	}
	res, err := sim.Run(plant, ctrl, requests, sim.Config{Horizon: 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalSoC >= 1.0 {
		t.Error("battery untouched — load not served")
	}
	// Energy conservation sanity: the storages supplied at least the
	// delivered energy (2.4 MJ).
	if res.HEESEnergyJ < 2.4e6 {
		t.Errorf("HEESEnergyJ = %v, want >= 2.4 MJ", res.HEESEnergyJ)
	}
	if res.FallbackSteps > 2 {
		t.Errorf("OTEM commands fell back %d times", res.FallbackSteps)
	}
}

func TestOTEMCoolsWhenHot(t *testing.T) {
	plant, err := sim.NewPlant(sim.PlantConfig{InitialTemp: units.CToK(38)})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := New(shortConfig())
	if err != nil {
		t.Fatal(err)
	}
	requests := make([]float64, 300)
	for i := range requests {
		requests[i] = 15e3
	}
	res, err := sim.Run(plant, ctrl, requests, sim.Config{Horizon: 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.CoolingEnergyJ <= 0 {
		t.Error("hot battery but the controller never cooled")
	}
	if res.MaxBatteryTemp > units.CToK(40) {
		t.Errorf("safe zone violated: %v °C", units.KToC(res.MaxBatteryTemp))
	}
	if res.FinalSoC >= 1.0 {
		t.Error("load not served while cooling")
	}
}

func TestOTEMSkipsCoolingWhenCold(t *testing.T) {
	plant, err := sim.NewPlant(sim.PlantConfig{InitialTemp: units.CToK(15), Ambient: units.CToK(15)})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := New(shortConfig())
	if err != nil {
		t.Fatal(err)
	}
	requests := make([]float64, 60)
	for i := range requests {
		requests[i] = 10e3
	}
	res, err := sim.Run(plant, ctrl, requests, sim.Config{Horizon: 20})
	if err != nil {
		t.Fatal(err)
	}
	// A cold pack needs no cooler; at most trivial pump dithering.
	if res.CoolingEnergyJ > 0.05*res.HEESEnergyJ {
		t.Errorf("cold pack but cooling consumed %v J of %v J", res.CoolingEnergyJ, res.HEESEnergyJ)
	}
}

func TestOTEMTEBPreparation(t *testing.T) {
	// Fig. 7's mechanism: facing an idle window followed by a large burst,
	// the controller should hold/raise the capacitor SoE before the burst
	// and discharge it during the burst.
	plant, err := sim.NewPlant(sim.PlantConfig{InitialSoE: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := New(shortConfig())
	if err != nil {
		t.Fatal(err)
	}
	requests := make([]float64, 100)
	for i := 0; i < 60; i++ {
		requests[i] = 2e3 // light cruise
	}
	for i := 60; i < 85; i++ {
		requests[i] = 70e3 // burst
	}
	for i := 85; i < 100; i++ {
		requests[i] = 2e3
	}
	res, err := sim.Run(plant, ctrl, requests, sim.Config{Horizon: 20, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	soeBeforeBurst := tr.SoE[59]
	if soeBeforeBurst <= 0.5 {
		t.Errorf("SoE before burst = %v, want pre-charged above the initial 0.5", soeBeforeBurst)
	}
	// The capacitor must actually discharge during the burst.
	minDuring := soeBeforeBurst
	for i := 60; i < 85; i++ {
		if tr.SoE[i] < minDuring {
			minDuring = tr.SoE[i]
		}
	}
	if minDuring >= soeBeforeBurst-0.01 {
		t.Errorf("capacitor idle during burst: SoE stayed at %v", minDuring)
	}
}

func TestOTEMBeatsBaselinesOnUS06(t *testing.T) {
	// The headline claim at reduced scale (US06 ×2 to keep the test quick):
	// OTEM ends with less capacity loss than the parallel and dual
	// baselines, and stays in the safe zone.
	requests := vehicle.MidSizeEV().PowerSeries(drivecycle.US06().Repeat(2))

	run := func(ctrl sim.Controller) sim.Result {
		t.Helper()
		plant, err := sim.NewPlant(sim.PlantConfig{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(plant, ctrl, requests, sim.Config{Horizon: DefaultConfig().Horizon})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	otem, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	resOTEM := run(otem)
	resParallel := run(policy.Parallel{})
	resDual := run(policy.NewDual())

	if resOTEM.QlossPct >= resParallel.QlossPct {
		t.Errorf("OTEM loss %v should beat parallel %v", resOTEM.QlossPct, resParallel.QlossPct)
	}
	if resOTEM.QlossPct >= resDual.QlossPct {
		t.Errorf("OTEM loss %v should beat dual %v", resOTEM.QlossPct, resDual.QlossPct)
	}
	if resOTEM.ThermalViolationSec > 0 {
		t.Errorf("OTEM violated the safe zone for %v s", resOTEM.ThermalViolationSec)
	}
}

func TestOTEMDeterministic(t *testing.T) {
	requests := make([]float64, 80)
	for i := range requests {
		requests[i] = float64(5e3 + 1e3*(i%7))
	}
	run := func() sim.Result {
		plant, err := sim.NewPlant(sim.PlantConfig{})
		if err != nil {
			t.Fatal(err)
		}
		ctrl, err := New(shortConfig())
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(plant, ctrl, requests, sim.Config{Horizon: 20})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.QlossPct != b.QlossPct || a.HEESEnergyJ != b.HEESEnergyJ || a.FinalSoE != b.FinalSoE {
		t.Errorf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestOTEMHandlesRegen(t *testing.T) {
	plant, err := sim.NewPlant(sim.PlantConfig{InitialSoC: 0.7, InitialSoE: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := New(shortConfig())
	if err != nil {
		t.Fatal(err)
	}
	requests := make([]float64, 60)
	for i := range requests {
		requests[i] = -25e3
	}
	res, err := sim.Run(plant, ctrl, requests, sim.Config{Horizon: 20})
	if err != nil {
		t.Fatal(err)
	}
	// Regen must be stored somewhere: battery or capacitor gained.
	gained := (res.FinalSoC > 0.7) || (res.FinalSoE > 0.5)
	if !gained {
		t.Errorf("regen lost: SoC %v, SoE %v", res.FinalSoC, res.FinalSoE)
	}
	if res.HEESEnergyJ >= 0 {
		t.Errorf("regen run should have negative HEES energy, got %v", res.HEESEnergyJ)
	}
}

func TestOTEMForecastShorterThanHorizon(t *testing.T) {
	// The engine may hand a shorter forecast near the route end; the
	// controller must pad gracefully.
	plant, err := sim.NewPlant(sim.PlantConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := New(shortConfig())
	if err != nil {
		t.Fatal(err)
	}
	// sim.Config.Horizon = 3 < controller horizon 20.
	requests := []float64{10e3, 12e3, 8e3, 6e3}
	if _, err := sim.Run(plant, ctrl, requests, sim.Config{Horizon: 3}); err != nil {
		t.Fatal(err)
	}
}

func TestObjectiveFiniteOnExtremes(t *testing.T) {
	plant, err := sim.NewPlant(sim.PlantConfig{})
	if err != nil {
		t.Fatal(err)
	}
	o, err := New(shortConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Pathological plant states must still produce finite costs.
	states := []struct{ soc, soe, tb, tc float64 }{
		{0.01, 0.001, units.CToK(55), units.CToK(50)},
		{1.0, 1.0, units.CToK(-10), units.CToK(-10)},
		{0.5, 0.0, units.CToK(25), units.CToK(25)},
	}
	z := make([]float64, o.prob.Dim)
	corners := [][]float64{
		z,
		fill(len(z), 1),
		fill(len(z), -1),
	}
	for _, st := range states {
		plant.HEES.Battery.SoC = st.soc
		plant.HEES.Cap.SoE = st.soe
		plant.Loop.BatteryTemp = st.tb
		plant.Loop.CoolantTemp = st.tc
		o.roll.capture(plant, o.cfg)
		for k := range o.fc {
			o.fc[k] = 50e3
		}
		for _, zz := range corners {
			if f := o.objective(zz); math.IsNaN(f) || math.IsInf(f, 0) {
				t.Errorf("objective not finite at state %+v, z=%v: %v", st, zz[0], f)
			}
		}
	}
}

func fill(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}
