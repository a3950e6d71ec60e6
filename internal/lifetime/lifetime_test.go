package lifetime

import (
	"context"
	"strings"
	"testing"

	"repro/internal/charger"
	"repro/internal/drivecycle"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/vehicle"
)

func baselineFactory() ControllerFactory {
	return func() (sim.Controller, error) { return policy.Parallel{}, nil }
}

func shortRoute(t *testing.T) []float64 {
	t.Helper()
	return vehicle.MidSizeEV().PowerSeries(drivecycle.US06())
}

func TestProjectValidation(t *testing.T) {
	requests := shortRoute(t)
	pf := DefaultPlantFactory(sim.PlantConfig{})
	if _, err := ProjectContext(context.Background(), nil, baselineFactory(), requests, Config{}); err == nil {
		t.Error("nil plant factory accepted")
	}
	if _, err := ProjectContext(context.Background(), pf, nil, requests, Config{}); err == nil {
		t.Error("nil controller factory accepted")
	}
	if _, err := ProjectContext(context.Background(), pf, baselineFactory(), nil, Config{}); err == nil {
		t.Error("empty route accepted")
	}
}

func TestProjectReachesEndOfLife(t *testing.T) {
	requests := shortRoute(t)
	proj, err := ProjectContext(context.Background(), DefaultPlantFactory(sim.PlantConfig{}), baselineFactory(), requests, Config{
		EndOfLifePct: 20,
		BlockRoutes:  2500,
		MaxRoutes:    200000,
		RouteKm:      12.7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if proj.RoutesToEOL <= 0 || proj.RoutesToEOL >= 200000 {
		t.Fatalf("RoutesToEOL = %d", proj.RoutesToEOL)
	}
	if len(proj.Points) < 2 {
		t.Fatalf("too few sample points: %d", len(proj.Points))
	}
	// Fade must accumulate monotonically.
	for i := 1; i < len(proj.Points); i++ {
		if proj.Points[i].CapacityLossPct <= proj.Points[i-1].CapacityLossPct {
			t.Fatal("capacity loss not monotone")
		}
	}
	// The feedback accelerates aging: a faded pack has higher resistance
	// (more heat) and less capacity (deeper SoC swings).
	if proj.AccelerationFactor <= 1 {
		t.Errorf("aging acceleration = %v, want > 1", proj.AccelerationFactor)
	}
	if proj.DistanceToEOLKm <= 0 {
		t.Error("distance not computed")
	}
	// Plausible EV pack life on a hard cycle: tens of thousands of km.
	if proj.DistanceToEOLKm < 1e4 || proj.DistanceToEOLKm > 1e6 {
		t.Errorf("distance to EOL = %.0f km, implausible", proj.DistanceToEOLKm)
	}
}

func TestProjectRespectsMaxRoutes(t *testing.T) {
	requests := shortRoute(t)
	proj, err := ProjectContext(context.Background(), DefaultPlantFactory(sim.PlantConfig{}), baselineFactory(), requests, Config{
		EndOfLifePct: 20,
		BlockRoutes:  100,
		MaxRoutes:    300,
	})
	if err != nil {
		t.Fatal(err)
	}
	if proj.RoutesToEOL != 300 {
		t.Errorf("RoutesToEOL = %d, want capped at 300", proj.RoutesToEOL)
	}
}

func TestDualOutlivesParallel(t *testing.T) {
	// The paper's BLT claim, end to end: the managed architecture reaches
	// end of life later than the unmanaged one. The route must be long
	// enough for the battery to reach dual's thermal threshold (a single
	// US06 is over before the pack warms up).
	requests := vehicle.MidSizeEV().PowerSeries(drivecycle.US06().Repeat(3))
	cfg := Config{EndOfLifePct: 20, BlockRoutes: 4000, MaxRoutes: 200000}
	par, err := ProjectContext(context.Background(), DefaultPlantFactory(sim.PlantConfig{}), baselineFactory(), requests, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dual, err := ProjectContext(context.Background(), DefaultPlantFactory(sim.PlantConfig{}),
		func() (sim.Controller, error) { return policy.NewDual(), nil }, requests, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if dual.RoutesToEOL <= par.RoutesToEOL {
		t.Errorf("dual EOL %d routes should exceed parallel %d", dual.RoutesToEOL, par.RoutesToEOL)
	}
}

func TestDefaultPlantFactoryAppliesHealth(t *testing.T) {
	pf := DefaultPlantFactory(sim.PlantConfig{})
	fresh, err := pf(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	aged, err := pf(15, 1.3)
	if err != nil {
		t.Fatal(err)
	}
	if aged.HEES.Battery.CapacityLossPct != 15 {
		t.Errorf("loss not applied: %v", aged.HEES.Battery.CapacityLossPct)
	}
	if aged.HEES.Battery.EffectiveCapacityAh() >= fresh.HEES.Battery.EffectiveCapacityAh() {
		t.Error("capacity fade not applied")
	}
	if aged.HEES.Battery.Resistance() <= fresh.HEES.Battery.Resistance() {
		t.Error("impedance growth not applied")
	}
}

func TestWriteRendersProjection(t *testing.T) {
	p := &Projection{
		Points:             []Point{{0, 0, 0.01}, {100, 1, 0.011}},
		RoutesToEOL:        2000,
		DistanceToEOLKm:    25400,
		AccelerationFactor: 1.1,
	}
	var sb strings.Builder
	p.Write(&sb, "unit")
	out := sb.String()
	if !strings.Contains(out, "routes to end of life: 2000") || !strings.Contains(out, "25400 km") {
		t.Errorf("Write output:\n%s", out)
	}
}

func TestChargingShortensProjectedLife(t *testing.T) {
	requests := shortRoute(t)
	base := Config{EndOfLifePct: 20, BlockRoutes: 5000, MaxRoutes: 300000}
	without, err := ProjectContext(context.Background(), DefaultPlantFactory(sim.PlantConfig{}), baselineFactory(), requests, base)
	if err != nil {
		t.Fatal(err)
	}
	chg := charger.Default()
	withCfg := base
	withCfg.Charger = &chg
	with, err := ProjectContext(context.Background(), DefaultPlantFactory(sim.PlantConfig{}), baselineFactory(), requests, withCfg)
	if err != nil {
		t.Fatal(err)
	}
	if with.RoutesToEOL >= without.RoutesToEOL {
		t.Errorf("charging aging should shorten life: %d vs %d routes",
			with.RoutesToEOL, without.RoutesToEOL)
	}
	// But not absurdly: charging at 0.5 C is gentler than driving.
	if float64(with.RoutesToEOL) < 0.3*float64(without.RoutesToEOL) {
		t.Errorf("charging dominates aging implausibly: %d vs %d", with.RoutesToEOL, without.RoutesToEOL)
	}
}
