// Commute: project battery lifetime for a realistic daily-commute scenario.
//
// A commuter drives a synthetic 30-minute suburban route twice a day. The
// example compares how long the pack lasts (years until 20 % capacity loss,
// the paper's end-of-life criterion) under each methodology, and what the
// annual energy bill difference looks like.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/otem"
)

const (
	commutesPerDay  = 2
	daysPerYear     = 250
	endOfLifePct    = 20.0 // paper §I: battery useless after 20 % loss
	electricityCost = 0.15 // $/kWh
)

func main() {
	log.SetFlags(0)

	// A deterministic synthetic commute: ~30 min suburban driving.
	cfg := otem.DefaultSynthConfig(2016)
	cfg.Name = "COMMUTE"
	cfg.TargetDuration = 1800
	cfg.MeanPeakKmh = 70
	cycle, err := otem.Synthesize(cfg)
	if err != nil {
		log.Fatal(err)
	}
	requests := otem.PowerSeriesFor(cycle)
	stats := cycle.Stats()
	fmt.Printf("commute: %.0f s, %.1f km, avg %.0f km/h\n\n",
		stats.Duration, stats.Distance/1000, stats.AvgSpeed*3.6)

	fmt.Printf("%-14s %14s %16s %14s %16s\n",
		"methodology", "loss/commute", "pack life (yr)", "kWh/commute", "energy $/yr")
	for _, m := range []otem.Methodology{
		otem.MethodologyParallel, otem.MethodologyDual, otem.MethodologyCooling, otem.MethodologyOTEM,
	} {
		report(m, requests)
	}
}

func report(m otem.Methodology, requests []float64) {
	ctrl, err := otem.ControllerFor(m)
	if err != nil {
		log.Fatal(err)
	}
	plant, err := otem.NewPlant(otem.PlantConfig{})
	if err != nil {
		log.Fatal(err)
	}
	res, err := otem.SimulateContext(context.Background(), plant, ctrl, requests)
	if err != nil {
		log.Fatal(err)
	}
	commutes := endOfLifePct / res.QlossPct
	years := commutes / (commutesPerDay * daysPerYear)
	kwh := res.HEESEnergyJ / 3.6e6
	dollarsPerYear := kwh * electricityCost * commutesPerDay * daysPerYear
	fmt.Printf("%-14s %13.5f%% %16.1f %14.2f %16.0f\n",
		m, res.QlossPct, years, kwh, dollarsPerYear)
}
