package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"os"

	"repro/otem"
)

// fleetFlags carries the -fleet mode knobs out of main.
type fleetFlags struct {
	vehicles int
	days     int
	seed     int64
	parallel int
	route    float64
	method   string
	ucap     float64
	asJSON   bool
	progress bool
}

// progressEvent is one NDJSON progress line on stderr, emitted as chunks
// of the fleet complete so a supervising process can track a long run.
type progressEvent struct {
	Event    string `json:"event"`
	Done     int    `json:"vehicles_done"`
	Total    int    `json:"vehicles_total"`
	Fraction string `json:"fraction"`
}

// runFleet executes the Monte Carlo fleet mode and renders the result,
// as otem.fleet/v1 JSON on stdout (-json) or as a text summary.
func runFleet(ff fleetFlags) {
	spec := otem.FleetSpec{
		Vehicles:     ff.vehicles,
		Days:         ff.days,
		Seed:         ff.seed,
		Method:       otem.Methodology(ff.method),
		UltracapF:    ff.ucap,
		RouteSeconds: ff.route,
	}
	opts := []otem.Option{otem.WithParallelism(ff.parallel)}
	if ff.progress {
		enc := json.NewEncoder(os.Stderr)
		opts = append(opts, otem.WithProgress(func(done, total int) {
			_ = enc.Encode(progressEvent{
				Event:    "progress",
				Done:     done,
				Total:    total,
				Fraction: fmt.Sprintf("%.3f", float64(done)/float64(total)),
			})
		}))
	}

	res, err := otem.RunFleet(context.Background(), spec, opts...)
	if err != nil {
		log.Fatal(err)
	}

	if ff.asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(otem.EncodeFleet(res)); err != nil {
			log.Fatal(err)
		}
		return
	}
	printFleetSummary(res)
}

// printFleetSummary renders the human-readable fleet block: the headline
// distributions and the per-family breakdown.
func printFleetSummary(res *otem.FleetResult) {
	fmt.Printf("fleet              %d vehicles × %d day(s), seed %d\n",
		res.Vehicles, res.Days, res.Spec.Seed)
	fmt.Printf("methodology        %s\n", res.Spec.Method)
	fmt.Printf("digest             %s\n", res.Digest())
	fmt.Printf("steps simulated    %d\n", res.Steps)
	fmt.Printf("fallback steps     %d\n", res.FallbackSteps)
	fmt.Printf("thermal violation  %.0f s above 40 °C (fleet total)\n", res.ThermalViolationSec)
	printDist("capacity loss %", res.Qloss)
	printDist("wall energy MJ", scaled{s: res.EnergyJ, factor: 1e-6})
	printDist("peak temp °C", scaled{s: res.PeakTempK, factor: 1, offset: -273.15})
	fmt.Printf("families:\n")
	for _, f := range res.Families {
		if f.Vehicles == 0 {
			continue
		}
		fmt.Printf("  %-22s %5d vehicles   median qloss %.6f %%\n",
			f.Name, f.Vehicles, f.Qloss.Quantile(0.5))
	}
}

// dist is the quantile view printDist needs; scaled adapts a sketch's
// units (J→MJ, K→°C) without copying it.
type dist interface {
	Quantile(phi float64) float64
	Mean() float64
}

type scaled struct {
	s      *otem.QuantileSketch
	factor float64
	offset float64
}

func (v scaled) Quantile(phi float64) float64 { return v.s.Quantile(phi)*v.factor + v.offset }
func (v scaled) Mean() float64                { return v.s.Mean()*v.factor + v.offset }

func printDist(label string, d dist) {
	fmt.Printf("%-18s p05 %.4f   p50 %.4f   p95 %.4f   mean %.4f\n",
		label, d.Quantile(0.05), d.Quantile(0.5), d.Quantile(0.95), d.Mean())
}
