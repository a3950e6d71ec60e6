// Command otem-sim runs a single driving simulation under one methodology
// and prints the Algorithm 1 outputs (capacity loss, HEES energy) plus the
// derived metrics. Optionally dumps a per-step trace as CSV for plotting.
//
// Usage:
//
//	otem-sim -method OTEM -cycle US06 -repeats 5 -ucap 25000 -trace trace.csv
//
// With -fleet N the command switches to Monte Carlo fleet mode: N vehicles
// with seeded stochastic scenarios, progress as NDJSON on stderr, the
// otem.fleet/v1 result on stdout with -json:
//
//	otem-sim -fleet 10000 -method Parallel -days 5 -seed 42 -parallel 8 -json
//
// With -hmpc the command runs the two-layer hierarchical MPC: an outer
// route-preview planner schedules SoC and temperature references that the
// fast OTEM layer tracks. -plan prints only the cacheable outer plan:
//
//	otem-sim -hmpc -cycle UDDS -ambient 308
//	otem-sim -hmpc -usage highway -route 900 -seed 7 -plan
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"encoding/json"

	"repro/internal/analysis"
	"repro/internal/drivecycle"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/otem"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("otem-sim: ")

	var (
		method  = flag.String("method", "OTEM", "methodology: "+strings.Join(experiments.MethodNames(), ", "))
		cycle   = flag.String("cycle", "US06", "drive cycle: "+strings.Join(drivecycle.AllNames(), ", "))
		repeats = flag.Int("repeats", 5, "number of back-to-back cycle repetitions")
		ucap    = flag.Float64("ucap", 25000, "ultracapacitor size in farads")
		trace   = flag.String("trace", "", "optional path for a per-step CSV trace")
		analyze = flag.Bool("analyze", false, "print trace-derived analysis (peak shaving, regen capture, cooler duty)")
		asJSON  = flag.Bool("json", false, "emit the result summary as JSON instead of text")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (inspect with `go tool pprof`)")
		memProf = flag.String("memprofile", "", "write a heap profile taken after the run to this file")

		// Hierarchical mode (-hmpc switches over; shares -cycle, -repeats,
		// -ucap, -seed, -route and -json with the other modes).
		hmpc      = flag.Bool("hmpc", false, "two-layer hierarchical MPC mode: route-preview outer planner over the OTEM tracker")
		usage     = flag.String("usage", "", "hmpc mode: synthesize the route from a fleet usage class (commuter, delivery, highway) instead of -cycle")
		ambient   = flag.Float64("ambient", 298, "hmpc mode: ambient temperature, kelvin")
		block     = flag.Float64("block", 30, "hmpc mode: outer planner block length, seconds")
		maxBlocks = flag.Int("maxblocks", 64, "hmpc mode: outer horizon cap, blocks")
		planOnly  = flag.Bool("plan", false, "hmpc mode: print only the outer route plan as otem.plan/v1 JSON")

		// Fleet mode (-fleet > 0 switches over; -cycle/-repeats/-trace do
		// not apply, routes are synthesized per vehicle from the seed).
		fleet    = flag.Int("fleet", 0, "Monte Carlo fleet mode: number of vehicles (0 = single-run mode)")
		days     = flag.Int("days", 1, "fleet mode: daily routes per vehicle")
		seed     = flag.Int64("seed", 0, "fleet mode: master seed (same seed ⇒ bit-identical result)")
		parallel = flag.Int("parallel", 0, "fleet mode: worker count (0 = GOMAXPROCS; result is identical at any setting)")
		route    = flag.Float64("route", 600, "fleet mode: target route duration per day, seconds")
		progress = flag.Bool("progress", true, "fleet mode: emit NDJSON progress events on stderr")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("start CPU profile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}

	if *hmpc {
		hf := hmpcFlags{
			cycle:     *cycle,
			usage:     *usage,
			seed:      *seed,
			route:     *route,
			repeats:   *repeats,
			ucap:      *ucap,
			ambient:   *ambient,
			block:     *block,
			maxBlocks: *maxBlocks,
			planOnly:  *planOnly,
			asJSON:    *asJSON,
		}
		// The single-run default of 5 repeats would quintuple every
		// hierarchical route; only an explicit -repeats carries over.
		hf.repeats = 1
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "repeats" {
				hf.repeats = *repeats
			}
		})
		runHMPC(hf)
		return
	}

	if *fleet > 0 {
		runFleet(fleetFlags{
			vehicles: *fleet,
			days:     *days,
			seed:     *seed,
			parallel: *parallel,
			route:    *route,
			method:   *method,
			ucap:     *ucap,
			asJSON:   *asJSON,
			progress: *progress,
		})
		return
	}

	res, err := experiments.Run(experiments.RunSpec{
		Method:    experiments.Methodology(*method),
		Cycle:     *cycle,
		Repeats:   *repeats,
		UltracapF: *ucap,
		Trace:     *trace != "" || *analyze,
	})
	if err != nil {
		log.Fatal(err)
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		summary := res
		summary.Trace = nil // traces go to -trace, not the JSON summary
		if err := enc.Encode(otem.EncodeResult(summary)); err != nil {
			log.Fatal(err)
		}
	}

	duration := float64(res.Steps) * res.DT
	if *asJSON {
		// JSON replaces the text summary; analysis/trace flags still apply.
		_ = duration
	} else {
		printSummary(res, *cycle, *repeats, *ucap, duration)
	}

	if *analyze {
		fmt.Println()
		analysis.Summarize(res.Trace, res.DT).Write(os.Stdout, res.Controller)
	}

	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := res.Trace.WriteCSV(f); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace              %s (%d rows)\n", *trace, res.Steps)
	}

	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		runtime.GC() // settle the live set so the profile shows retained memory
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatalf("write heap profile: %v", err)
		}
	}
}

// printSummary renders the human-readable result block.
func printSummary(res sim.Result, cycle string, repeats int, ucap, duration float64) {
	fmt.Printf("methodology        %s\n", res.Controller)
	fmt.Printf("route              %s ×%d (%.0f s)\n", cycle, repeats, duration)
	fmt.Printf("ultracapacitor     %.0f F\n", ucap)
	fmt.Printf("capacity loss      %.6f %% of rated capacity\n", res.QlossPct)
	fmt.Printf("HEES energy        %.2f MJ (%.2f kWh)\n", res.HEESEnergyJ/1e6, units.JouleToKWh(res.HEESEnergyJ))
	fmt.Printf("average power      %.0f W\n", res.AvgPowerW)
	fmt.Printf("cooling energy     %.2f MJ\n", res.CoolingEnergyJ/1e6)
	fmt.Printf("battery temp       max %.2f °C, avg %.2f °C\n",
		units.KToC(res.MaxBatteryTemp), units.KToC(res.AvgBatteryTemp))
	fmt.Printf("thermal violation  %.0f s above 40 °C\n", res.ThermalViolationSec)
	fmt.Printf("final SoC / SoE    %.3f / %.3f\n", res.FinalSoC, res.FinalSoE)
	fmt.Printf("fallback steps     %d\n", res.FallbackSteps)
}
