// Command otem-lifetime projects the battery to its end of life (20 %
// capacity loss) under each methodology, carrying the accumulated fade into
// the plant — the paper's BLT claim taken to its conclusion. The
// per-methodology projections run concurrently on the batch runner
// (-parallel bounds the fan-out) and Ctrl-C cancels the whole fleet
// mid-route.
//
// Usage:
//
//	otem-lifetime -cycle US06 -repeats 3 -methods Parallel,Dual,OTEM -parallel 3
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"

	"repro/internal/drivecycle"
	"repro/internal/experiments"
	"repro/internal/lifetime"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/vehicle"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("otem-lifetime: ")

	var (
		cycleName = flag.String("cycle", "US06", "drive cycle")
		repeats   = flag.Int("repeats", 3, "cycle repetitions per route")
		methods   = flag.String("methods", "Parallel,Dual,OTEM", "comma-separated methodologies")
		block     = flag.Int("block", 2000, "routes extrapolated per simulated block")
		parallel  = flag.Int("parallel", 0, "max concurrent projections (0 = GOMAXPROCS)")
	)
	flag.Parse()
	if *repeats < 1 {
		log.Printf("-repeats %d: a route is at least one cycle", *repeats)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	cycle, err := drivecycle.ByName(*cycleName)
	if err != nil {
		log.Fatal(err)
	}
	route := cycle.Repeat(*repeats)
	requests := vehicle.MidSizeEV().PowerSeries(route)
	routeKm := route.Stats().Distance / 1000

	var names []experiments.Methodology
	for _, m := range strings.Split(*methods, ",") {
		names = append(names, experiments.Methodology(strings.TrimSpace(m)))
	}

	// One projection per methodology; each block inside is sequential (the
	// fade feeds back), but the methodologies are independent jobs.
	pool := runner.New(runner.Workers(*parallel))
	projections, err := runner.Map(ctx, pool, len(names),
		func(ctx context.Context, i int) (*lifetime.Projection, error) {
			return lifetime.ProjectContext(ctx,
				lifetime.DefaultPlantFactory(sim.PlantConfig{}),
				func() (sim.Controller, error) { return experiments.NewController(names[i]) },
				requests,
				lifetime.Config{BlockRoutes: *block, RouteKm: routeKm})
		})
	if err != nil {
		if errors.Is(err, runner.ErrCanceled) {
			log.Fatal("interrupted")
		}
		log.Fatal(err)
	}

	for i, proj := range projections {
		proj.Write(os.Stdout, fmt.Sprintf("%s on %s ×%d", names[i], *cycleName, *repeats))
		fmt.Println()
	}
}
