// Command otem-serve runs the simulation-as-a-service HTTP API: the otem
// facade (single runs, batch grids, NDJSON trace streaming) behind a
// deterministic result cache, singleflight coalescing, bounded-queue
// admission control and hand-written Prometheus metrics.
//
// Usage:
//
//	otem-serve -addr :8080 -parallel 8 -queue 32 -cache 256
//
// SIGINT/SIGTERM stop accepting and drain in-flight requests gracefully
// (bounded by -drain). With -addr 127.0.0.1:0 the kernel picks a free
// port; -portfile writes the bound address for scripts (the serve-smoke
// gate uses it).
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("otem-serve: ")

	var (
		addr     = flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		parallel = flag.Int("parallel", 0, "max concurrently executing simulation requests (0 = GOMAXPROCS)")
		queue    = flag.Int("queue", 0, "max requests waiting for a slot before 429s (0 = 4×parallel)")
		cache    = flag.Int("cache", 0, "result cache entries (0 = 256, negative disables)")
		timeout  = flag.Duration("timeout", 0, "per-request simulation budget (0 = 60s)")
		drain    = flag.Duration("drain", 0, "graceful shutdown drain budget (0 = 15s)")
		repeats  = flag.Int("max-repeats", 0, "max cycle repetitions per spec (0 = 100)")
		fleetVeh = flag.Int("max-fleet-vehicles", 0, "max vehicles per /v1/fleet request (0 = 512)")
		fleetDay = flag.Int("max-fleet-days", 0, "max days per /v1/fleet request (0 = 7)")
		fleetPar = flag.Int("fleet-parallel", 0, "worker fan-out inside one /v1/fleet request (0 = GOMAXPROCS)")
		portfile = flag.String("portfile", "", "optional file to write the bound address to once listening")
		pprofOn  = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (exposes process internals; only enable on trusted/loopback listeners)")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "otem-serve: ", 0)
	srv := serve.New(serve.Config{
		MaxInflight:      *parallel,
		MaxQueue:         *queue,
		CacheSize:        *cache,
		RequestTimeout:   *timeout,
		DrainTimeout:     *drain,
		MaxRepeats:       *repeats,
		MaxFleetVehicles: *fleetVeh,
		MaxFleetDays:     *fleetDay,
		FleetParallelism: *fleetPar,
		Log:              logger,
		EnablePprof:      *pprofOn,
	})
	if *pprofOn {
		log.Printf("pprof endpoints enabled under /debug/pprof/ — do not expose this listener publicly")
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("listening on %s", ln.Addr())
	if *portfile != "" {
		if err := os.WriteFile(*portfile, []byte(ln.Addr().String()), 0o644); err != nil {
			log.Fatal(err)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	if err := srv.Run(ctx, ln); err != nil {
		log.Fatal(err)
	}
	log.Printf("drained and stopped after %s", time.Since(start).Round(time.Millisecond))
}
