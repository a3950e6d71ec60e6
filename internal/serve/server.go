package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"time"

	"repro/internal/runner"
	"repro/otem"
)

// errBadRequest marks request-shape validation failures; the error mapper
// translates it (and the facade's unknown-name sentinels) to 400.
var errBadRequest = errors.New("serve: bad request")

// Config tunes a Server. The zero value selects production defaults.
type Config struct {
	// MaxInflight bounds concurrently executing simulation requests
	// (default GOMAXPROCS). Coalesced duplicates of an in-flight request
	// do not consume a slot.
	MaxInflight int
	// MaxQueue bounds requests waiting for a slot (default 4×MaxInflight);
	// beyond it the server sheds load with 429.
	MaxQueue int
	// RetryAfter is the hint sent with 429 responses (default 1s).
	RetryAfter time.Duration
	// CacheSize bounds the result LRU (default 256 entries; negative
	// disables caching — identical in-flight requests still coalesce).
	CacheSize int
	// RequestTimeout bounds one request's simulation work (default 60s).
	RequestTimeout time.Duration
	// DrainTimeout bounds the graceful shutdown drain (default 15s).
	DrainTimeout time.Duration
	// MaxBatchSpecs bounds the grid size of one /v1/batch request
	// (default 64).
	MaxBatchSpecs int
	// MaxRepeats bounds the cycle repetitions of one spec (default 100):
	// repeats scale simulation time linearly, so this is the knob that
	// keeps a single request from monopolizing a slot.
	MaxRepeats int
	// MaxFleetVehicles bounds the fleet size of one /v1/fleet request
	// (default 512); vehicles scale simulation time linearly.
	MaxFleetVehicles int
	// MaxFleetDays bounds the per-vehicle day count of one /v1/fleet
	// request (default 7).
	MaxFleetDays int
	// FleetParallelism bounds the worker-pool fan-out inside one /v1/fleet
	// request (default GOMAXPROCS). The result is bit-identical at any
	// setting — only latency changes.
	FleetParallelism int
	// Log receives serving events and isolated panics; nil selects the
	// process-default logger.
	Log *log.Logger
	// EnablePprof mounts the net/http/pprof handlers under /debug/pprof/.
	// Off by default: the endpoints expose goroutine dumps, heap contents
	// and CPU profiles of the process, so they must only be enabled when
	// the listener is reachable solely by trusted operators (localhost or
	// a private network), never on an internet-facing address.
	EnablePprof bool
}

// withDefaults resolves the zero values.
func (c Config) withDefaults() Config {
	if c.MaxInflight < 1 {
		c.MaxInflight = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue < 1 {
		c.MaxQueue = 4 * c.MaxInflight
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 15 * time.Second
	}
	if c.MaxBatchSpecs < 1 {
		c.MaxBatchSpecs = 64
	}
	if c.MaxRepeats < 1 {
		c.MaxRepeats = 100
	}
	if c.MaxFleetVehicles < 1 {
		c.MaxFleetVehicles = 512
	}
	if c.MaxFleetDays < 1 {
		c.MaxFleetDays = 7
	}
	if c.FleetParallelism < 1 {
		c.FleetParallelism = runtime.GOMAXPROCS(0)
	}
	return c
}

// Server is the simulation-as-a-service HTTP subsystem. Build with New,
// mount via Handler (tests) or drive the full lifecycle with Run.
type Server struct {
	cfg     Config
	metrics *metrics
	// simCache, fleetCache and planCache are the per-result-type
	// instantiations of one LRU + singleflight machinery, each bounded by
	// CacheSize: simulate and its stream share simCache, the fleet and its
	// stream share fleetCache, and route-start plans are solved once per
	// route in planCache.
	simCache   *cache[otem.Result]
	fleetCache *cache[*otem.FleetResult]
	planCache  *cache[*otem.Plan]
	gate       *admission
	mux        *http.ServeMux
	// pool executes one admitted request's simulation with the runner's
	// panic isolation; global concurrency is bounded by gate, not here.
	pool *runner.Pool

	// runSim executes one normalized spec; tests substitute stubs to make
	// latency and failure modes deterministic.
	runSim func(ctx context.Context, spec otem.RunSpec) (otem.Result, error)
	// runBatch executes one admitted batch grid; tests substitute stubs.
	runBatch func(ctx context.Context, specs []otem.RunSpec, opts ...otem.Option) ([]otem.BatchResult, error)
	// runFleet executes one admitted fleet spec; tests substitute stubs.
	runFleet func(ctx context.Context, spec otem.FleetSpec, opts ...otem.Option) (*otem.FleetResult, error)
	// runPlan solves one outer route plan; tests substitute stubs.
	runPlan func(ctx context.Context, spec otem.PlanSpec) (*otem.Plan, error)
}

// New builds a Server from the configuration.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:        cfg,
		metrics:    &metrics{},
		simCache:   newCache[otem.Result](cfg.CacheSize),
		fleetCache: newCache[*otem.FleetResult](cfg.CacheSize),
		planCache:  newCache[*otem.Plan](cfg.CacheSize),
		gate:       newAdmission(cfg.MaxInflight, cfg.MaxQueue),
		pool:       runner.New(runner.Workers(1)),
		runSim:     otem.RunContext,
		runBatch:   otem.RunBatch,
		runFleet:   otem.RunFleet,
		runPlan: func(_ context.Context, spec otem.PlanSpec) (*otem.Plan, error) {
			return otem.PlanRoute(spec)
		},
	}
	mux := http.NewServeMux()
	for _, rt := range []struct {
		pattern, endpoint string
		h                 endpointHandler
	}{
		{"POST /v1/simulate", "simulate", s.handleSimulate},
		{"POST /v1/batch", "batch", s.handleBatch},
		{"POST /v1/fleet", "fleet", s.handleFleet},
		{"POST /v1/plan", "plan", s.handlePlan},
		{"GET /v1/simulate/stream", "stream", s.handleStream},
		{"GET /v1/fleet/stream", "fleetstream", s.handleFleetStream},
	} {
		mux.Handle(rt.pattern, s.instrument(rt.endpoint, rt.h))
	}
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if cfg.EnablePprof {
		// Explicit registrations on the server's own mux — the blank-import
		// side effect only reaches http.DefaultServeMux, which is never
		// served here.
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	s.mux = mux
	return s
}

// Handler returns the routed HTTP handler (the unit tests mount it on
// httptest servers).
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		s.cfg.Log.Printf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// statusFor maps an error chain onto the HTTP status code, from most to
// least specific: request-shape and unknown-name errors are the client's
// fault (400), a full admission queue is load shedding (429), a deadline
// is a timeout (504) and a canceled run means the client went away (503
// — mostly unobservable, but it keeps the metrics honest).
func statusFor(err error) int {
	switch {
	case errors.Is(err, errBadRequest),
		errors.Is(err, otem.ErrUnknownCycle),
		errors.Is(err, otem.ErrUnknownBaseline),
		errors.Is(err, otem.ErrBadPlanSpec):
		return http.StatusBadRequest
	case errors.Is(err, errQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, otem.ErrCanceled), errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// writeError renders the JSON error body for err, with the Retry-After
// hint on 429s.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	code := statusFor(err)
	if code == http.StatusTooManyRequests {
		s.metrics.admissionRejected.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(s.cfg.RetryAfter.Seconds()))))
	}
	writeJSON(w, code, errorResponse{Error: clientMessage(err), Code: code})
}

// clientMessage is the error text a client sees: the error chain, except
// that a panic value or stack never leaks.
func clientMessage(err error) string {
	var pe *runner.PanicError
	if errors.As(err, &pe) {
		return "internal error: simulation panicked"
	}
	return err.Error()
}

// requestCtx bounds one request's simulation work by the client's
// connection context and the configured timeout.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	return context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
}

// cached is the pipeline of every cached endpoint: serve key from c,
// coalesce onto an identical in-flight request, or lead the computation —
// win an admission slot (or be shed) and execute run on the worker pool,
// so a panicking run surfaces as a *runner.PanicError instead of tearing
// the process down. The outcome is booked on the endpoint's record.
func cached[T any](ctx context.Context, s *Server, st *endpointStats, c *cache[T], key string, run func(context.Context) (T, error)) (T, cacheOutcome, error) {
	res, outcome, err := c.do(ctx, key, func() (T, error) {
		var zero T
		if err := s.gate.acquire(ctx); err != nil {
			return zero, err
		}
		defer s.gate.release()
		out, err := runner.Map(ctx, s.pool, 1, func(ctx context.Context, _ int) (T, error) {
			return run(ctx)
		})
		if err != nil {
			return zero, err
		}
		return out[0], nil
	})
	st.book(outcome)
	return res, outcome, err
}

// handleSimulate implements POST /v1/simulate.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request, st *endpointStats) {
	var req SimulateRequest
	if err := decodeJSON(r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	spec, err := req.normalize(s.cfg.MaxRepeats)
	if err != nil {
		s.writeError(w, err)
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	res, outcome, err := cached(ctx, s, st, s.simCache, cacheKey(spec), func(ctx context.Context) (otem.Result, error) {
		return s.runSim(ctx, spec)
	})
	if err != nil {
		s.writeError(w, err)
		return
	}
	w.Header().Set("X-Cache", string(outcome))
	writeJSON(w, http.StatusOK, otem.EncodeResult(res))
}

// handleBatch implements POST /v1/batch: the grid runs concurrently on
// the bounded worker pool under a single admission slot, with per-spec
// cache reads and writes (coalescing applies only to single-run
// endpoints; a grid's specs are usually distinct).
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request, st *endpointStats) {
	var req BatchRequest
	if err := decodeJSON(r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	if len(req.Specs) == 0 {
		s.writeError(w, fmt.Errorf("%w: specs is empty", errBadRequest))
		return
	}
	if len(req.Specs) > s.cfg.MaxBatchSpecs {
		s.writeError(w, fmt.Errorf("%w: %d specs exceed the limit %d", errBadRequest, len(req.Specs), s.cfg.MaxBatchSpecs))
		return
	}
	specs := make([]otem.RunSpec, len(req.Specs))
	for i, sr := range req.Specs {
		spec, err := sr.normalize(s.cfg.MaxRepeats)
		if err != nil {
			s.writeError(w, fmt.Errorf("spec %d: %w", i, err))
			return
		}
		specs[i] = spec
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()

	entries := make([]BatchEntry, len(specs))
	var missSpecs []otem.RunSpec
	var missIdx []int
	for i, spec := range specs {
		entries[i].Spec = req.Specs[i]
		if res, ok := s.simCache.get(cacheKey(spec)); ok {
			st.book(cacheHit)
			wire := otem.EncodeResult(res)
			entries[i].Result = &wire
			continue
		}
		st.book(cacheMiss)
		missSpecs = append(missSpecs, spec)
		missIdx = append(missIdx, i)
	}

	if len(missSpecs) > 0 {
		if err := s.gate.acquire(ctx); err != nil {
			s.writeError(w, err)
			return
		}
		results, err := s.runBatch(ctx, missSpecs)
		s.gate.release()
		if err != nil {
			s.writeError(w, err)
			return
		}
		for j, br := range results {
			i := missIdx[j]
			if br.Err != nil {
				entries[i].Error = br.Err.Error()
				continue
			}
			s.simCache.put(cacheKey(missSpecs[j]), br.Result)
			wire := otem.EncodeResult(br.Result)
			entries[i].Result = &wire
		}
	}
	writeJSON(w, http.StatusOK, BatchResponse{Results: entries})
}

// handleFleet implements POST /v1/fleet: one Monte Carlo fleet run under
// a single admission slot (the fan-out inside is bounded separately by
// FleetParallelism), cached and coalesced on the canonical spec encoding
// — fleets are deterministic at any parallelism, so a cached result is
// exactly what a re-run would produce.
func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request, st *endpointStats) {
	var req FleetRequest
	if err := decodeJSON(r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	spec, err := req.normalize(s.cfg.MaxFleetVehicles, s.cfg.MaxFleetDays)
	if err != nil {
		s.writeError(w, err)
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	res, outcome, err := cached(ctx, s, st, s.fleetCache, cacheKey(spec), func(ctx context.Context) (*otem.FleetResult, error) {
		return s.runFleet(ctx, spec, otem.WithParallelism(s.cfg.FleetParallelism))
	})
	if err != nil {
		s.writeError(w, err)
		return
	}
	w.Header().Set("X-Cache", string(outcome))
	writeJSON(w, http.StatusOK, otem.EncodeFleet(res))
}

// handleStream implements GET /v1/simulate/stream: one traced run,
// streamed as NDJSON — the first line is the ResultJSON summary (without
// the trace), each following line one TraceStepJSON.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request, st *endpointStats) {
	req, err := fromQuery(r.URL.Query())
	if err != nil {
		s.writeError(w, err)
		return
	}
	spec, err := req.normalize(s.cfg.MaxRepeats)
	if err != nil {
		s.writeError(w, err)
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	res, outcome, err := cached(ctx, s, st, s.simCache, cacheKey(spec), func(ctx context.Context) (otem.Result, error) {
		return s.runSim(ctx, spec)
	})
	if err != nil {
		s.writeError(w, err)
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Cache", string(outcome))
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}

	// json.Encoder terminates every value with a newline, which is
	// exactly one NDJSON record per Encode call.
	wire := otem.EncodeResult(res)
	steps := wire.Trace
	wire.Trace = nil
	enc := json.NewEncoder(w)
	if err := enc.Encode(wire); err != nil {
		return // client went away; nothing sensible left to do
	}
	for i := range steps {
		if err := enc.Encode(steps[i]); err != nil {
			return
		}
		if (i+1)%128 == 0 {
			flush()
		}
	}
	flush()
}

// handlePlan implements POST /v1/plan: the outer scheduling layer of the
// two-layer hierarchical MPC, solved for one route. A plan is a pure
// function of its canonical spec, so the endpoint caches and coalesces on
// it exactly like the simulate endpoints — a navigation frontend can
// request the same route's schedule repeatedly and only the first request
// pays for the solve.
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request, st *endpointStats) {
	var req PlanRequest
	if err := decodeJSON(r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	spec, err := req.normalize(s.cfg.MaxRepeats)
	if err != nil {
		s.writeError(w, err)
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	res, outcome, err := cached(ctx, s, st, s.planCache, cacheKey(spec), func(ctx context.Context) (*otem.Plan, error) {
		return s.runPlan(ctx, spec)
	})
	if err != nil {
		s.writeError(w, err)
		return
	}
	w.Header().Set("X-Cache", string(outcome))
	writeJSON(w, http.StatusOK, otem.EncodePlan(res))
}

// fleetProgressEvent is one NDJSON progress line of GET /v1/fleet/stream.
type fleetProgressEvent struct {
	Event         string `json:"event"` // always "progress"
	VehiclesDone  int    `json:"vehicles_done"`
	VehiclesTotal int    `json:"vehicles_total"`
}

// fleetErrorEvent is the NDJSON error line emitted when a streamed fleet
// run fails after the 200 header has been sent.
type fleetErrorEvent struct {
	Event string `json:"event"` // always "error"
	Error string `json:"error"`
	Code  int    `json:"code"`
}

// handleFleetStream implements GET /v1/fleet/stream: one fleet run as
// NDJSON — a progress line per completed chunk, then the FleetResultJSON
// summary as the final line (distinguished by its "schema" field). The
// run shares /v1/fleet's cache: a cached or coalesced request emits the
// final line only, and the X-Cache header tells which (the header is sent
// with the first progress line, which only the computing leader writes).
func (s *Server) handleFleetStream(w http.ResponseWriter, r *http.Request, st *endpointStats) {
	req, err := fleetFromQuery(r.URL.Query())
	if err != nil {
		s.writeError(w, err)
		return
	}
	spec, err := req.normalize(s.cfg.MaxFleetVehicles, s.cfg.MaxFleetDays)
	if err != nil {
		s.writeError(w, err)
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()

	// Progress must stream while the run executes, so the header goes out
	// with the first write. Only the cache-miss leader writes progress
	// lines, so X-Cache can optimistically say "miss": on a hit or a
	// coalesced wait nothing is written until after the outcome is known,
	// and the header is corrected below before the final line.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Cache", string(cacheMiss))
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	wroteProgress := false
	progress := func(done, total int) {
		// fleet.Run serializes progress callbacks, and the leader's run
		// completes before do returns, so wroteProgress is safely read
		// after the fact.
		wroteProgress = true
		if enc.Encode(fleetProgressEvent{Event: "progress", VehiclesDone: done, VehiclesTotal: total}) == nil && flusher != nil {
			flusher.Flush()
		}
	}

	res, outcome, err := cached(ctx, s, st, s.fleetCache, cacheKey(spec), func(ctx context.Context) (*otem.FleetResult, error) {
		return s.runFleet(ctx, spec,
			otem.WithParallelism(s.cfg.FleetParallelism),
			otem.WithProgress(progress))
	})
	if err != nil {
		if !wroteProgress {
			s.writeError(w, err)
			return
		}
		// The 200 header is already on the wire; the error becomes the
		// stream's final event instead.
		_ = enc.Encode(fleetErrorEvent{Event: "error", Error: clientMessage(err), Code: statusFor(err)})
		return
	}
	if !wroteProgress {
		w.Header().Set("X-Cache", string(outcome))
	}
	_ = enc.Encode(otem.EncodeFleet(res))
	if flusher != nil {
		flusher.Flush()
	}
}

// handleHealthz implements GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	inflight, queued := s.gate.depth()
	writeJSON(w, http.StatusOK, struct {
		Status   string `json:"status"`
		Inflight int64  `json:"inflight"`
		Queued   int64  `json:"queued"`
	}{Status: "ok", Inflight: inflight, Queued: queued})
}

// handleMetrics implements GET /metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	inflight, queued := s.gate.depth()
	if err := s.metrics.writeProm(w, inflight, queued); err != nil {
		s.logf("metrics write: %v", err)
	}
}

// Run serves on ln until ctx is canceled, then drains gracefully for up
// to Config.DrainTimeout. It reuses the bounded worker pool as its
// supervisor: one job serves, the sibling watches the context and
// triggers shutdown, and both get the runner's panic isolation. Returns
// nil after a clean drain.
func (s *Server) Run(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       60 * time.Second,
		ErrorLog:          s.cfg.Log,
		// Requests must survive the SIGTERM cancel so the drain below can
		// finish them; their lifetime is bounded per-request instead.
		BaseContext: func(net.Listener) context.Context { return context.Background() },
	}
	var drainErr error
	err := runner.New(runner.Workers(2)).Run(ctx, 2, func(jctx context.Context, i int) error {
		if i == 0 {
			if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				return fmt.Errorf("serve: %w", err)
			}
			return nil
		}
		<-jctx.Done()
		dctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
		defer cancel()
		drainErr = srv.Shutdown(dctx)
		return nil
	})
	if err != nil && !errors.Is(err, runner.ErrCanceled) {
		return err
	}
	if drainErr != nil {
		return fmt.Errorf("serve: drain: %w", drainErr)
	}
	return nil
}
