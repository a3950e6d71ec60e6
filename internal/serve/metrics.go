package serve

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// latencyBuckets are the histogram upper bounds in seconds, chosen to
// straddle the observed range from cache hits (microseconds) to full MPC
// routes (seconds).
var latencyBuckets = []float64{0.0005, 0.001, 0.005, 0.025, 0.1, 0.5, 1, 2.5, 5, 10}

// cacheOutcomes lists the cache outcome kinds in exposition order.
var cacheOutcomes = []cacheOutcome{cacheCoalesced, cacheHit, cacheMiss}

// endpointStats is one instrumented endpoint's metrics record: status
// codes, the latency histogram, the inflight gauge and the cache outcome
// counts. Counters are plain ints guarded by mu: the exposition has to
// lock for a consistent snapshot anyway, and the per-request cost is one
// short critical section.
type endpointStats struct {
	name string
	// inflight counts requests currently inside the endpoint's handler.
	inflight atomic.Int64

	mu sync.Mutex
	// byCode counts completed requests per HTTP status code.
	byCode map[int]int64
	// buckets holds cumulative-style histogram counts per latencyBuckets
	// entry (bucket i counts observations ≤ latencyBuckets[i]).
	buckets []int64
	// count and sum are the histogram totals (sum in seconds).
	count int64
	sum   float64
	// cacheEvents counts how the endpoint's requests met the result cache.
	cacheEvents map[cacheOutcome]int64
}

// observe records one completed request.
func (st *endpointStats) observe(code int, elapsed time.Duration) {
	sec := elapsed.Seconds()
	st.mu.Lock()
	defer st.mu.Unlock()
	st.byCode[code]++
	st.count++
	st.sum += sec
	for i, le := range latencyBuckets {
		if sec <= le {
			st.buckets[i]++
		}
	}
}

// book records one cache outcome.
func (st *endpointStats) book(outcome cacheOutcome) {
	st.mu.Lock()
	st.cacheEvents[outcome]++
	st.mu.Unlock()
}

// metrics is the hand-rolled Prometheus registry of the server: one
// endpointStats per instrumented route plus the admission counter. All
// methods are safe for concurrent use once the routes are registered.
type metrics struct {
	// endpoints is sorted by name so the exposition is deterministic.
	endpoints []*endpointStats

	// admissionRejected counts requests shed with 429.
	admissionRejected atomic.Int64
}

// register adds the record for one instrumented endpoint. It runs while
// New mounts the routes, before the server handles any request.
func (m *metrics) register(endpoint string) *endpointStats {
	st := &endpointStats{
		name:        endpoint,
		byCode:      make(map[int]int64),
		buckets:     make([]int64, len(latencyBuckets)),
		cacheEvents: make(map[cacheOutcome]int64),
	}
	m.endpoints = append(m.endpoints, st)
	sort.Slice(m.endpoints, func(i, j int) bool { return m.endpoints[i].name < m.endpoints[j].name })
	return st
}

// writeProm renders the registry in Prometheus text exposition format
// (version 0.0.4). Series are emitted in sorted label order so the output
// is deterministic and diffable.
func (m *metrics) writeProm(w io.Writer, inflightTotal, queued int64) error {
	var b []byte
	appendf := func(format string, args ...any) {
		b = append(b, fmt.Sprintf(format, args...)...)
	}
	family := func(name, typ, help string, each func(st *endpointStats)) {
		appendf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		for _, st := range m.endpoints {
			st.mu.Lock()
			each(st)
			st.mu.Unlock()
		}
	}

	family("otem_serve_requests_total", "counter", "Completed HTTP requests by endpoint and status code.", func(st *endpointStats) {
		codes := make([]int, 0, len(st.byCode))
		for code := range st.byCode {
			codes = append(codes, code)
		}
		sort.Ints(codes)
		for _, code := range codes {
			appendf("otem_serve_requests_total{code=%q,endpoint=%q} %d\n", strconv.Itoa(code), st.name, st.byCode[code])
		}
	})
	family("otem_serve_request_duration_seconds", "histogram", "Request latency by endpoint.", func(st *endpointStats) {
		for i, le := range latencyBuckets {
			appendf("otem_serve_request_duration_seconds_bucket{endpoint=%q,le=%q} %d\n",
				st.name, strconv.FormatFloat(le, 'g', -1, 64), st.buckets[i])
		}
		appendf("otem_serve_request_duration_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", st.name, st.count)
		appendf("otem_serve_request_duration_seconds_sum{endpoint=%q} %s\n",
			st.name, strconv.FormatFloat(st.sum, 'g', -1, 64))
		appendf("otem_serve_request_duration_seconds_count{endpoint=%q} %d\n", st.name, st.count)
	})
	family("otem_serve_inflight", "gauge", "Requests currently being handled, by endpoint.", func(st *endpointStats) {
		appendf("otem_serve_inflight{endpoint=%q} %d\n", st.name, st.inflight.Load())
	})

	appendf("# HELP otem_serve_admitted_inflight Simulation slots currently held.\n")
	appendf("# TYPE otem_serve_admitted_inflight gauge\n")
	appendf("otem_serve_admitted_inflight %d\n", inflightTotal)
	appendf("# HELP otem_serve_admission_queued Requests waiting for a simulation slot.\n")
	appendf("# TYPE otem_serve_admission_queued gauge\n")
	appendf("otem_serve_admission_queued %d\n", queued)
	appendf("# HELP otem_serve_admission_rejected_total Requests shed with 429 because the queue was full.\n")
	appendf("# TYPE otem_serve_admission_rejected_total counter\n")
	appendf("otem_serve_admission_rejected_total %d\n", m.admissionRejected.Load())

	family("otem_serve_cache_events_total", "counter", "Result-cache outcomes by endpoint and kind (hit, miss, coalesced).", func(st *endpointStats) {
		for _, kind := range cacheOutcomes {
			appendf("otem_serve_cache_events_total{endpoint=%q,kind=%q} %d\n", st.name, kind, st.cacheEvents[kind])
		}
	})

	_, err := w.Write(b)
	if err != nil {
		return fmt.Errorf("serve: write metrics: %w", err)
	}
	return nil
}
