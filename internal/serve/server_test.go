package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"maps"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/otem"
)

// newTestServer builds a quiet Server; tests reassign runSim/runBatch to
// deterministic stubs where the real simulator would be slow or where
// failure modes must be forced.
// len reports the number of stored entries.
func (c *cache[T]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

func newTestServer(cfg Config) *Server {
	cfg.Log = log.New(io.Discard, "", 0)
	return New(cfg)
}

// fakeResult is the deterministic stub output for one spec.
func fakeResult(spec otem.RunSpec) otem.Result {
	res := otem.Result{
		Controller: string(spec.Method),
		Steps:      4,
		DT:         1,
		QlossPct:   0.001 * float64(spec.Repeats),
		FinalSoC:   0.9,
		FinalSoE:   0.9,
	}
	if spec.Trace {
		tr := &otem.Trace{}
		for i := 0; i < res.Steps; i++ {
			t := float64(i)
			tr.Time = append(tr.Time, t)
			tr.PowerRequest = append(tr.PowerRequest, 1000*t)
			tr.BatteryTemp = append(tr.BatteryTemp, 298)
			tr.CoolantTemp = append(tr.CoolantTemp, 298)
			tr.SoC = append(tr.SoC, 1)
			tr.SoE = append(tr.SoE, 1)
			tr.CoolerPower = append(tr.CoolerPower, 0)
			tr.BatteryPower = append(tr.BatteryPower, 1000*t)
			tr.CapPower = append(tr.CapPower, 0)
			tr.BatteryHeat = append(tr.BatteryHeat, 10)
		}
		res.Trace = tr
	}
	return res
}

// stubSim replaces runSim with a counting fake; runBatch is rebuilt on
// top of it so both endpoints exercise the same stub.
func stubSim(s *Server, counter *atomic.Int64, fn func(ctx context.Context, spec otem.RunSpec) (otem.Result, error)) {
	s.runSim = func(ctx context.Context, spec otem.RunSpec) (otem.Result, error) {
		counter.Add(1)
		return fn(ctx, spec)
	}
	s.runBatch = func(ctx context.Context, specs []otem.RunSpec, _ ...otem.Option) ([]otem.BatchResult, error) {
		out := make([]otem.BatchResult, len(specs))
		for i, spec := range specs {
			out[i].Spec = spec
			out[i].Result, out[i].Err = s.runSim(ctx, spec)
		}
		return out, nil
	}
}

// cacheEvents copies one endpoint's cache outcome counts.
func cacheEvents(t *testing.T, s *Server, endpoint string) map[cacheOutcome]int64 {
	t.Helper()
	for _, st := range s.metrics.endpoints {
		if st.name == endpoint {
			st.mu.Lock()
			defer st.mu.Unlock()
			return maps.Clone(st.cacheEvents)
		}
	}
	t.Fatalf("no metrics record for endpoint %q", endpoint)
	return nil
}

func postJSON(t *testing.T, url string, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return b
}

func TestSimulateOKAndCacheHit(t *testing.T) {
	s := newTestServer(Config{})
	var calls atomic.Int64
	stubSim(s, &calls, func(_ context.Context, spec otem.RunSpec) (otem.Result, error) {
		return fakeResult(spec), nil
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"method":"otem","cycle":"US06","repeats":2}`
	var wires [2]otem.ResultJSON
	wantCache := []string{"miss", "hit"}
	for i := 0; i < 2; i++ {
		resp := postJSON(t, ts.URL+"/v1/simulate", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
		if got := resp.Header.Get("X-Cache"); got != wantCache[i] {
			t.Errorf("request %d: X-Cache = %q, want %q", i, got, wantCache[i])
		}
		if err := json.Unmarshal(readAll(t, resp), &wires[i]); err != nil {
			t.Fatalf("decode: %v", err)
		}
	}
	if calls.Load() != 1 {
		t.Errorf("simulator ran %d times, want 1 (second request must be a cache hit)", calls.Load())
	}
	if wires[0].Schema != otem.ResultSchemaVersion {
		t.Errorf("schema = %q, want %q", wires[0].Schema, otem.ResultSchemaVersion)
	}
	// The lowercase "otem" must have been canonicalized before execution.
	if wires[0].Controller != string(otem.MethodologyOTEM) {
		t.Errorf("controller = %q, want %q", wires[0].Controller, otem.MethodologyOTEM)
	}
	if ev := cacheEvents(t, s, "simulate"); ev[cacheHit] != 1 || ev[cacheMiss] != 1 || ev[cacheCoalesced] != 0 {
		t.Errorf("simulate cache events = %v, want 1 hit / 1 miss / 0 coalesced", ev)
	}
}

func TestSimulateValidation(t *testing.T) {
	s := newTestServer(Config{MaxRepeats: 10})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name, body string
	}{
		{"syntax", `{"method":`},
		{"unknown field", `{"method":"OTEM","cycle":"US06","bogus":1}`},
		{"negative repeats", `{"method":"OTEM","cycle":"US06","repeats":-1}`},
		{"repeats over limit", `{"method":"OTEM","cycle":"US06","repeats":11}`},
		{"negative ucap", `{"method":"OTEM","cycle":"US06","ultracap_farad":-1}`},
		{"trailing data", `{"method":"OTEM","cycle":"US06"} {"again":true}`},
	}
	for _, tc := range cases {
		resp := postJSON(t, ts.URL+"/v1/simulate", tc.body)
		b := readAll(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", tc.name, resp.StatusCode, b)
		}
		var er errorResponse
		if err := json.Unmarshal(b, &er); err != nil || er.Code != http.StatusBadRequest || er.Error == "" {
			t.Errorf("%s: error body %s not a 400 errorResponse (%v)", tc.name, b, err)
		}
	}
}

// TestSimulateUnknownNames drives the real simulation path: unknown cycle
// and methodology names must surface the facade's sentinel errors as 400s.
func TestSimulateUnknownNames(t *testing.T) {
	s := newTestServer(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, body := range []string{
		`{"method":"OTEM","cycle":"NOPE"}`,
		`{"method":"Zorp","cycle":"US06"}`,
	} {
		resp := postJSON(t, ts.URL+"/v1/simulate", body)
		b := readAll(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", body, resp.StatusCode, b)
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	s := newTestServer(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/simulate")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/simulate: status %d, want 405", resp.StatusCode)
	}
}

func TestBatch(t *testing.T) {
	s := newTestServer(Config{})
	var calls atomic.Int64
	stubSim(s, &calls, func(_ context.Context, spec otem.RunSpec) (otem.Result, error) {
		if spec.Cycle == "BAD" {
			return otem.Result{}, fmt.Errorf("run: %w", otem.ErrUnknownCycle)
		}
		return fakeResult(spec), nil
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"specs":[
		{"method":"Parallel","cycle":"US06"},
		{"method":"OTEM","cycle":"BAD"},
		{"method":"Dual","cycle":"UDDS","repeats":2}
	]}`
	for round := 0; round < 2; round++ {
		resp := postJSON(t, ts.URL+"/v1/batch", body)
		raw := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: status %d (body %s)", round, resp.StatusCode, raw)
		}
		var br BatchResponse
		if err := json.Unmarshal(raw, &br); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(br.Results) != 3 {
			t.Fatalf("round %d: %d results, want 3", round, len(br.Results))
		}
		if br.Results[0].Result == nil || br.Results[0].Error != "" {
			t.Errorf("round %d: spec 0 = %+v, want a result", round, br.Results[0])
		}
		if br.Results[1].Result != nil || br.Results[1].Error == "" {
			t.Errorf("round %d: spec 1 = %+v, want an error", round, br.Results[1])
		}
		if br.Results[2].Result == nil {
			t.Errorf("round %d: spec 2 = %+v, want a result", round, br.Results[2])
		}
	}
	// Round 2 serves the two good specs from cache; only the failing spec
	// reruns (errors are never cached).
	if calls.Load() != 4 {
		t.Errorf("simulator ran %d times, want 4 (3 + 1 uncached failure)", calls.Load())
	}
}

func TestBatchValidation(t *testing.T) {
	s := newTestServer(Config{MaxBatchSpecs: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for name, body := range map[string]string{
		"empty":    `{"specs":[]}`,
		"too many": `{"specs":[{"cycle":"a"},{"cycle":"b"},{"cycle":"c"}]}`,
		"bad spec": `{"specs":[{"cycle":"US06","repeats":-3}]}`,
	} {
		resp := postJSON(t, ts.URL+"/v1/batch", body)
		readAll(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

func TestStreamNDJSON(t *testing.T) {
	s := newTestServer(Config{})
	var calls atomic.Int64
	stubSim(s, &calls, func(_ context.Context, spec otem.RunSpec) (otem.Result, error) {
		if !spec.Trace {
			t.Error("stream endpoint must force tracing")
		}
		return fakeResult(spec), nil
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/simulate/stream?method=Parallel&cycle=US06&repeats=2&ultracap_farad=30000")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var lines [][]byte
	for sc.Scan() {
		lines = append(lines, append([]byte(nil), sc.Bytes()...))
	}
	resp.Body.Close()
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 5 { // 1 summary + 4 steps
		t.Fatalf("%d NDJSON lines, want 5", len(lines))
	}
	var head otem.ResultJSON
	if err := json.Unmarshal(lines[0], &head); err != nil {
		t.Fatalf("summary line: %v", err)
	}
	if head.Trace != nil {
		t.Error("summary line must not inline the trace")
	}
	if head.Steps != 4 {
		t.Errorf("summary steps = %d, want 4", head.Steps)
	}
	var step otem.TraceStepJSON
	if err := json.Unmarshal(lines[2], &step); err != nil {
		t.Fatalf("step line: %v", err)
	}
	if step.TimeSeconds != 1 {
		t.Errorf("step 1 time = %g, want 1", step.TimeSeconds)
	}
}

func TestStreamBadQuery(t *testing.T) {
	s := newTestServer(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// NaN and Inf parse as floats but would run (and cache) a result JSON
	// cannot encode; normalize must reject them before the cache.
	for _, q := range []string{"repeats=x", "ultracap_farad=zz", "ultracap_farad=NaN", "ultracap_farad=Inf"} {
		resp, err := http.Get(ts.URL + "/v1/simulate/stream?method=Parallel&cycle=NYCC&" + q)
		if err != nil {
			t.Fatal(err)
		}
		readAll(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, resp.StatusCode)
		}
	}
	if n := s.simCache.len(); n != 0 {
		t.Errorf("rejected queries left %d cache entries", n)
	}
}

func TestHealthz(t *testing.T) {
	s := newTestServer(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	b := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var h struct {
		Status   string `json:"status"`
		Inflight int64  `json:"inflight"`
		Queued   int64  `json:"queued"`
	}
	if err := json.Unmarshal(b, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Inflight != 0 || h.Queued != 0 {
		t.Errorf("healthz = %+v", h)
	}
}

func TestMetricsExposition(t *testing.T) {
	s := newTestServer(Config{})
	var calls atomic.Int64
	stubSim(s, &calls, func(_ context.Context, spec otem.RunSpec) (otem.Result, error) {
		return fakeResult(spec), nil
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	readAll(t, postJSON(t, ts.URL+"/v1/simulate", `{"method":"OTEM","cycle":"US06"}`))
	readAll(t, postJSON(t, ts.URL+"/v1/simulate", `{"method":"OTEM","cycle":"US06"}`))
	// Distinct key: a second miss (the stub accepts any cycle name).
	readAll(t, postJSON(t, ts.URL+"/v1/simulate", `{"method":"OTEM","cycle":"HWFET"}`))

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text := string(readAll(t, resp))
	for _, want := range []string{
		`otem_serve_requests_total{code="200",endpoint="simulate"} 3`,
		`otem_serve_request_duration_seconds_count{endpoint="simulate"} 3`,
		`otem_serve_request_duration_seconds_bucket{endpoint="simulate",le="+Inf"} 3`,
		`otem_serve_admission_rejected_total 0`,
		`otem_serve_admitted_inflight 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n%s", want, text)
		}
	}
	// Every instrumented endpoint exports its own inflight gauge and cache
	// outcome counts; only simulate has seen traffic.
	for _, endpoint := range []string{"simulate", "batch", "stream", "fleet", "fleetstream", "plan"} {
		want := map[cacheOutcome]int{}
		if endpoint == "simulate" {
			want = map[cacheOutcome]int{cacheHit: 1, cacheMiss: 2}
		}
		lines := []string{fmt.Sprintf("otem_serve_inflight{endpoint=%q} 0\n", endpoint)}
		for _, kind := range cacheOutcomes {
			lines = append(lines, fmt.Sprintf("otem_serve_cache_events_total{endpoint=%q,kind=%q} %d\n", endpoint, kind, want[kind]))
		}
		for _, line := range lines {
			if !strings.Contains(text, line) {
				t.Errorf("metrics missing %q", line)
			}
		}
	}
	// Every non-comment line must be "name{...} value" shaped.
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 || !strings.HasPrefix(fields[0], "otem_serve_") {
			t.Errorf("malformed exposition line %q", line)
		}
	}
}

// TestPanicIsolation pins the contract the batch engine gives the server:
// a panicking simulation yields a 500 for that request and the process
// keeps serving.
func TestPanicIsolation(t *testing.T) {
	s := newTestServer(Config{})
	var calls atomic.Int64
	stubSim(s, &calls, func(_ context.Context, spec otem.RunSpec) (otem.Result, error) {
		if spec.Cycle == "US06" {
			panic("poisoned route")
		}
		return fakeResult(spec), nil
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/v1/simulate", `{"method":"OTEM","cycle":"US06"}`)
	b := readAll(t, resp)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("poisoned request: status %d, want 500", resp.StatusCode)
	}
	if strings.Contains(string(b), "poisoned route") {
		t.Errorf("panic value leaked to the client: %s", b)
	}

	resp = postJSON(t, ts.URL+"/v1/simulate", `{"method":"OTEM","cycle":"UDDS"}`)
	readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthy request after panic: status %d, want 200", resp.StatusCode)
	}
}

// TestRunGracefulDrain drives the full lifecycle: Run serves, an
// in-flight request survives the cancellation, and Run returns nil after
// the drain.
func TestRunGracefulDrain(t *testing.T) {
	s := newTestServer(Config{DrainTimeout: 5 * time.Second})
	release := make(chan struct{})
	started := make(chan struct{})
	var calls atomic.Int64
	stubSim(s, &calls, func(ctx context.Context, spec otem.RunSpec) (otem.Result, error) {
		close(started)
		<-release
		return fakeResult(spec), nil
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- s.Run(ctx, ln) }()

	url := "http://" + ln.Addr().String()
	respCh := make(chan *http.Response, 1)
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.Post(url+"/v1/simulate", "application/json",
			strings.NewReader(`{"method":"OTEM","cycle":"US06"}`))
		if err != nil {
			errCh <- err
			return
		}
		respCh <- resp
	}()

	<-started // the request is inside the simulator
	cancel()  // SIGTERM equivalent: stop accepting, drain in-flight
	time.Sleep(20 * time.Millisecond)
	close(release)

	select {
	case resp := <-respCh:
		b := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("drained request: status %d (body %s)", resp.StatusCode, b)
		}
		var wire otem.ResultJSON
		if err := json.Unmarshal(b, &wire); err != nil {
			t.Errorf("drained request body: %v", err)
		}
	case err := <-errCh:
		t.Fatalf("in-flight request failed during drain: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request did not complete")
	}

	select {
	case err := <-runDone:
		if err != nil {
			t.Errorf("Run returned %v, want nil after clean drain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after drain")
	}

	if _, err := net.DialTimeout("tcp", ln.Addr().String(), 200*time.Millisecond); err == nil {
		t.Error("listener still accepting after drain")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newCache[otem.Result](2)
	c.put("a", otem.Result{Steps: 1})
	c.put("b", otem.Result{Steps: 2})
	c.put("c", otem.Result{Steps: 3}) // evicts a
	if _, ok := c.get("a"); ok {
		t.Error("oldest entry survived past the bound")
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}
	// Touch b, then insert d: c is now the eviction victim.
	if _, ok := c.get("b"); !ok {
		t.Fatal("b missing")
	}
	c.put("d", otem.Result{Steps: 4})
	if _, ok := c.get("c"); ok {
		t.Error("recency order ignored: c survived over touched b")
	}
	if _, ok := c.get("b"); !ok {
		t.Error("touched entry evicted")
	}
}

func TestCacheDisabledStillCoalesces(t *testing.T) {
	s := newTestServer(Config{CacheSize: -1})
	var calls atomic.Int64
	stubSim(s, &calls, func(_ context.Context, spec otem.RunSpec) (otem.Result, error) {
		return fakeResult(spec), nil
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"method":"OTEM","cycle":"US06"}`
	readAll(t, postJSON(t, ts.URL+"/v1/simulate", body))
	readAll(t, postJSON(t, ts.URL+"/v1/simulate", body))
	if calls.Load() != 2 {
		t.Errorf("disabled cache: simulator ran %d times, want 2", calls.Load())
	}
	if s.simCache.len() != 0 {
		t.Errorf("disabled cache stored %d entries", s.simCache.len())
	}
}

// TestRunServeError pins the failure path: a dead listener surfaces as an
// error, not a hang.
func TestRunServeError(t *testing.T) {
	s := newTestServer(Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln.Close() // Serve must fail immediately
	if err := s.Run(context.Background(), ln); err == nil {
		t.Fatal("Run on a closed listener returned nil")
	}
}

// TestPprofGated pins the security default: the pprof endpoints are absent
// unless EnablePprof is set, and present (on the server's own mux, not the
// default mux) when it is.
func TestPprofGated(t *testing.T) {
	get := func(s *Server, path string) int {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		return w.Code
	}
	off := newTestServer(Config{})
	if code := get(off, "/debug/pprof/"); code != http.StatusNotFound {
		t.Errorf("pprof disabled: GET /debug/pprof/ = %d, want 404", code)
	}
	on := newTestServer(Config{EnablePprof: true})
	if code := get(on, "/debug/pprof/"); code != http.StatusOK {
		t.Errorf("pprof enabled: GET /debug/pprof/ = %d, want 200", code)
	}
	if code := get(on, "/debug/pprof/symbol"); code != http.StatusOK {
		t.Errorf("pprof enabled: GET /debug/pprof/symbol = %d, want 200", code)
	}
}
