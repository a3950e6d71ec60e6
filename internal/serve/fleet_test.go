package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/otem"
)

// stubFleet wraps runFleet with a counting shim around the real fleet
// simulator: counting proves cache behaviour while the result stays the
// genuine deterministic article (digest, sketches, families).
func stubFleet(s *Server, counter *atomic.Int64) {
	real := s.runFleet
	s.runFleet = func(ctx context.Context, spec otem.FleetSpec, opts ...otem.Option) (*otem.FleetResult, error) {
		counter.Add(1)
		return real(ctx, spec, opts...)
	}
}

func TestFleetOKAndCacheHit(t *testing.T) {
	s := newTestServer(Config{})
	var calls atomic.Int64
	stubFleet(s, &calls)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"vehicles":6,"seed":11,"method":"parallel","route_seconds":120}`
	var bodies [2][]byte
	wantCache := []string{"miss", "hit"}
	for i := 0; i < 2; i++ {
		resp := postJSON(t, ts.URL+"/v1/fleet", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, readAll(t, resp))
		}
		if got := resp.Header.Get("X-Cache"); got != wantCache[i] {
			t.Errorf("request %d: X-Cache = %q, want %q", i, got, wantCache[i])
		}
		bodies[i] = readAll(t, resp)
	}
	if calls.Load() != 1 {
		t.Errorf("fleet ran %d times, want 1 (second request must be a cache hit)", calls.Load())
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Error("cache hit served a different body than the original run")
	}

	var wire otem.FleetResultJSON
	if err := json.Unmarshal(bodies[0], &wire); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if wire.Schema != otem.FleetSchemaVersion {
		t.Errorf("schema = %q, want %q", wire.Schema, otem.FleetSchemaVersion)
	}
	if wire.Vehicles != 6 {
		t.Errorf("vehicles = %d, want 6", wire.Vehicles)
	}
	if len(wire.Digest) != 16 {
		t.Errorf("digest = %q, want 16 hex chars", wire.Digest)
	}
	// The lowercase "parallel" must have been canonicalized before the
	// spec was encoded into the cache key and response.
	if !strings.Contains(wire.Spec, "m=Parallel") {
		t.Errorf("spec %q does not carry the canonical methodology", wire.Spec)
	}
	if ev := cacheEvents(t, s, "fleet"); ev[cacheHit] != 1 || ev[cacheMiss] != 1 {
		t.Errorf("fleet cache events = %v, want 1 hit / 1 miss", ev)
	}
}

func TestFleetValidation(t *testing.T) {
	s := newTestServer(Config{MaxFleetVehicles: 100, MaxFleetDays: 3})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		body string
	}{
		{"missing vehicles", `{}`},
		{"zero vehicles", `{"vehicles":0}`},
		{"too many vehicles", `{"vehicles":101}`},
		{"negative days", `{"vehicles":4,"days":-1}`},
		{"too many days", `{"vehicles":4,"days":4}`},
		{"negative ultracap", `{"vehicles":4,"ultracap_farad":-1}`},
		{"short route", `{"vehicles":4,"route_seconds":30}`},
		{"long route", `{"vehicles":1,"route_seconds":7201}`},
		{"unbounded route", `{"vehicles":1,"route_seconds":1e12}`},
		{"negative horizon", `{"vehicles":4,"horizon":-1}`},
		{"unknown method", `{"vehicles":4,"method":"bogus"}`},
		{"malformed json", `{"vehicles":`},
		{"unknown field", `{"vehicles":4,"warp":9}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postJSON(t, ts.URL+"/v1/fleet", tc.body)
			body := readAll(t, resp)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (body %s)", resp.StatusCode, body)
			}
			var er errorResponse
			if err := json.Unmarshal(body, &er); err != nil || er.Code != http.StatusBadRequest {
				t.Errorf("error body %s (%v)", body, err)
			}
		})
	}
}

// TestFleetAdmission429 checks a fleet run holds exactly one admission
// slot and distinct fleet requests are shed once the queue is full.
func TestFleetAdmission429(t *testing.T) {
	s := newTestServer(Config{MaxInflight: 1, MaxQueue: 1, RetryAfter: 2 * time.Second})
	release := make(chan struct{})
	var calls atomic.Int64
	s.runFleet = func(ctx context.Context, spec otem.FleetSpec, _ ...otem.Option) (*otem.FleetResult, error) {
		calls.Add(1)
		<-release
		return otem.RunFleet(ctx, spec)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(seed int, codeCh chan<- int) {
		resp, err := http.Post(ts.URL+"/v1/fleet", "application/json",
			strings.NewReader(fmt.Sprintf(`{"vehicles":2,"seed":%d,"method":"Parallel","route_seconds":60}`, seed)))
		if err != nil {
			t.Errorf("POST seed %d: %v", seed, err)
			codeCh <- 0
			return
		}
		readAll(t, resp)
		codeCh <- resp.StatusCode
	}

	aCh, bCh := make(chan int, 1), make(chan int, 1)
	go post(1, aCh)
	waitFor(t, "first fleet holds the slot", func() bool {
		inflight, _ := s.gate.depth()
		return inflight == 1
	})
	go post(2, bCh)
	waitFor(t, "second fleet queued", func() bool {
		_, queued := s.gate.depth()
		return queued == 1
	})

	resp := postJSON(t, ts.URL+"/v1/fleet", `{"vehicles":2,"seed":3,"method":"Parallel","route_seconds":60}`)
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third fleet: status %d, want 429 (body %s)", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", ra)
	}

	close(release)
	if code := <-aCh; code != http.StatusOK {
		t.Errorf("first fleet: status %d", code)
	}
	if code := <-bCh; code != http.StatusOK {
		t.Errorf("queued fleet: status %d", code)
	}
}

// TestFleetCoalescing: identical fleet requests arriving while the first
// is in flight wait on its computation instead of running again.
func TestFleetCoalescing(t *testing.T) {
	s := newTestServer(Config{MaxInflight: 4})
	release := make(chan struct{})
	var calls atomic.Int64
	s.runFleet = func(ctx context.Context, spec otem.FleetSpec, _ ...otem.Option) (*otem.FleetResult, error) {
		calls.Add(1)
		<-release
		return otem.RunFleet(ctx, spec)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const clients = 3
	body := `{"vehicles":2,"seed":5,"method":"Parallel","route_seconds":60}`
	codes := make(chan int, clients)
	for i := 0; i < clients; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/v1/fleet", "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("POST: %v", err)
				codes <- 0
				return
			}
			readAll(t, resp)
			codes <- resp.StatusCode
		}()
	}
	waitFor(t, "leader in flight", func() bool { return calls.Load() == 1 })
	waitFor(t, "followers waiting", func() bool {
		s.fleetCache.mu.Lock()
		defer s.fleetCache.mu.Unlock()
		return len(s.fleetCache.flight) == 1
	})
	close(release)
	for i := 0; i < clients; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Errorf("client %d: status %d", i, code)
		}
	}
	if calls.Load() != 1 {
		t.Errorf("fleet ran %d times for %d identical requests, want 1", calls.Load(), clients)
	}
}

// TestFleetMetrics: the fleet endpoint shows up in the Prometheus
// exposition with its own inflight gauge and request counters.
func TestFleetMetrics(t *testing.T) {
	s := newTestServer(Config{})
	var calls atomic.Int64
	stubFleet(s, &calls)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/v1/fleet", `{"vehicles":2,"method":"Parallel","route_seconds":60}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fleet: status %d", resp.StatusCode)
	}
	readAll(t, resp)

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	exposition := string(readAll(t, mresp))
	for _, want := range []string{
		`otem_serve_requests_total{code="200",endpoint="fleet"} 1`,
		`otem_serve_inflight{endpoint="fleet"} 0`,
		`otem_serve_request_duration_seconds_count{endpoint="fleet"} 1`,
	} {
		if !strings.Contains(exposition, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}
