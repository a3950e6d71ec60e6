package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/otem"
)

// stubPlan wraps runPlan with a counting shim around the real solver, so
// cache behaviour is observable while the plan stays the genuine article.
func stubPlan(s *Server, counter *atomic.Int64) {
	real := s.runPlan
	s.runPlan = func(ctx context.Context, spec otem.PlanSpec) (*otem.Plan, error) {
		counter.Add(1)
		return real(ctx, spec)
	}
}

func TestPlanOKAndCacheHit(t *testing.T) {
	s := newTestServer(Config{})
	var calls atomic.Int64
	stubPlan(s, &calls)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"cycle":"NYCC","ambient_kelvin":308}`
	var bodies [2][]byte
	wantCache := []string{"miss", "hit"}
	for i := 0; i < 2; i++ {
		resp := postJSON(t, ts.URL+"/v1/plan", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, readAll(t, resp))
		}
		if got := resp.Header.Get("X-Cache"); got != wantCache[i] {
			t.Errorf("request %d: X-Cache = %q, want %q", i, got, wantCache[i])
		}
		bodies[i] = readAll(t, resp)
	}
	if calls.Load() != 1 {
		t.Errorf("plan solved %d times, want 1 (second request must be a cache hit)", calls.Load())
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Error("cache hit served a different body than the original solve")
	}

	var wire otem.PlanJSON
	if err := json.Unmarshal(bodies[0], &wire); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if wire.Schema != otem.PlanSchemaVersion {
		t.Errorf("schema = %q, want %q", wire.Schema, otem.PlanSchemaVersion)
	}
	if wire.Blocks < 2 || len(wire.SoC) != wire.Blocks+1 || len(wire.CapU) != wire.Blocks {
		t.Errorf("degenerate plan geometry: blocks=%d soc=%d capU=%d", wire.Blocks, len(wire.SoC), len(wire.CapU))
	}
	if wire.Spec != otem.Canonical(otem.PlanSpec{Cycle: "NYCC", AmbientK: 308}) {
		t.Errorf("spec %q is not the canonical encoding of the request", wire.Spec)
	}
}

func TestPlanValidation(t *testing.T) {
	s := newTestServer(Config{MaxRepeats: 10})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		body string
	}{
		{"negative repeats", `{"repeats":-1}`},
		{"repeats over server limit", `{"repeats":11}`},
		{"unknown cycle", `{"cycle":"BOGUS"}`},
		{"unknown usage", `{"usage":"aviation"}`},
		{"short route", `{"route_seconds":10}`},
		{"bad ambient", `{"ambient_kelvin":100}`},
		{"bad block length", `{"block_seconds":0.25}`},
		{"too many blocks", `{"max_blocks":1000}`},
		{"malformed json", `{"cycle":`},
		{"unknown field", `{"cycle":"UDDS","warp":9}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postJSON(t, ts.URL+"/v1/plan", tc.body)
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

// TestPlanFleetCachesAreDistinct: the plan cache and the simulate/fleet
// caches are separate instantiations, so same-route requests on different
// endpoints cannot collide (the canonical prefixes differ too).
func TestPlanFleetCachesAreDistinct(t *testing.T) {
	s := newTestServer(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/v1/plan", `{"cycle":"NYCC"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan: status %d: %s", resp.StatusCode, readAll(t, resp))
	}
	readAll(t, resp)
	if s.planCache.len() != 1 {
		t.Errorf("plan cache entries = %d, want 1", s.planCache.len())
	}
	if s.simCache.len() != 0 || s.fleetCache.len() != 0 {
		t.Errorf("plan run leaked into other caches: sim=%d fleet=%d", s.simCache.len(), s.fleetCache.len())
	}
}

// fleetStreamLines runs one GET /v1/fleet/stream request and splits the
// NDJSON body into raw lines.
func fleetStreamLines(t *testing.T, url string) (*http.Response, [][]byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	var lines [][]byte
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		lines = append(lines, append([]byte(nil), sc.Bytes()...))
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan: %v", err)
	}
	resp.Body.Close()
	return resp, lines
}

func TestFleetStreamOK(t *testing.T) {
	s := newTestServer(Config{})
	var calls atomic.Int64
	stubFleet(s, &calls)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	url := ts.URL + "/v1/fleet/stream?vehicles=6&seed=11&method=parallel&route_seconds=120"
	resp, lines := fleetStreamLines(t, url)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); got != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", got)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("X-Cache = %q, want miss", got)
	}
	if len(lines) < 2 {
		t.Fatalf("got %d lines, want progress plus summary", len(lines))
	}
	var lastDone int
	for _, line := range lines[:len(lines)-1] {
		var ev fleetProgressEvent
		if err := json.Unmarshal(line, &ev); err != nil || ev.Event != "progress" {
			t.Fatalf("bad progress line %s (%v)", line, err)
		}
		if ev.VehiclesTotal != 6 || ev.VehiclesDone <= lastDone || ev.VehiclesDone > 6 {
			t.Fatalf("implausible progress %+v after done=%d", ev, lastDone)
		}
		lastDone = ev.VehiclesDone
	}
	if lastDone != 6 {
		t.Errorf("final progress done = %d, want 6", lastDone)
	}
	var wire otem.FleetResultJSON
	if err := json.Unmarshal(lines[len(lines)-1], &wire); err != nil {
		t.Fatalf("decode summary: %v", err)
	}
	if wire.Schema != otem.FleetSchemaVersion || wire.Vehicles != 6 {
		t.Errorf("summary %+v", wire)
	}

	// The same spec again is a cache hit served from /v1/fleet's cache:
	// one line only, and the summary is byte-identical.
	resp2, lines2 := fleetStreamLines(t, url)
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("second request X-Cache = %q, want hit", got)
	}
	if len(lines2) != 1 {
		t.Fatalf("cache hit streamed %d lines, want 1", len(lines2))
	}
	if !bytes.Equal(lines2[0], lines[len(lines)-1]) {
		t.Error("cached summary differs from the streamed one")
	}
	if calls.Load() != 1 {
		t.Errorf("fleet ran %d times, want 1", calls.Load())
	}

	// And POST /v1/fleet shares the same cache entry.
	resp3 := postJSON(t, ts.URL+"/v1/fleet", `{"vehicles":6,"seed":11,"method":"parallel","route_seconds":120}`)
	if got := resp3.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("POST /v1/fleet after stream: X-Cache = %q, want hit", got)
	}
	readAll(t, resp3)
}

func TestFleetStreamValidation(t *testing.T) {
	s := newTestServer(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, q := range []string{
		"",                      // missing vehicles
		"vehicles=0",            // zero vehicles
		"vehicles=abc",          // non-integer
		"vehicles=4&seed=x",     // bad seed
		"vehicles=4&days=-1",    // negative days
		"vehicles=4&method=wat", // unknown method
		"vehicles=4&route_seconds=nope",
		"vehicles=1&route_seconds=Inf", // the route synthesizer would never finish
		"vehicles=1&route_seconds=NaN",
		"vehicles=1&route_seconds=7201",
		"vehicles=1&ultracap_farad=NaN",
		"vehicles=1&ultracap_farad=Inf",
	} {
		resp, err := http.Get(ts.URL + "/v1/fleet/stream?" + q)
		if err != nil {
			t.Fatalf("GET %q: %v", q, err)
		}
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("query %q: status %d, want 400 (body %s)", q, resp.StatusCode, body)
		}
	}
}
