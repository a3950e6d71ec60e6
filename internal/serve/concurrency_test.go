package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/otem"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestCoalescingUnderLoad fires many identical requests at a blocked
// simulator: exactly one computation must run, everyone else coalesces
// onto it, and all clients get the same 200.
func TestCoalescingUnderLoad(t *testing.T) {
	s := newTestServer(Config{MaxInflight: 8})
	release := make(chan struct{})
	var calls atomic.Int64
	stubSim(s, &calls, func(_ context.Context, spec otem.RunSpec) (otem.Result, error) {
		<-release
		return fakeResult(spec), nil
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const clients = 20
	var wg sync.WaitGroup
	codes := make([]int, clients)
	caches := make([]string, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/simulate", "application/json",
				strings.NewReader(`{"method":"OTEM","cycle":"US06","repeats":3}`))
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			codes[i] = resp.StatusCode
			caches[i] = resp.Header.Get("X-Cache")
			readAll(t, resp)
		}(i)
	}

	// Followers block inside the coalescer until the leader finishes.
	// Each one is counted on the flight under the cache lock as it joins,
	// so once the count reaches clients-1 no request can still miss the
	// flight and hit the cache after the release.
	waitFor(t, "all followers joined the flight", func() bool {
		s.simCache.mu.Lock()
		defer s.simCache.mu.Unlock()
		for _, f := range s.simCache.flight {
			return f.followers == clients-1
		}
		return false
	})
	close(release)
	wg.Wait()

	if calls.Load() != 1 {
		t.Errorf("simulator ran %d times for %d identical requests, want 1", calls.Load(), clients)
	}
	var miss, coalesced int
	for i := 0; i < clients; i++ {
		if codes[i] != http.StatusOK {
			t.Errorf("client %d: status %d", i, codes[i])
		}
		switch caches[i] {
		case "miss":
			miss++
		case "coalesced":
			coalesced++
		default:
			t.Errorf("client %d: X-Cache %q", i, caches[i])
		}
	}
	if miss != 1 || coalesced != clients-1 {
		t.Errorf("outcomes: %d miss / %d coalesced, want 1 / %d", miss, coalesced, clients-1)
	}
}

// TestAdmissionSheds429 saturates one execution slot and a one-deep
// queue, then checks the third distinct request is rejected with 429 and
// a Retry-After hint while the first two complete normally.
func TestAdmissionSheds429(t *testing.T) {
	s := newTestServer(Config{MaxInflight: 1, MaxQueue: 1, RetryAfter: 2 * time.Second})
	release := make(chan struct{})
	var calls atomic.Int64
	stubSim(s, &calls, func(_ context.Context, spec otem.RunSpec) (otem.Result, error) {
		<-release
		return fakeResult(spec), nil
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(cycle string, codeCh chan<- int) {
		resp, err := http.Post(ts.URL+"/v1/simulate", "application/json",
			strings.NewReader(fmt.Sprintf(`{"method":"OTEM","cycle":%q}`, cycle)))
		if err != nil {
			t.Errorf("POST %s: %v", cycle, err)
			codeCh <- 0
			return
		}
		readAll(t, resp)
		codeCh <- resp.StatusCode
	}

	aCh, bCh := make(chan int, 1), make(chan int, 1)
	go post("US06", aCh)
	waitFor(t, "first request holds the slot", func() bool {
		inflight, _ := s.gate.depth()
		return inflight == 1
	})
	go post("UDDS", bCh)
	waitFor(t, "second request queued", func() bool {
		_, queued := s.gate.depth()
		return queued == 1
	})

	// The queue is full: a third distinct request must be shed, now.
	resp, err := http.Post(ts.URL+"/v1/simulate", "application/json",
		strings.NewReader(`{"method":"OTEM","cycle":"HWFET"}`))
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third request: status %d, want 429 (body %s)", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", ra)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Code != http.StatusTooManyRequests {
		t.Errorf("429 body %s (%v)", body, err)
	}

	close(release)
	if code := <-aCh; code != http.StatusOK {
		t.Errorf("first request: status %d", code)
	}
	if code := <-bCh; code != http.StatusOK {
		t.Errorf("queued request: status %d", code)
	}
	if got := s.metrics.admissionRejected.Load(); got != 1 {
		t.Errorf("admission_rejected = %d, want 1", got)
	}
}

// TestQueueWaiterCancel abandons a queued request by canceling its
// client context; the slot holder finishes untouched and the waiter's
// queue seat is returned.
func TestQueueWaiterCancel(t *testing.T) {
	s := newTestServer(Config{MaxInflight: 1, MaxQueue: 4})
	release := make(chan struct{})
	var calls atomic.Int64
	stubSim(s, &calls, func(_ context.Context, spec otem.RunSpec) (otem.Result, error) {
		<-release
		return fakeResult(spec), nil
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	aCh := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/simulate", "application/json",
			strings.NewReader(`{"method":"OTEM","cycle":"US06"}`))
		if err != nil {
			aCh <- 0
			return
		}
		readAll(t, resp)
		aCh <- resp.StatusCode
	}()
	waitFor(t, "slot held", func() bool {
		inflight, _ := s.gate.depth()
		return inflight == 1
	})

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/simulate",
		strings.NewReader(`{"method":"OTEM","cycle":"UDDS"}`))
	if err != nil {
		t.Fatal(err)
	}
	waiterErr := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			readAll(t, resp)
		}
		waiterErr <- err
	}()
	waitFor(t, "waiter queued", func() bool {
		_, queued := s.gate.depth()
		return queued == 1
	})
	cancel()
	if err := <-waiterErr; err == nil {
		t.Error("canceled waiter got a response, want a client-side context error")
	}
	waitFor(t, "queue seat returned", func() bool {
		_, queued := s.gate.depth()
		return queued == 0
	})

	close(release)
	if code := <-aCh; code != http.StatusOK {
		t.Errorf("slot holder: status %d", code)
	}
}

// TestHammerAccounting drives a mixed key set from many clients and
// checks the cache accounting is exact: with a generous queue nothing is
// shed, each distinct key runs exactly once and every other request is a
// hit or a coalesce. The stubbed case widens the coalescing window; the
// real case runs the genuine (non-MPC) methodologies concurrently over
// HTTP.
func TestHammerAccounting(t *testing.T) {
	var stubbed, real []string
	for _, cycle := range []string{"US06", "UDDS", "HWFET", "NYCC", "LA92"} {
		stubbed = append(stubbed, fmt.Sprintf(`{"method":"Dual","cycle":%q}`, cycle))
	}
	for _, method := range []string{"Parallel", "ActiveCooling", "Dual"} {
		for _, cycle := range []string{"NYCC", "UDDS"} {
			real = append(real, fmt.Sprintf(`{"method":%q,"cycle":%q}`, method, cycle))
		}
	}
	cases := []struct {
		name               string
		stub               bool
		bodies             []string
		workers, perWorker int
	}{
		{"stubbed", true, stubbed, 8, 40},
		{"real runs", false, real, 4, 6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestServer(Config{MaxInflight: 4, MaxQueue: 10_000})
			var calls atomic.Int64
			if tc.stub {
				stubSim(s, &calls, func(_ context.Context, spec otem.RunSpec) (otem.Result, error) {
					time.Sleep(100 * time.Microsecond) // widen the coalescing window
					return fakeResult(spec), nil
				})
			} else {
				stubSim(s, &calls, otem.RunContext)
			}
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			var wg sync.WaitGroup
			var non200 atomic.Int64
			for w := 0; w < tc.workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < tc.perWorker; i++ {
						resp, err := http.Post(ts.URL+"/v1/simulate", "application/json",
							strings.NewReader(tc.bodies[(w+i)%len(tc.bodies)]))
						if err != nil {
							t.Errorf("worker %d: %v", w, err)
							return
						}
						if resp.StatusCode != http.StatusOK {
							non200.Add(1)
						}
						readAll(t, resp)
					}
				}(w)
			}
			wg.Wait()

			total := int64(tc.workers * tc.perWorker)
			distinct := int64(len(tc.bodies))
			ev := cacheEvents(t, s, "simulate")
			if non200.Load() != 0 {
				t.Errorf("%d non-200 responses", non200.Load())
			}
			if got := s.metrics.admissionRejected.Load(); got != 0 {
				t.Errorf("admission rejected %d with a generous queue", got)
			}
			if got := ev[cacheHit] + ev[cacheMiss] + ev[cacheCoalesced]; got != total {
				t.Errorf("cache outcomes %d (%v), want %d", got, ev, total)
			}
			if calls.Load() != distinct {
				t.Errorf("simulator ran %d times, want %d (once per distinct key)", calls.Load(), distinct)
			}
			if ev[cacheMiss] != distinct {
				t.Errorf("misses = %d, want %d", ev[cacheMiss], distinct)
			}
		})
	}
}

// TestRequestTimeout bounds a runaway simulation by the configured
// per-request budget and reports 504.
func TestRequestTimeout(t *testing.T) {
	s := newTestServer(Config{RequestTimeout: 30 * time.Millisecond})
	var calls atomic.Int64
	stubSim(s, &calls, func(ctx context.Context, spec otem.RunSpec) (otem.Result, error) {
		<-ctx.Done()
		// Mirror the real engine: ErrCanceled wrapping the context cause.
		return otem.Result{}, fmt.Errorf("%w: %w", otem.ErrCanceled, ctx.Err())
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/v1/simulate", `{"method":"OTEM","cycle":"US06"}`)
	readAll(t, resp)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("status %d, want 504", resp.StatusCode)
	}
}
