package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/otem"
)

// BenchmarkSimulateColdKeys measures the uncoalesced handler path: every
// iteration is a distinct cache key against a stubbed simulator, so the
// number is pure serving overhead (routing, decode, cache, admission,
// pool, encode).
func BenchmarkSimulateColdKeys(b *testing.B) {
	s := newTestServer(Config{})
	var calls atomic.Int64
	stubSim(s, &calls, func(_ context.Context, spec otem.RunSpec) (otem.Result, error) {
		return fakeResult(spec), nil
	})
	h := s.Handler()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/simulate",
			strings.NewReader(fmt.Sprintf(`{"method":"Dual","cycle":"US06","repeats":%d}`, i%100+1)))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d", w.Code)
		}
	}
}

// BenchmarkSimulateHotKey measures the cache-hit path.
func BenchmarkSimulateHotKey(b *testing.B) {
	s := newTestServer(Config{})
	var calls atomic.Int64
	stubSim(s, &calls, func(_ context.Context, spec otem.RunSpec) (otem.Result, error) {
		return fakeResult(spec), nil
	})
	h := s.Handler()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/simulate",
			strings.NewReader(`{"method":"Dual","cycle":"US06"}`))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d", w.Code)
		}
	}
}
