package serve

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/otem"
)

// The fuzz targets below run one request type each from a JSON body
// through the handlers' decoding, normalize and cache key, at the
// server's default limits. Each takes two bodies and checks that nothing
// panics, that a value beyond a server limit is an error (and a
// normalized spec lies within the limits), and that the two requests
// normalize to equal specs exactly when their cache keys are equal.

// fuzzLimits are the server's default limits.
var fuzzLimits = Config{}.withDefaults()

// decodeBody decodes body into v as the handlers do.
func decodeBody(body []byte, v any) error {
	return decodeJSON(httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body)), v)
}

// sameSpec reports whether two normalized specs agree field for field,
// floats by their bits as the canonical encoding renders them.
func sameSpec(a, b any) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i), vb.Field(i)
		if fa.Kind() == reflect.Float64 {
			if math.Float64bits(fa.Float()) != math.Float64bits(fb.Float()) {
				return false
			}
		} else if fa.Interface() != fb.Interface() {
			return false
		}
	}
	return true
}

// keyed is one normalized spec and its cache key.
type keyed struct {
	spec any
	key  string
}

// checkKeys fails unless every pair of specs is equal exactly when its
// keys are.
func checkKeys(t *testing.T, ks []keyed) {
	t.Helper()
	for i := range ks {
		for j := i + 1; j < len(ks); j++ {
			if same, sameKey := sameSpec(ks[i].spec, ks[j].spec), ks[i].key == ks[j].key; same != sameKey {
				t.Fatalf("specs %+v and %+v: equal %v, keys %q and %q", ks[i].spec, ks[j].spec, same, ks[i].key, ks[j].key)
			}
		}
	}
}

// normalizeSimulate normalizes one SimulateRequest and checks its limits;
// ok reports whether it normalized.
func normalizeSimulate(t *testing.T, req SimulateRequest) (spec otem.RunSpec, ok bool) {
	t.Helper()
	maxRepeats := fuzzLimits.MaxRepeats
	spec, err := req.normalize(maxRepeats)
	u := req.UltracapFarad
	beyond := req.Repeats < 0 || req.Repeats > maxRepeats || u < 0 || math.IsNaN(u) || math.IsInf(u, 0)
	if beyond != (err != nil) {
		t.Fatalf("repeats %d, ultracap_farad %g: normalize error %v", req.Repeats, u, err)
	}
	if err != nil {
		return spec, false
	}
	if spec.Repeats < 1 || spec.Repeats > maxRepeats || !(spec.UltracapF > 0) || math.IsInf(spec.UltracapF, 0) {
		t.Fatalf("normalized spec %+v beyond the limits", spec)
	}
	return spec, true
}

// FuzzSimulateRequest fuzzes POST /v1/simulate's request.
func FuzzSimulateRequest(f *testing.F) {
	f.Add([]byte(`{"method":"OTEM","cycle":"UDDS"}`), []byte(`{"method":"otem","cycle":"UDDS","repeats":1,"ultracap_farad":25000}`))
	f.Add([]byte(`{"method":"Parallel","cycle":"US06","repeats":3,"trace":true}`), []byte(`{"method":"Parallel","cycle":"US06","repeats":3}`))
	f.Add([]byte(`{"cycle":"NYCC","repeats":101}`), []byte(`{"cycle":"NYCC","ultracap_farad":-1}`))
	f.Add([]byte(`{"cycle":"NYCC","ultracap_farad":-0}`), []byte(`{"cycle":"NYCC","repeats":-2}`))
	f.Add([]byte(`{"bogus":1}`), []byte(`[1,2]`))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		var ks []keyed
		for _, body := range [][]byte{a, b} {
			var req SimulateRequest
			if decodeBody(body, &req) != nil {
				continue
			}
			if spec, ok := normalizeSimulate(t, req); ok {
				ks = append(ks, keyed{spec, cacheKey(spec)})
			}
		}
		checkKeys(t, ks)
	})
}

// FuzzBatchRequest fuzzes POST /v1/batch's request: the batch's size limit
// and every spec's, and the keys of all specs of both batches.
func FuzzBatchRequest(f *testing.F) {
	f.Add([]byte(`{"specs":[{"method":"OTEM","cycle":"UDDS"},{"method":"otem","cycle":"UDDS","repeats":1}]}`), []byte(`{"specs":[{"cycle":"US06","trace":true}]}`))
	f.Add([]byte(`{"specs":[]}`), []byte(`{"specs":[{"cycle":"NYCC","repeats":500}]}`))
	f.Add([]byte(`{"specs":[{"cycle":"NYCC","ultracap_farad":5e4},{"cycle":"NYCC","ultracap_farad":-3}]}`), []byte(`{}`))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		var ks []keyed
		for _, body := range [][]byte{a, b} {
			var req BatchRequest
			if decodeBody(body, &req) != nil {
				continue
			}
			specs, err := req.normalize(fuzzLimits.MaxBatchSpecs, fuzzLimits.MaxRepeats)
			n := len(req.Specs)
			beyond := n == 0 || n > fuzzLimits.MaxBatchSpecs
			if !beyond {
				for _, sr := range req.Specs {
					if _, ok := normalizeSimulate(t, sr); !ok {
						beyond = true
					}
				}
			}
			if beyond != (err != nil) {
				t.Fatalf("%d specs: normalize error %v", n, err)
			}
			for _, spec := range specs {
				ks = append(ks, keyed{spec, cacheKey(spec)})
			}
		}
		checkKeys(t, ks)
	})
}

// FuzzFleetRequest fuzzes POST /v1/fleet's request.
func FuzzFleetRequest(f *testing.F) {
	f.Add([]byte(`{"vehicles":4}`), []byte(`{"vehicles":4,"days":1,"method":"otem","ultracap_farad":25000,"route_seconds":600,"horizon":40}`))
	f.Add([]byte(`{"vehicles":513}`), []byte(`{"vehicles":2,"days":8}`))
	f.Add([]byte(`{"vehicles":2,"horizon":1001}`), []byte(`{"vehicles":2,"route_seconds":59,"method":"Parallel"}`))
	f.Add([]byte(`{"vehicles":3,"seed":-7,"route_seconds":-0}`), []byte(`{"vehicles":3,"seed":-7,"method":"Bogus"}`))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		maxVehicles, maxDays := fuzzLimits.MaxFleetVehicles, fuzzLimits.MaxFleetDays
		var ks []keyed
		for _, body := range [][]byte{a, b} {
			var req FleetRequest
			if decodeBody(body, &req) != nil {
				continue
			}
			spec, err := req.normalize(maxVehicles, maxDays)
			beyond := req.Vehicles < 1 || req.Vehicles > maxVehicles || req.Days < 0 || req.Days > maxDays ||
				req.Horizon < 0 || req.Horizon > maxHorizon
			if beyond && err == nil {
				t.Fatalf("request %+v beyond the limits normalized", req)
			}
			if err != nil {
				continue
			}
			if spec.Vehicles > maxVehicles || spec.Days < 1 || spec.Days > maxDays || spec.Horizon < 1 || spec.Horizon > maxHorizon {
				t.Fatalf("normalized spec %+v beyond the limits", spec)
			}
			ks = append(ks, keyed{spec, cacheKey(spec)})
		}
		checkKeys(t, ks)
	})
}

// FuzzPlanRequest fuzzes POST /v1/plan's request.
func FuzzPlanRequest(f *testing.F) {
	f.Add([]byte(`{"usage":"commuter"}`), []byte(`{"usage":"commuter","seed":1,"route_seconds":900,"repeats":1}`))
	f.Add([]byte(`{"cycle":"UDDS","soc_ref_weight":-1}`), []byte(`{"cycle":"UDDS","soc_ref_weight":-2}`))
	f.Add([]byte(`{"cycle":"UDDS","repeats":101}`), []byte(`{"usage":"highway","horizon":1001}`))
	f.Add([]byte(`{"cycle":"UDDS","route_seconds":-0}`), []byte(`{"cycle":"UDDS","route_seconds":0}`))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		maxRepeats := fuzzLimits.MaxRepeats
		var ks []keyed
		for _, body := range [][]byte{a, b} {
			var req PlanRequest
			if decodeBody(body, &req) != nil {
				continue
			}
			spec, err := req.normalize(maxRepeats)
			beyond := req.Repeats < 0 || req.Repeats > maxRepeats || req.Horizon > maxHorizon
			if beyond != (err != nil) {
				t.Fatalf("repeats %d, horizon %d: normalize error %v", req.Repeats, req.Horizon, err)
			}
			if err != nil {
				continue
			}
			if spec.Repeats < 1 || spec.Repeats > maxRepeats || spec.Horizon > maxHorizon {
				t.Fatalf("normalized spec %+v beyond the limits", spec)
			}
			ks = append(ks, keyed{spec, cacheKey(spec)})
		}
		checkKeys(t, ks)
	})
}
