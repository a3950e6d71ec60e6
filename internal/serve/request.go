package serve

import (
	"fmt"
	"math"
	"net/url"
	"strconv"
	"strings"

	"repro/otem"
)

// SimulateRequest is the wire form of one simulation request, shared by
// POST /v1/simulate, the specs of POST /v1/batch and (as query
// parameters) GET /v1/simulate/stream. The zero values select the
// experiment-suite defaults: repeats 1, a 25 kF ultracapacitor bank.
type SimulateRequest struct {
	// Method is a methodology name ("Parallel", "ActiveCooling", "Dual",
	// "OTEM"), matched case-insensitively.
	Method string `json:"method"`
	// Cycle is a standard drive-cycle name ("US06", "UDDS", …).
	Cycle string `json:"cycle"`
	// Repeats plays the cycle back to back.
	Repeats int `json:"repeats,omitempty"`
	// UltracapFarad is the ultracapacitor bank size.
	UltracapFarad float64 `json:"ultracap_farad,omitempty"`
	// Trace includes the per-step trace in the response (/v1/simulate
	// only; the stream endpoint always traces).
	Trace bool `json:"trace,omitempty"`
}

// BatchRequest is the wire form of POST /v1/batch.
type BatchRequest struct {
	// Specs are the runs of the grid, evaluated concurrently.
	Specs []SimulateRequest `json:"specs"`
}

// BatchResponse is the wire form of the /v1/batch reply: one entry per
// spec, in request order.
type BatchResponse struct {
	Results []BatchEntry `json:"results"`
}

// BatchEntry reports one spec's outcome; exactly one of Result and Error
// is set.
type BatchEntry struct {
	Spec   SimulateRequest  `json:"spec"`
	Result *otem.ResultJSON `json:"result,omitempty"`
	Error  string           `json:"error,omitempty"`
}

// errorResponse is the JSON error body of every non-2xx reply.
type errorResponse struct {
	Error string `json:"error"`
	Code  int    `json:"code"`
}

// normalize validates the request shape, canonicalizes the methodology
// case and applies the experiment-suite defaults, returning the RunSpec
// to execute. Name resolution (unknown cycle/methodology) is left to the
// simulation itself so its errors carry the sentinel values the error
// mapper translates to 400.
func (r SimulateRequest) normalize(maxRepeats int) (otem.RunSpec, error) {
	if r.Repeats < 0 {
		return otem.RunSpec{}, fmt.Errorf("%w: repeats %d is negative", errBadRequest, r.Repeats)
	}
	if r.Repeats > maxRepeats {
		return otem.RunSpec{}, fmt.Errorf("%w: repeats %d exceeds the limit %d", errBadRequest, r.Repeats, maxRepeats)
	}
	if r.UltracapFarad < 0 {
		return otem.RunSpec{}, fmt.Errorf("%w: ultracap_farad %g is negative", errBadRequest, r.UltracapFarad)
	}
	if math.IsNaN(r.UltracapFarad) || math.IsInf(r.UltracapFarad, 0) {
		return otem.RunSpec{}, fmt.Errorf("%w: ultracap_farad %g is not finite", errBadRequest, r.UltracapFarad)
	}
	spec := otem.RunSpec{
		Method:    resolveMethod(r.Method),
		Cycle:     r.Cycle,
		Repeats:   r.Repeats,
		UltracapF: r.UltracapFarad,
		Trace:     r.Trace,
	}
	return spec.Resolved(), nil
}

// normalize validates the batch's size against maxSpecs and normalizes
// each spec, returning the RunSpecs to execute in request order.
func (r BatchRequest) normalize(maxSpecs, maxRepeats int) ([]otem.RunSpec, error) {
	if len(r.Specs) == 0 {
		return nil, fmt.Errorf("%w: specs is empty", errBadRequest)
	}
	if len(r.Specs) > maxSpecs {
		return nil, fmt.Errorf("%w: %d specs exceed the limit %d", errBadRequest, len(r.Specs), maxSpecs)
	}
	specs := make([]otem.RunSpec, len(r.Specs))
	for i, sr := range r.Specs {
		spec, err := sr.normalize(maxRepeats)
		if err != nil {
			return nil, fmt.Errorf("spec %d: %w", i, err)
		}
		specs[i] = spec
	}
	return specs, nil
}

// resolveMethod maps a case-insensitive methodology spelling onto the
// canonical presentation name. Unknown spellings pass through verbatim so
// the run fails with otem.ErrUnknownBaseline and an exact echo of the
// input.
func resolveMethod(name string) otem.Methodology {
	for _, m := range otem.Methodologies() {
		if strings.EqualFold(name, string(m)) {
			return m
		}
	}
	return otem.Methodology(name)
}

// cacheKey is the canonical encoding of a normalized spec (RunSpec,
// FleetSpec, …): the one code path shared with CLI JSON output and fleet
// digests. Two requests get the same key exactly when they describe the
// same deterministic computation, so the key is safe to cache and
// coalesce on.
func cacheKey(spec otem.CanonicalSpec) string {
	return otem.Canonical(spec)
}

// maxHorizon bounds the controller horizon of fleet and plan requests: a
// controller sizes its tape, forecast and reference buffers by it, so an
// unbounded horizon would let one request allocate without limit.
const maxHorizon = 1000

// FleetRequest is the wire form of POST /v1/fleet. Zero values select the
// FleetSpec defaults (1 day, OTEM methodology, 25 kF bank, 600 s routes).
type FleetRequest struct {
	// Vehicles is the fleet size (required).
	Vehicles int `json:"vehicles"`
	// Days is how many daily routes each vehicle drives.
	Days int `json:"days,omitempty"`
	// Seed is the fleet master seed.
	Seed int64 `json:"seed,omitempty"`
	// Method is a methodology name, matched case-insensitively.
	Method string `json:"method,omitempty"`
	// UltracapFarad is the ultracapacitor bank size.
	UltracapFarad float64 `json:"ultracap_farad,omitempty"`
	// RouteSeconds is the target duration of each synthesized route.
	RouteSeconds float64 `json:"route_seconds,omitempty"`
	// Horizon is the controller forecast window.
	Horizon int `json:"horizon,omitempty"`
}

// normalize validates the request shape against the server's fleet limits
// and returns the FleetSpec to execute, its defaults resolved.
func (r FleetRequest) normalize(maxVehicles, maxDays int) (otem.FleetSpec, error) {
	switch {
	case r.Vehicles < 1:
		return otem.FleetSpec{}, fmt.Errorf("%w: vehicles %d, must be >= 1", errBadRequest, r.Vehicles)
	case r.Vehicles > maxVehicles:
		return otem.FleetSpec{}, fmt.Errorf("%w: vehicles %d exceeds the limit %d", errBadRequest, r.Vehicles, maxVehicles)
	case r.Days < 0:
		return otem.FleetSpec{}, fmt.Errorf("%w: days %d is negative", errBadRequest, r.Days)
	case r.Days > maxDays:
		return otem.FleetSpec{}, fmt.Errorf("%w: days %d exceeds the limit %d", errBadRequest, r.Days, maxDays)
	case r.UltracapFarad < 0:
		return otem.FleetSpec{}, fmt.Errorf("%w: ultracap_farad %g is negative", errBadRequest, r.UltracapFarad)
	case r.RouteSeconds < 0:
		return otem.FleetSpec{}, fmt.Errorf("%w: route_seconds %g is negative", errBadRequest, r.RouteSeconds)
	case r.Horizon < 0:
		return otem.FleetSpec{}, fmt.Errorf("%w: horizon %d is negative", errBadRequest, r.Horizon)
	case r.Horizon > maxHorizon:
		return otem.FleetSpec{}, fmt.Errorf("%w: horizon %d exceeds the limit %d", errBadRequest, r.Horizon, maxHorizon)
	}
	spec := otem.FleetSpec{
		Vehicles:     r.Vehicles,
		Days:         r.Days,
		Seed:         r.Seed,
		Method:       resolveMethod(r.Method),
		UltracapF:    r.UltracapFarad,
		RouteSeconds: r.RouteSeconds,
		Horizon:      r.Horizon,
	}
	if r.Method == "" {
		spec.Method = "" // keep the FleetSpec default (OTEM)
	}
	if err := spec.Validate(); err != nil {
		return otem.FleetSpec{}, fmt.Errorf("%w: %w", errBadRequest, err)
	}
	return spec.Resolved(), nil
}

// PlanRequest is the wire form of POST /v1/plan: the outer scheduling
// layer of the two-layer hierarchical MPC, solved for one route. Exactly
// one route source applies: a registered cycle name, or a synthesized
// route from usage/seed/route_seconds. Zero values select the PlanSpec
// defaults; the weight and tolerance fields treat a negative value as the
// explicit off switch.
type PlanRequest struct {
	// Cycle is a standard drive-cycle name ("US06", "UDDS", …).
	Cycle string `json:"cycle,omitempty"`
	// Usage is the fleet usage class shaping a synthesized route
	// ("commuter", "delivery", "highway").
	Usage string `json:"usage,omitempty"`
	// Seed drives the route synthesiser.
	Seed int64 `json:"seed,omitempty"`
	// RouteSeconds is the synthesized route duration.
	RouteSeconds float64 `json:"route_seconds,omitempty"`
	// Repeats plays the route back to back.
	Repeats int `json:"repeats,omitempty"`
	// UltracapFarad is the ultracapacitor bank size.
	UltracapFarad float64 `json:"ultracap_farad,omitempty"`
	// AmbientKelvin is the outside-air temperature.
	AmbientKelvin float64 `json:"ambient_kelvin,omitempty"`
	// Horizon is the inner controller's forecast window, steps.
	Horizon int `json:"horizon,omitempty"`
	// BlockSeconds is the outer coarse-grid block length; MaxBlocks caps
	// the outer horizon.
	BlockSeconds float64 `json:"block_seconds,omitempty"`
	MaxBlocks    int     `json:"max_blocks,omitempty"`
	// SoCRefWeight / TempRefWeight are the inner tracking weights; the
	// *Tol fields are the inner and outer divergence tolerances.
	SoCRefWeight       float64 `json:"soc_ref_weight,omitempty"`
	TempRefWeight      float64 `json:"temp_ref_weight,omitempty"`
	SoCTol             float64 `json:"soc_tol,omitempty"`
	TempTolKelvin      float64 `json:"temp_tol_kelvin,omitempty"`
	OuterSoCTol        float64 `json:"outer_soc_tol,omitempty"`
	OuterTempTolKelvin float64 `json:"outer_temp_tol_kelvin,omitempty"`
}

// normalize validates the request shape against the server's limits and
// returns the PlanSpec to solve, its defaults resolved. Range validation
// beyond the server limits happens inside the solve, whose errors carry
// otem.ErrBadPlanSpec (mapped to 400).
func (r PlanRequest) normalize(maxRepeats int) (otem.PlanSpec, error) {
	if r.Repeats < 0 {
		return otem.PlanSpec{}, fmt.Errorf("%w: repeats %d is negative", errBadRequest, r.Repeats)
	}
	if r.Repeats > maxRepeats {
		return otem.PlanSpec{}, fmt.Errorf("%w: repeats %d exceeds the limit %d", errBadRequest, r.Repeats, maxRepeats)
	}
	if r.Horizon > maxHorizon {
		return otem.PlanSpec{}, fmt.Errorf("%w: horizon %d exceeds the limit %d", errBadRequest, r.Horizon, maxHorizon)
	}
	spec := otem.PlanSpec{
		Cycle:         r.Cycle,
		Usage:         r.Usage,
		Seed:          r.Seed,
		RouteSeconds:  r.RouteSeconds,
		Repeats:       r.Repeats,
		UltracapF:     r.UltracapFarad,
		AmbientK:      r.AmbientKelvin,
		Horizon:       r.Horizon,
		BlockSeconds:  r.BlockSeconds,
		MaxBlocks:     r.MaxBlocks,
		SoCRefWeight:  r.SoCRefWeight,
		TempRefWeight: r.TempRefWeight,
		SoCTol:        r.SoCTol,
		TempTolK:      r.TempTolKelvin,
		OuterSoCTol:   r.OuterSoCTol,
		OuterTempTolK: r.OuterTempTolKelvin,
	}
	return spec.Resolved(), nil
}

// fleetFromQuery builds a FleetRequest from the fleet-stream endpoint's
// query parameters: vehicles, days, seed, method, ultracap_farad,
// route_seconds, horizon.
func fleetFromQuery(q url.Values) (FleetRequest, error) {
	req := FleetRequest{Method: q.Get("method")}
	for _, f := range []struct {
		name string
		dst  *int
	}{
		{"vehicles", &req.Vehicles},
		{"days", &req.Days},
		{"horizon", &req.Horizon},
	} {
		if s := q.Get(f.name); s != "" {
			n, err := strconv.Atoi(s)
			if err != nil {
				return FleetRequest{}, fmt.Errorf("%w: %s %q is not an integer", errBadRequest, f.name, s)
			}
			*f.dst = n
		}
	}
	if s := q.Get("seed"); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return FleetRequest{}, fmt.Errorf("%w: seed %q is not an integer", errBadRequest, s)
		}
		req.Seed = n
	}
	for _, f := range []struct {
		name string
		dst  *float64
	}{
		{"ultracap_farad", &req.UltracapFarad},
		{"route_seconds", &req.RouteSeconds},
	} {
		if s := q.Get(f.name); s != "" {
			u, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return FleetRequest{}, fmt.Errorf("%w: %s %q is not a number", errBadRequest, f.name, s)
			}
			*f.dst = u
		}
	}
	return req, nil
}

// fromQuery builds a SimulateRequest from stream-endpoint query
// parameters: method, cycle, repeats, ultracap_farad.
func fromQuery(q url.Values) (SimulateRequest, error) {
	req := SimulateRequest{
		Method: q.Get("method"),
		Cycle:  q.Get("cycle"),
		Trace:  true,
	}
	if s := q.Get("repeats"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			return SimulateRequest{}, fmt.Errorf("%w: repeats %q is not an integer", errBadRequest, s)
		}
		req.Repeats = n
	}
	if s := q.Get("ultracap_farad"); s != "" {
		u, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return SimulateRequest{}, fmt.Errorf("%w: ultracap_farad %q is not a number", errBadRequest, s)
		}
		req.UltracapFarad = u
	}
	return req, nil
}
