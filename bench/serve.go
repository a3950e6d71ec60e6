package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/otem"
)

// serveRate is serve_mixed's open-loop arrival rate, requests per second.
const serveRate = 60

// serveLimit is the latency within which a 2xx response counts as goodput.
const serveLimit = time.Second

// Request classes of the serve_mixed mix.
const (
	classHit      = iota // one of the eight keys warmed during setup
	classColdSim         // a baseline /v1/simulate with a distinct ultracap_farad
	classColdPlan        // a /v1/plan with a distinct seed
	classColdOTEM        // an OTEM US06 /v1/simulate with a distinct ultracap_farad
)

// simBody and planBody are the request bodies the benchmark sends.
type simBody struct {
	Method        string  `json:"method"`
	Cycle         string  `json:"cycle"`
	UltracapFarad float64 `json:"ultracap_farad,omitempty"`
}

type planBody struct {
	Usage string `json:"usage"`
	Seed  int64  `json:"seed"`
}

func mustJSON(v any) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of strings and numbers always encode
	}
	return raw
}

// newServer returns a server with the production defaults and a silent log.
func newServer() http.Handler {
	return serve.New(serve.Config{Log: log.New(io.Discard, "", 0)}).Handler()
}

// post sends one request through the handler, without sockets.
func post(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

// warmServer builds a server and warms the eight hot keys (every
// methodology on NYCC and US06), returning each key's response body.
func warmServer() (http.Handler, map[string][]byte, error) {
	h := newServer()
	bodies := map[string][]byte{}
	for _, m := range otem.Methodologies() {
		for _, c := range []string{"NYCC", "US06"} {
			key := string(mustJSON(simBody{Method: string(m), Cycle: c}))
			rec := post(h, "/v1/simulate", []byte(key))
			if rec.Code != http.StatusOK {
				return nil, nil, fmt.Errorf("warm %s: status %d: %s", key, rec.Code, rec.Body.Bytes())
			}
			bodies[key] = bytes.Clone(rec.Body.Bytes())
		}
	}
	return h, bodies, nil
}

// request is one scheduled serve_mixed request.
type request struct {
	class   int
	path    string
	body    []byte
	method  string // the controller a /v1/simulate result must name
	plan    string // the canonical spec a /v1/plan result must echo
	warmKey string // the warm body a hit must reproduce
}

// serveMixed is an open loop at serveRate against one in-process server:
// 80 % hits on eight warmed keys, 12 % cold baseline simulations, 5 % cold
// route plans and 3 % cold OTEM US06 simulations. Latency is timed from
// each request's due time, so a stall counts against every request it
// delays.
type serveMixed struct {
	seed  int64
	smoke bool
	pins  *pinSet
	h     http.Handler
	warm  map[string][]byte
	keys  []string
}

func (w *serveMixed) setup() error {
	h, warm, err := warmServer()
	if err != nil {
		return err
	}
	w.h, w.warm = h, warm
	w.keys = w.keys[:0]
	for _, m := range otem.Methodologies() {
		for _, c := range []string{"NYCC", "US06"} {
			w.keys = append(w.keys, string(mustJSON(simBody{Method: string(m), Cycle: c})))
		}
	}
	return nil
}

// serveMix is the request mix per block of serveBlock requests, by class.
// The schedule shuffles each block on its own, so every run sends the same
// mix and only the order and the parameters follow the seed.
var serveMix = [...]int{classHit: 80, classColdSim: 12, classColdPlan: 5, classColdOTEM: 3}

const serveBlock = 100 // the sum of serveMix

// schedule draws the pass's requests from the seed.
func (w *serveMixed) schedule(n int) []request {
	rng := rand.New(rand.NewSource(w.seed))
	baselines := []string{string(otem.MethodologyParallel), string(otem.MethodologyCooling), string(otem.MethodologyDual)}
	cycles := []string{"NYCC", "US06"}
	usages := []string{"commuter", "delivery", "highway"}
	var block []int
	for class, count := range serveMix {
		for j := 0; j < count; j++ {
			block = append(block, class)
		}
	}
	reqs := make([]request, n)
	for i := range reqs {
		if i%len(block) == 0 {
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		r := &reqs[i]
		r.class = block[i%len(block)]
		switch r.class {
		case classHit:
			r.path = "/v1/simulate"
			r.warmKey = w.keys[rng.Intn(len(w.keys))]
			r.body = []byte(r.warmKey)
		case classColdSim:
			r.path = "/v1/simulate"
			r.method = baselines[rng.Intn(len(baselines))]
			r.body = mustJSON(simBody{Method: r.method, Cycle: cycles[rng.Intn(len(cycles))], UltracapFarad: float64(20000 + i)})
		case classColdPlan:
			r.path = "/v1/plan"
			b := planBody{Usage: usages[rng.Intn(len(usages))], Seed: int64(1000 + i)}
			r.body = mustJSON(b)
			r.plan = otem.Canonical(otem.PlanSpec{Usage: b.Usage, Seed: b.Seed})
		case classColdOTEM:
			r.path = "/v1/simulate"
			r.method = string(otem.MethodologyOTEM)
			r.body = mustJSON(simBody{Method: r.method, Cycle: "US06", UltracapFarad: float64(26000 + i)})
		}
	}
	return reqs
}

// response is what one request observed: clock readings when it was due,
// when the handler started and when it returned.
type response struct {
	op              int64
	due, start, end int64
	code            int
	cache           string
	body            []byte
}

// target is one pass's server and what its requests observed.
type target struct {
	h     http.Handler
	warm  map[string][]byte
	resps []response
	lags  []float64 // generator lateness per request, ms
	busy  int64     // first due time to last response
}

// measure sends the seeded schedule at serveRate. A traced run gives each
// pass its own warmed server and half the time, and alternates the passes
// one block of the mix at a time, so a drift in machine speed reaches both
// alike: an open loop cannot pair its passes request by request.
func (w *serveMixed) measure(ctx context.Context, ps []*pass) error {
	seconds := float64(ps[0].deadline) / 1e9 / float64(len(ps))
	if w.smoke {
		seconds = 1
	}
	reqs := w.schedule(max(1, int(seconds*serveRate)))
	targets := make(map[*pass]*target, len(ps))
	for j, p := range ps {
		h, warm := w.h, w.warm
		if j > 0 {
			var err error
			if h, warm, err = warmServer(); err != nil {
				return fmt.Errorf("setup: %w", err)
			}
		}
		targets[p] = &target{h: h, warm: warm, resps: make([]response, len(reqs)), lags: make([]float64, len(reqs))}
	}
	block := len(reqs)
	if len(ps) > 1 {
		block = serveBlock
	}
	for k, lo := 0, 0; lo < len(reqs); k, lo = k+1, lo+block {
		hi := min(lo+block, len(reqs))
		interleave(ps, k, func(p *pass) { w.send(ctx, p, targets[p], reqs, lo, hi) })
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	for _, p := range ps {
		w.tally(p, targets[p], reqs)
	}
	return nil
}

// send dispatches requests [lo, hi) on their due times, each on its own
// goroutine, and waits for them all.
func (w *serveMixed) send(ctx context.Context, p *pass, t *target, reqs []request, lo, hi int) {
	period := int64(time.Second) / serveRate
	var wg sync.WaitGroup
	begin := p.clk.now()
	for i := lo; i < hi && ctx.Err() == nil; i++ {
		due := begin + int64(i-lo)*period
		if d := due - p.clk.now(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		t.lags[i] = float64(p.clk.now()-due) / 1e6
		op := p.newOp()
		t.resps[i].due, t.resps[i].op = due, op
		wg.Add(1)
		go func(i int, op int64) {
			defer wg.Done()
			r := &t.resps[i]
			r.start = p.clk.now()
			rec := post(t.h, reqs[i].path, reqs[i].body)
			r.end = p.clk.now()
			r.code, r.cache, r.body = rec.Code, rec.Header().Get("X-Cache"), rec.Body.Bytes()
			if p.tr != nil {
				// The wait from the due time to the handler's start is time
				// the request queued for a processor the server's work held.
				root := p.tr.newID()
				p.tr.add(
					span{ID: root, Op: op, Name: "request", Layer: "bench", Start: r.due, End: r.end},
					span{ID: p.tr.newID(), Parent: root, Op: op, Name: "serve.wait", Layer: "serve", Start: r.due, End: r.start},
					span{ID: p.tr.newID(), Parent: root, Op: op, Name: "serve.ServeHTTP", Layer: "serve", Start: r.start, End: r.end})
			}
		}(i, op)
	}
	wg.Wait()
	t.busy += p.clk.now() - begin
}

// tally checks a pass's responses and books its metrics. A request the
// server sheds with 429 is load the production admission limits refused: it
// counts in rejected, not as a failed operation, and it is neither goodput
// nor a latency sample.
func (w *serveMixed) tally(p *pass, t *target, reqs []request) {
	for _, key := range w.keys {
		p.attempted++
		if err := w.pins.checkBody(key, t.warm[key]); err != nil {
			p.fail("%v", err)
		}
	}
	var (
		good, hits, coalesced, rejected int
		hitLat, otemLat                 []float64
	)
	for i := range reqs {
		rq, r := &reqs[i], &t.resps[i]
		p.attempted++
		switch r.cache {
		case "hit":
			hits++
		case "coalesced":
			coalesced++
		}
		if r.code == http.StatusTooManyRequests {
			rejected++
			continue
		}
		lat := float64(r.end-r.due) / 1e6
		p.latMs = append(p.latMs, lat)
		p.opNs[r.op] = r.end - r.due
		if err := w.check(rq, r, t.warm); err != nil {
			p.fail("request %d %s %s: %v", i, rq.path, rq.body, err)
			continue
		}
		switch rq.class {
		case classHit:
			hitLat = append(hitLat, lat)
		case classColdOTEM:
			otemLat = append(otemLat, lat)
		}
		if lat <= float64(serveLimit.Milliseconds()) {
			good++
		}
	}
	p.work = float64(good)
	p.opsPerS = float64(good) / (float64(t.busy) / 1e9)
	p.detail["goodput_rps"] = p.opsPerS
	p.detail["p50_ms"] = quantile(append([]float64(nil), p.latMs...), 0.50)
	p.detail["p99_ms"] = quantile(append([]float64(nil), p.latMs...), 0.99)
	p.detail["hit_p99_ms"] = quantile(hitLat, 0.99)
	p.detail["cold_otem_p50_ms"] = quantile(otemLat, 0.50)
	p.detail["gen_lag_ms_p99"] = quantile(t.lags, 0.99)
	p.detail["hit_ratio"] = float64(hits) / float64(len(reqs))
	p.detail["coalesced"] = float64(coalesced)
	p.detail["rejected"] = float64(rejected)
}

// check validates one response: a 2xx status, a hit's body byte-identical
// to its warm body, and every other body decoding as otem.result/v1 or
// otem.plan/v1 and echoing its request.
func (w *serveMixed) check(rq *request, r *response, warm map[string][]byte) error {
	if r.code/100 != 2 {
		return fmt.Errorf("status %d: %s", r.code, r.body)
	}
	switch rq.class {
	case classHit:
		if !bytes.Equal(r.body, warm[rq.warmKey]) {
			return fmt.Errorf("hit body differs from its warm body")
		}
	case classColdPlan:
		var pj otem.PlanJSON
		if err := json.Unmarshal(r.body, &pj); err != nil {
			return err
		}
		if pj.Schema != otem.PlanSchemaVersion || pj.Spec != rq.plan || pj.Blocks < 1 {
			return fmt.Errorf("plan %s/%s does not echo %s", pj.Schema, pj.Spec, rq.plan)
		}
	default:
		var rj otem.ResultJSON
		if err := json.Unmarshal(r.body, &rj); err != nil {
			return err
		}
		if rj.Schema != otem.ResultSchemaVersion || rj.Controller != rq.method || rj.Steps < 1 || !(rj.QlossPct > 0) {
			return fmt.Errorf("result %s/%s/%d steps does not echo method %s", rj.Schema, rj.Controller, rj.Steps, rq.method)
		}
	}
	return nil
}
