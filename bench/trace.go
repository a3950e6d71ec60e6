package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
)

// clock reads monotonic nanoseconds since a pass began.
type clock struct{ epoch time.Time }

func newClock() *clock { return &clock{epoch: time.Now()} }

func (c *clock) now() int64 { return int64(time.Since(c.epoch)) }

// span is one timed call at a layer boundary, recorded by the benchmark's own
// wrappers around the public functions of each layer. Spans of one operation
// (a route, a fleet run, a request) share Op; Parent is the ID of the
// enclosing span, 0 for an operation's root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps a traced pass's spans in memory until the run ends. A nil
// tracer records nothing, which is how the untraced pass runs the same code.
type tracer struct {
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

func (t *tracer) add(s ...span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s...)
	t.mu.Unlock()
}

// selfNs sums self time, a span's duration minus the part its direct
// children cover, per layer, per span name, and per operation over the
// layers other than the bench harness.
func selfNs(spans []span) (byLayer, byName map[string]int64, layersByOp map[int64]int64) {
	child := make(map[int64]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	byLayer, byName, layersByOp = map[string]int64{}, map[string]int64{}, map[int64]int64{}
	for _, s := range spans {
		self := s.End - s.Start - child[s.ID]
		byLayer[s.Layer] += self
		byName[s.Name] += self
		if s.Layer != "bench" {
			layersByOp[s.Op] += self
		}
	}
	return byLayer, byName, layersByOp
}

// traceSummary is the last line of a trace file: the traced pass's time and
// work, and the self time of every layer and every span name.
type traceSummary struct {
	Workload string           `json:"workload"`
	Seed     int64            `json:"seed"`
	WallNs   int64            `json:"wall_ns"`
	OpNs     int64            `json:"op_ns"`
	Work     float64          `json:"work"`
	SelfNs   map[string]int64 `json:"self_ns"`
	NameNs   map[string]int64 `json:"span_self_ns"`
}

// writeTrace writes the spans as JSON lines, then one {"summary": …} line.
func writeTrace(path string, spans []span, sum traceSummary) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("trace: %w", err)
		}
	}
	if err := enc.Encode(struct {
		Summary traceSummary `json:"summary"`
	}{sum}); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

// Kinds of observed Decide calls.
const (
	callExec   uint8 = iota // executed the current plan
	callReplan              // re-solved the horizon problem (core)
	callOuter               // also re-solved the outer schedule (hmpc)
)

// call is one observed Decide: clock readings at entry and exit, what the
// controller did, the step's power request and the action it returned. The
// layer probes replay the requests and actions of a recorded route.
type call struct {
	start, end int64
	kind       uint8
	request    float64
	act        sim.Action
}

// observer wraps a controller and records every Decide. The replan counters
// of the wrapped controller, read before and after each call, split replans
// from plan execution. ForecastDepth is forwarded, so a batched rollout
// keeps the fill depth of the controller it wraps.
type observer struct {
	ctrl    sim.Controller
	replans func() int // nil for controllers that never replan
	outers  func() int // nil without an outer layer
	clk     *clock
	calls   []call
}

func newObserver(ctrl sim.Controller, clk *clock, steps int) *observer {
	return &observer{ctrl: ctrl, clk: clk, calls: make([]call, 0, steps)}
}

func (o *observer) Name() string { return o.ctrl.Name() }

func (o *observer) ForecastDepth() int {
	if fr, ok := o.ctrl.(sim.ForecastReader); ok {
		return fr.ForecastDepth()
	}
	return -1
}

func (o *observer) Decide(p *sim.Plant, forecast []float64) sim.Action {
	var r0, q0 int
	if o.replans != nil {
		r0 = o.replans()
	}
	if o.outers != nil {
		q0 = o.outers()
	}
	start := o.clk.now()
	act := o.ctrl.Decide(p, forecast)
	c := call{start: start, end: o.clk.now(), request: forecast[0], act: act}
	switch {
	case o.outers != nil && o.outers() != q0:
		c.kind = callOuter
	case o.replans != nil && o.replans() != r0:
		c.kind = callReplan
	}
	o.calls = append(o.calls, c)
	return act
}

// spans renders the observed calls as children of the span parent, on the
// layer that did the work: an outer replan belongs to hmpc, everything else
// to core.
func (o *observer) spans(t *tracer, op, parent int64) []span {
	if t == nil {
		return nil
	}
	out := make([]span, len(o.calls))
	for i, c := range o.calls {
		name, layer := "core.Decide", "core"
		if c.kind == callOuter {
			name, layer = "hmpc.Decide", "hmpc"
		}
		out[i] = span{ID: t.newID(), Parent: parent, Op: op, Name: name, Layer: layer, Start: c.start, End: c.end}
	}
	return out
}

// decisions accumulates observed Decide calls across routes.
type decisions struct {
	replanNs, execNs, stepNs []float64
	calls, replans           int
	replanTotal              int64 // ns in replanning calls
}

// add folds in one route's calls; routeEnd closes the last step.
func (d *decisions) add(calls []call, routeEnd int64) {
	for i, c := range calls {
		next := routeEnd
		if i+1 < len(calls) {
			next = calls[i+1].start
		}
		d.stepNs = append(d.stepNs, float64(next-c.start))
		dur := c.end - c.start
		switch c.kind {
		case callReplan:
			d.replans++
			d.replanNs = append(d.replanNs, float64(dur))
			d.replanTotal += dur
		case callExec:
			d.execNs = append(d.execNs, float64(dur))
		}
	}
	d.calls += len(calls)
}

// merge folds o's calls into d.
func (d *decisions) merge(o *decisions) {
	d.replanNs = append(d.replanNs, o.replanNs...)
	d.execNs = append(d.execNs, o.execNs...)
	d.stepNs = append(d.stepNs, o.stepNs...)
	d.calls += o.calls
	d.replans += o.replans
	d.replanTotal += o.replanTotal
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	f := pos - float64(i)
	return xs[i]*(1-f) + xs[i+1]*f
}

// quartiles matches Python's statistics.quantiles(xs, n=4), the
// "exclusive" method: the quartile cut points of at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	if n == 1 {
		return d[0], d[0], d[0]
	}
	m := n + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}
