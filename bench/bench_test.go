package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (e2e, layer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Workload []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workload) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the driver runs %d", len(spec.Workload), len(workloadNames))
	}
	for i, w := range spec.Workload {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, driver %q", i, w.Name, workloadNames[i])
		}
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layer[m.Name] = m.Unit
	}
	return e2e, layer
}

// TestSmoke runs every workload at smoke size, untraced and traced: the
// correctness checks must pass, every metric BENCHMARK.json declares must be
// reported with its unit and a valid name, and the traced run must write
// well-formed spans.
func TestSmoke(t *testing.T) {
	e2e, layer := declared(t)
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			o := options{workload: w, seed: 1, traced: traced, smoke: true}
			want := e2e
			if traced {
				o.traceOut = filepath.Join(t.TempDir(), "trace.jsonl")
				want = layer
			}
			out, err := run(context.Background(), o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !out.report.Correct || out.report.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d problems=%q",
					w, traced, out.report.Correct, out.report.Attempted, out.problems)
			}
			if len(out.report.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", w, traced, len(out.report.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := out.report.Metrics[name]
				switch {
				case !valid.MatchString(name):
					t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", name)
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w, traced, name)
				case m.Unit != unit:
					t.Errorf("%s: metric %s in %s, BENCHMARK.json says %s", w, name, m.Unit, unit)
				}
			}
			if traced {
				checkTrace(t, o.traceOut)
			}
		}
	}
}

// checkTrace requires JSON-line spans, each ending after it starts, with a
// name, a layer and an operation, whose parents are spans of the same
// operation, then one summary line.
func checkTrace(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	var summary *traceSummary
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if summary != nil {
			t.Fatalf("%s: line after the summary", path)
		}
		var line struct {
			span
			Summary *traceSummary `json:"summary"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if line.Summary != nil {
			summary = line.Summary
			continue
		}
		spans = append(spans, line.span)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if summary == nil || len(spans) == 0 {
		t.Fatalf("%s: %d spans, summary %v", path, len(spans), summary)
	}
	ops := map[int64]int64{}
	for _, s := range spans {
		ops[s.ID] = s.Op
	}
	for _, s := range spans {
		if s.ID == 0 || s.Op < 1 || s.Name == "" || s.Layer == "" || s.End < s.Start {
			t.Fatalf("%s: malformed span %+v", path, s)
		}
		if op, ok := ops[s.Parent]; s.Parent != 0 && (!ok || op != s.Op) {
			t.Fatalf("%s: span %+v has no parent in its operation", path, s)
		}
	}
}

// TestPinMismatchFails checks that a route whose outputs differ from its
// pin counts as a failed operation.
func TestPinMismatchFails(t *testing.T) {
	ps, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	for key, pin := range ps.Routes {
		pin.FinalSoC = "0000000000000000"
		ps.Routes[key] = pin
	}
	w, err := newWorkload(options{workload: "drive_otem", seed: 1, smoke: true}, ps)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	p := newPass(newClock(), 0, nil)
	if err := w.measure(context.Background(), []*pass{p}); err != nil {
		t.Fatal(err)
	}
	if p.failed != p.attempted || p.failed == 0 {
		t.Errorf("failed %d of %d routes with corrupted pins, want all", p.failed, p.attempted)
	}
}

// TestShedRequestsAreRejectedNotFailed checks serve_mixed's accounting of a
// 429: it counts in rejected, is no failed operation, and is neither goodput
// nor a latency sample.
func TestShedRequestsAreRejectedNotFailed(t *testing.T) {
	w := &serveMixed{}
	reqs := []request{{class: classHit, warmKey: "k"}, {class: classHit, warmKey: "k"}}
	tg := &target{
		warm: map[string][]byte{"k": []byte("body")},
		resps: []response{
			{op: 1, due: 0, end: 2e6, code: 200, cache: "hit", body: []byte("body")},
			{op: 2, due: 0, end: 1e5, code: 429},
		},
		busy: 1e9,
	}
	p := newPass(newClock(), 1, nil)
	w.tally(p, tg, reqs)
	switch {
	case p.attempted != 2 || p.failed != 0:
		t.Errorf("attempted %d failed %d, want 2 and 0", p.attempted, p.failed)
	case p.detail["rejected"] != 1:
		t.Errorf("rejected %v, want 1", p.detail["rejected"])
	case p.work != 1 || len(p.latMs) != 1 || p.latMs[0] != 2:
		t.Errorf("goodput %v, latencies %v: want only the answered request", p.work, p.latMs)
	}
}

// TestQuartiles pins the spread computation to Python's
// statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}
