// Command bench is the repository's benchmark driver: five end-to-end
// workloads over the OTEM stack, each measured by an untraced pass for the
// end-to-end metrics and by a traced pass plus layer probes for the
// per-layer metrics. From the root of a checkout:
//
//	bash bench/run.sh --workload drive_otem --seed 1 --seconds 17 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it is the
// workload's detail report, and the first line records the host. A run
// whose outputs do not match the pins in pins.json, or whose operations
// fail, exits non-zero. -runs N re-runs the binary N times per workload with
// N seeds and prints the median and quartiles of every metric; -record-pins
// rewrites pins.json. README.md documents workloads, metrics and the trace
// format.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"drive_otem", "drive_hmpc", "fleet_otem", "fleet_parallel", "serve_mixed"}

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the untraced pass's metrics, reported on every workload.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"setup_s", "s"},
}

// familyNames are the fleet scenario families as metric-name segments.
var familyNames = []string{
	"commuter-cold", "commuter-temperate", "commuter-hot",
	"delivery-cold", "delivery-temperate", "delivery-hot",
	"highway-cold", "highway-temperate", "highway-hot",
}

// perLayer are the traced run's metrics, reported on every workload. Shares
// and counts of a layer the workload does not reach read 0; every time is
// measured on every workload, by the layer probes where the workload itself
// does not call the layer through a bench wrapper.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"core.self_share", "1"},
		{"core.replan_share", "1"},
		{"core.replans_per_step", "1"},
		{"core.replan_us_p50", "us"},
		{"core.replan_us_p99", "us"},
		{"core.exec_ns_p50", "ns"},
		{"sim.rest_share", "1"},
		{"sim.step_us_p50", "us"},
		{"sim.step_us_p99", "us"},
		{"sim.batch_ns_per_lane_step", "ns"},
		{"sim.batch_decide_share", "1"},
		{"hees.step_hybrid_ns", "ns"},
		{"hees.step_parallel_ns", "ns"},
		{"hees.busbatch_ns_per_lane", "ns"},
		{"cooling.step_active_ns", "ns"},
		{"cooling.step_passive_ns", "ns"},
		{"drivecycle.synth_us_per_route", "us"},
		{"charger.charge_us", "us"},
		{"hmpc.build_ms_p50", "ms"},
		{"hmpc.outer_replans_per_route", "1"},
		{"hmpc.divergence_replans_per_route", "1"},
		{"hmpc.outer_share", "1"},
		{"fleet.self_share", "1"},
		{"fleet.tail_frac", "1"},
		{"serve.self_share", "1"},
		{"serve.wait_share", "1"},
		{"serve.hit_us_p50", "us"},
		{"serve.miss_overhead_us_p50", "us"},
		{"serve.hit_ratio", "1"},
		{"serve.coalesced", "count"},
		{"serve.rejected", "count"},
		{"bench.self_share", "1"},
		{"layer_sum_err", "1"},
		{"trace_overhead", "1"},
	}
	for _, f := range familyNames {
		defs = append(defs, metricDef{"fleet.family." + f + ".us_per_step", "us"})
	}
	return defs
}()

// setupRepeats is how many times a run sets its workload up; setup_s is the
// median.
const setupRepeats = 3

// options are one run's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	traceOut string
	// smoke shrinks every workload to a few seconds of work; only the unit
	// tests set it.
	smoke bool
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line a run prints.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is everything one run measured.
type outcome struct {
	report   report
	detail   map[string]float64
	problems []string
}

// workload is one benchmark input set and the operations run on it.
type workload interface {
	// setup builds the seeded inputs and warms caches; it is timed.
	setup() error
	// measure runs operations until the deadline, at least one, and
	// records them in the passes: one untraced pass, or an untraced and a
	// traced pass that get the same inputs. Failed operations are recorded
	// in the passes; the error is for failures that stop the run.
	measure(ctx context.Context, ps []*pass) error
	// inputs returns the representative inputs the layer probes are fed.
	inputs() inputs
}

func newWorkload(o options, ps *pinSet) (workload, error) {
	switch o.workload {
	case "drive_otem":
		return &driveOTEM{seed: o.seed, smoke: o.smoke, pins: ps}, nil
	case "drive_hmpc":
		return &driveHMPC{seed: o.seed, smoke: o.smoke, pins: ps}, nil
	case "fleet_otem":
		return &fleetOTEM{seed: o.seed, smoke: o.smoke, pins: ps}, nil
	case "fleet_parallel":
		return &fleetParallel{seed: o.seed, smoke: o.smoke, pins: ps}, nil
	case "serve_mixed":
		return &serveMixed{seed: o.seed, smoke: o.smoke, pins: ps}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (known: %s)", o.workload, strings.Join(workloadNames, ", "))
}

// pass is one measurement pass over a workload: what it completed, how long
// each operation took and, when traced, the spans.
type pass struct {
	clk      *clock
	tr       *tracer // nil on the untraced pass
	deadline int64   // clk reading after which no operation starts
	opIDs    int64

	work      float64         // units of work done: steps, vehicles or good requests
	rates     []float64       // per-operation work rates, whose median is ops_per_s
	opsPerS   float64         // the workload's ops_per_s
	latMs     []float64       // per-cycle, per-vehicle or per-request latencies, ms
	tailMs    []float64       // the latency_p99_ms sample where it is not latMs
	opNs      map[int64]int64 // wall time per operation ID
	attempted int
	failed    int
	problems  []string

	dec decisions  // Decide calls observed through bench wrappers
	rec *recording // the traced pass's first route, for the layer probes
	// routes, outers and divergences count two-layer routes and their
	// outer and divergence replans; buildMs times their hmpc.Build calls.
	routes, outers, divergences int
	buildMs                     []float64
	detail                      map[string]float64
}

func newPass(clk *clock, seconds float64, tr *tracer) *pass {
	return &pass{
		clk:      clk,
		tr:       tr,
		deadline: int64(seconds * 1e9),
		opNs:     map[int64]int64{},
		detail:   map[string]float64{},
	}
}

// rounds calls round until the next round, if it lasted as long as the
// last, would end past the deadline; the first round always runs. Stopping
// only between rounds keeps every pass's input mix whole, and judging by the
// last round keeps a run from overshooting its time by up to a round.
func (p *pass) rounds(round func(r int) error) error {
	var last int64
	for r := 0; ; r++ {
		start := p.clk.now()
		if r > 0 && start+last > p.deadline {
			return nil
		}
		if err := round(r); err != nil {
			return err
		}
		last = p.clk.now() - start
	}
}

// interleave runs op once on every pass for each input, alternating which
// pass goes first, so a drift in machine speed reaches the untraced and the
// traced pass alike.
func interleave(ps []*pass, k int, op func(p *pass)) {
	for j := range ps {
		op(ps[(j+k)%len(ps)])
	}
}

// newOp returns the next operation ID.
func (p *pass) newOp() int64 {
	p.opIDs++
	return p.opIDs
}

// fail records one failed operation.
func (p *pass) fail(format string, args ...any) {
	p.failed++
	if len(p.problems) < 20 {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

// timed runs fn inside a span on the traced pass; fn receives the span ID
// (0 when untraced) so its own calls can name it as their parent.
func (p *pass) timed(name, layer string, op, parent int64, fn func(id int64) error) error {
	if p.tr == nil {
		return fn(0)
	}
	id := p.tr.newID()
	start := p.clk.now()
	err := fn(id)
	p.tr.add(span{ID: id, Parent: parent, Op: op, Name: name, Layer: layer, Start: start, End: p.clk.now()})
	return err
}

// run executes one benchmark run.
func run(ctx context.Context, o options) (outcome, error) {
	ps, err := loadPins()
	if err != nil {
		return outcome{}, err
	}
	w, err := newWorkload(o, ps)
	if err != nil {
		return outcome{}, err
	}
	if !o.traced {
		setups := make([]float64, setupRepeats)
		for i := range setups {
			t0 := time.Now()
			if err := w.setup(); err != nil {
				return outcome{}, fmt.Errorf("setup: %w", err)
			}
			setups[i] = time.Since(t0).Seconds()
		}
		p := newPass(newClock(), o.seconds, nil)
		if err := w.measure(ctx, []*pass{p}); err != nil {
			return outcome{}, err
		}
		tail := p.tailMs
		if tail == nil {
			tail = p.latMs
		}
		m := map[string]float64{
			"ops_per_s":      p.opsPerS,
			"latency_p50_ms": quantile(p.latMs, 0.50),
			"latency_p99_ms": quantile(tail, 0.99),
			"setup_s":        quantile(setups, 0.5),
		}
		p.detail["ops"] = p.work
		p.detail["failed_ops"] = float64(p.failed)
		return finish(endToEnd, m, p.attempted, p.failed, p.detail, p.problems)
	}

	// Traced run: an untraced and a traced pass over the same seeded
	// inputs, then the layer probes.
	if err := w.setup(); err != nil {
		return outcome{}, fmt.Errorf("setup: %w", err)
	}
	clk := newClock()
	u, t := newPass(clk, o.seconds, nil), newPass(clk, o.seconds, &tracer{})
	if err := w.measure(ctx, []*pass{u, t}); err != nil {
		return outcome{}, err
	}
	pr, err := runProbes(ctx, w.inputs(), t.rec, o.smoke)
	if err != nil {
		return outcome{}, fmt.Errorf("probes: %w", err)
	}
	m := layerMetrics(u, t, pr)
	for k, v := range t.detail {
		pr.detail[k] = v
	}
	if o.traceOut != "" {
		byLayer, byName, _ := selfNs(t.tr.spans)
		var opNs int64
		for _, ns := range t.opNs {
			opNs += ns
		}
		sum := traceSummary{Workload: o.workload, Seed: o.seed, WallNs: t.clk.now(), OpNs: opNs, Work: t.work, SelfNs: byLayer, NameNs: byName}
		if err := writeTrace(o.traceOut, t.tr.spans, sum); err != nil {
			return outcome{}, err
		}
	}
	problems := append(u.problems, t.problems...)
	return finish(perLayer, m, u.attempted+t.attempted, u.failed+t.failed, pr.detail, problems)
}

// finish assembles a run's outcome, rejecting a missing or non-finite value.
func finish(defs []metricDef, values map[string]float64, attempted, failed int, detail map[string]float64, problems []string) (outcome, error) {
	out := outcome{
		report:   report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}},
		detail:   detail,
		problems: problems,
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return outcome{}, fmt.Errorf("metric %s has no finite value (%v)", d.name, v)
		}
		out.report.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if attempted < 1 {
		return outcome{}, errors.New("no operation was attempted")
	}
	return out, nil
}

// layerMetrics derives the per-layer metrics from the untraced pass u, the
// traced pass t and the probe results.
func layerMetrics(u, t *pass, pr *probes) map[string]float64 {
	self, names, layersByOp := selfNs(t.tr.spans)
	var total float64
	for _, ns := range self {
		total += float64(ns)
	}
	share := func(ns float64) float64 {
		if total == 0 {
			return 0
		}
		return ns / total
	}
	// The passes ran the same operations under the same IDs, so each traced
	// operation's layer time pairs with its untraced wall time; the median
	// ratio is robust to the noise of single operations.
	var ratios []float64
	for op, ns := range u.opNs {
		if layers, ok := layersByOp[op]; ok && ns > 0 {
			ratios = append(ratios, float64(layers)/float64(ns))
		}
	}
	sumErr := 0.0
	if len(ratios) > 0 {
		sumErr = math.Abs(quantile(ratios, 0.5) - 1)
	}
	overhead := 0.0
	if u.opsPerS > 0 {
		overhead = 1 - t.opsPerS/u.opsPerS
	}

	// Decide statistics pool the traced pass with the core route probe, so
	// they exist on every workload.
	var dec decisions
	dec.merge(&t.dec)
	dec.merge(&pr.dec)
	perRoute := func(n int) float64 {
		if t.routes == 0 {
			return 0
		}
		return float64(n) / float64(t.routes)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m := map[string]float64{
		"core.self_share":                   share(float64(self["core"])),
		"core.replan_share":                 share(float64(t.dec.replanTotal)),
		"core.replans_per_step":             ratio(float64(dec.replans), float64(dec.calls)),
		"core.replan_us_p50":                quantile(dec.replanNs, 0.50) / 1e3,
		"core.replan_us_p99":                quantile(dec.replanNs, 0.99) / 1e3,
		"core.exec_ns_p50":                  quantile(dec.execNs, 0.50),
		"sim.rest_share":                    share(float64(self["sim"])),
		"sim.step_us_p50":                   quantile(dec.stepNs, 0.50) / 1e3,
		"sim.step_us_p99":                   quantile(dec.stepNs, 0.99) / 1e3,
		"sim.batch_ns_per_lane_step":        pr.batchNsPerLaneStep,
		"sim.batch_decide_share":            pr.batchDecideShare,
		"hees.step_hybrid_ns":               pr.hybridNs,
		"hees.step_parallel_ns":             pr.parallelNs,
		"hees.busbatch_ns_per_lane":         pr.busNsPerLane,
		"cooling.step_active_ns":            pr.activeNs,
		"cooling.step_passive_ns":           pr.passiveNs,
		"drivecycle.synth_us_per_route":     pr.synthUs,
		"charger.charge_us":                 pr.chargeUs,
		"hmpc.build_ms_p50":                 quantile(append(slices.Clone(t.buildMs), pr.buildMs...), 0.5),
		"hmpc.outer_replans_per_route":      perRoute(t.outers),
		"hmpc.divergence_replans_per_route": perRoute(t.divergences),
		"hmpc.outer_share":                  share(float64(self["hmpc"])),
		"fleet.self_share":                  share(float64(self["fleet"])),
		"fleet.tail_frac":                   t.detail["tail_frac"],
		"serve.self_share":                  share(float64(self["serve"])),
		"serve.wait_share":                  share(float64(names["serve.wait"])),
		"serve.hit_us_p50":                  pr.hitUs,
		"serve.miss_overhead_us_p50":        pr.missOverheadUs,
		"serve.hit_ratio":                   t.detail["hit_ratio"],
		"serve.coalesced":                   t.detail["coalesced"],
		"serve.rejected":                    t.detail["rejected"],
		"bench.self_share":                  share(float64(self["bench"])),
		"layer_sum_err":                     sumErr,
		"trace_overhead":                    overhead,
	}
	for i, f := range familyNames {
		m["fleet.family."+f+".us_per_step"] = pr.familyUs[i]
	}
	return m
}

// hostInfo records where a run measured.
func hostInfo() map[string]any {
	model := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(bytes.NewReader(raw))
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"cpu_model":  model,
	}
}

func printJSON(w io.Writer, v any) {
	raw, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Fprintln(w, string(raw))
}

func main() {
	runtime.GOMAXPROCS(runtime.NumCPU())
	var (
		o      options
		trace  int
		runs   int
		record string
	)
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+" (with -runs also \"all\")")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 17, "measurement time per run, seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the untraced and traced passes and the layer probes and reports the per-layer metrics")
	flag.StringVar(&o.traceOut, "trace-out", "", "span file of a traced run (default .bench_build/trace/<workload>-<seed>.jsonl)")
	flag.IntVar(&runs, "runs", 0, "spread mode: run every workload this many times, one seed each, alternating the workload order")
	flag.StringVar(&record, "record-pins", "", "recompute the correctness pins and write them to this file")
	flag.Parse()
	if flag.NArg() > 0 || (trace != 0 && trace != 1) || o.seconds < 0 {
		flag.Usage()
		os.Exit(2)
	}
	o.traced = trace == 1
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	switch {
	case record != "":
		if err := recordPins(ctx, record); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	case runs > 0:
		names := workloadNames
		if o.workload != "all" && o.workload != "" {
			names = []string{o.workload}
		}
		if err := spread(ctx, names, runs, o); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}

	if o.traced && o.traceOut == "" {
		o.traceOut = filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-%d.jsonl", o.workload, o.seed))
	}
	out, err := run(ctx, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	printJSON(os.Stdout, map[string]any{"host": hostInfo()})
	printJSON(os.Stdout, map[string]any{"workload": o.workload, "seed": o.seed, "detail": out.detail, "problems": out.problems})
	printJSON(os.Stdout, out.report)
	if !out.report.Correct {
		for _, p := range out.problems {
			fmt.Fprintln(os.Stderr, "bench: mismatch:", p)
		}
		os.Exit(1)
	}
}

// spread runs every named workload runs times as child processes, one seed
// per round, alternating the workload order between rounds, and prints the
// median and quartiles of every metric and detail value.
func spread(ctx context.Context, names []string, runs int, o options) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	type stat struct {
		Unit   string    `json:"unit,omitempty"`
		Median float64   `json:"median"`
		Q1     float64   `json:"q1"`
		Q3     float64   `json:"q3"`
		Spread float64   `json:"spread"`
		Values []float64 `json:"values"`
	}
	values := map[string]map[string][]float64{}
	units := map[string]string{}
	for r := 0; r < runs; r++ {
		order := slices.Clone(names)
		if r%2 == 1 {
			slices.Reverse(order)
		}
		for _, w := range order {
			args := []string{"--workload", w, "--seed", strconv.FormatInt(o.seed+int64(r), 10),
				"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", "0"}
			if o.traced {
				args[len(args)-1] = "1"
			}
			cmd := exec.CommandContext(ctx, exe, args...)
			cmd.Stderr = os.Stderr
			raw, err := cmd.Output()
			lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
			var rep report
			var det struct {
				Detail map[string]float64 `json:"detail"`
			}
			if len(lines) >= 2 {
				_ = json.Unmarshal([]byte(lines[len(lines)-2]), &det)
				if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); jerr != nil && err == nil {
					err = jerr
				}
			}
			if err != nil {
				return fmt.Errorf("%s %v: %w", exe, args, err)
			}
			if values[w] == nil {
				values[w] = map[string][]float64{}
			}
			for k, m := range rep.Metrics {
				values[w][k] = append(values[w][k], m.Value)
				units[k] = m.Unit
			}
			for k, v := range det.Detail {
				values[w]["detail."+k] = append(values[w]["detail."+k], v)
			}
			fmt.Fprintf(os.Stderr, "bench: round %d %s correct=%v attempted=%d\n", r+1, w, rep.Correct, rep.Attempted)
		}
	}
	summary := map[string]map[string]stat{}
	for w, ms := range values {
		summary[w] = map[string]stat{}
		for k, vs := range ms {
			q1, q2, q3 := quartiles(vs)
			s := stat{Unit: units[k], Median: q2, Q1: q1, Q3: q3, Values: vs}
			if q2 != 0 {
				s.Spread = (q3 - q1) / math.Abs(q2)
			}
			summary[w][k] = s
		}
	}
	printJSON(os.Stdout, map[string]any{"host": hostInfo(), "runs": runs, "seconds": o.seconds, "workloads": summary})
	return nil
}
