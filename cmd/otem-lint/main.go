// Command otem-lint runs the domain-aware static-analysis suite from
// repro/internal/lint over the module.
//
// Standalone (the `make lint` gate):
//
//	otem-lint [flags] [packages]     # packages default to ./...
//	otem-lint -list                  # describe the analyzers
//	otem-lint -floatcompare -detrand ./internal/...   # subset
//	otem-lint -format=sarif ./... > findings.sarif    # SARIF 2.1.0
//
// The driver schedules analyzers over the package-dependency DAG on the
// bounded worker pool (repro/internal/runner), propagating analysis facts
// from dependencies to dependents; -seq selects the sequential reference
// driver (byte-identical output), and -benchjson records a
// sequential-vs-parallel comparison.
//
// It also speaks the `go vet -vettool` protocol (-V=full, -flags, and a
// single pkg.cfg argument), so the same binary plugs into the build
// cache, with facts flowing between compilation units through vetx files:
//
//	go build -o bin/otem-lint ./cmd/otem-lint
//	go vet -vettool=bin/otem-lint ./...
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/lint"
	"repro/internal/runner"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("otem-lint: ")

	enabled := make(map[string]*bool)
	for _, a := range lint.All() {
		summary, _, _ := strings.Cut(a.Doc, "\n")
		enabled[a.Name] = flag.Bool(a.Name, false, "run only selected analyzers: "+summary)
	}
	list := flag.Bool("list", false, "describe the analyzers and exit")
	format := flag.String("format", "text", "output format: text, json or sarif")
	seq := flag.Bool("seq", false, "use the sequential reference driver instead of the parallel DAG scheduler")
	workers := flag.Int("parallel", 0, "worker pool size for the DAG scheduler (default GOMAXPROCS)")
	benchJSON := flag.String("benchjson", "", "measure sequential vs parallel analysis and write a JSON record to this file")
	printflags := flag.Bool("flags", false, "print analyzer flags in JSON (go vet protocol)")
	flag.Var(versionFlag{}, "V", "print version and exit (go vet protocol)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: otem-lint [flags] [packages | pkg.cfg]\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *printflags {
		printFlags()
		return
	}

	analyzers := lint.All()
	if anySelected(enabled) {
		var sel []*lint.Analyzer
		for _, a := range analyzers {
			if *enabled[a.Name] {
				sel = append(sel, a)
			}
		}
		analyzers = sel
	}

	if *list {
		for _, a := range analyzers {
			fmt.Printf("%s: %s\n\n", a.Name, a.Doc)
		}
		return
	}

	emit, ok := emitters[*format]
	if !ok {
		log.Printf("unknown -format %q (want text, json or sarif)", *format)
		os.Exit(2)
	}

	args := flag.Args()

	// `go vet -vettool` hands exactly one JSON config file.
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		findings, err := lint.RunUnit(args[0], analyzers)
		if err != nil {
			log.Fatal(err)
		}
		for _, f := range findings {
			fmt.Fprintf(os.Stderr, "%s: %s (%s)\n", f.Pos, f.Message, f.Analyzer)
		}
		if len(findings) > 0 {
			os.Exit(1)
		}
		return
	}

	patterns := args
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	ctx := context.Background()
	pool := runner.New(runner.Workers(*workers))
	mod, err := lint.LoadContext(ctx, pool, "", patterns...)
	if err != nil {
		log.Println(err)
		os.Exit(2)
	}

	if *benchJSON != "" {
		if err := writeBench(*benchJSON, mod, analyzers); err != nil {
			log.Println(err)
			os.Exit(2)
		}
		return
	}

	var findings []lint.Finding
	if *seq {
		findings = mod.Run(analyzers)
	} else {
		findings, err = mod.RunParallel(ctx, pool, analyzers)
		if err != nil {
			log.Println(err)
			os.Exit(2)
		}
	}
	if err := emit(os.Stdout, findings, analyzers); err != nil {
		log.Println(err)
		os.Exit(2)
	}
	if len(findings) > 0 {
		if *format == "text" {
			fmt.Printf("otem-lint: %d finding(s)\n", len(findings))
		}
		os.Exit(1)
	}
}

// emitters maps -format values to renderers.
var emitters = map[string]func(io.Writer, []lint.Finding, []*lint.Analyzer) error{
	"text": func(w io.Writer, fs []lint.Finding, _ []*lint.Analyzer) error {
		return lint.WriteText(w, fs)
	},
	"json": func(w io.Writer, fs []lint.Finding, _ []*lint.Analyzer) error {
		return lint.WriteJSON(w, fs)
	},
	"sarif": lint.WriteSARIF,
}

// benchParallelRun is one parallel-driver measurement at a fixed
// GOMAXPROCS setting: best-of-rounds wall-clock time and the speedup over
// the sequential reference at the same machine state.
type benchParallelRun struct {
	GOMAXPROCS int     `json:"gomaxprocs"`
	ParallelNs int64   `json:"parallel_ns"`
	Speedup    float64 `json:"speedup"`
}

// benchRecord is the JSON document -benchjson writes: the sequential
// reference driver timed once, then the parallel DAG scheduler at both
// GOMAXPROCS=1 (scheduler overhead in isolation) and GOMAXPROCS=NumCPU
// (real speedup). Recording both keeps the numbers honest — a single
// measurement taken at an unknown processor count is not comparable
// across machines. SSANs is the wall-clock time spent building the
// per-function SSA IR during the best sequential round, so the cost of
// the value-flow layer stays visible next to the total.
type benchRecord struct {
	NumCPU       int                `json:"num_cpu"`
	Packages     int                `json:"packages"`
	Analyzers    int                `json:"analyzers"`
	Rounds       int                `json:"rounds"`
	SequentialNs int64              `json:"sequential_ns"`
	SSANs        int64              `json:"ssa_ns"`
	CallGraphNs  int64              `json:"callgraph_ns"`
	SummaryNs    int64              `json:"summary_ns"`
	Parallel     []benchParallelRun `json:"parallel"`
	Findings     int                `json:"findings"`
}

// writeBench times both drivers over the loaded module (best of three
// rounds each) and records the result. The parallel driver is measured at
// GOMAXPROCS=1 and GOMAXPROCS=NumCPU with a fresh worker pool sized to
// each setting (the shared pool would keep its creation-time width); the
// previous GOMAXPROCS is restored before returning. Both settings are
// always recorded, even when they coincide on a single-CPU machine.
func writeBench(path string, mod *lint.Module, analyzers []*lint.Analyzer) error {
	const rounds = 3
	ctx := context.Background()

	var seqBest time.Duration
	var ssaBest, cgBest, sumBest int64
	var findings int
	for i := 0; i < rounds; i++ {
		ssa0 := lint.SSABuildNanos()
		cg0 := lint.CallGraphNanos()
		sum0 := lint.SummaryNanos()
		t0 := time.Now()
		fs := mod.Run(analyzers)
		d := time.Since(t0)
		ssaD := lint.SSABuildNanos() - ssa0
		cgD := lint.CallGraphNanos() - cg0
		sumD := lint.SummaryNanos() - sum0
		if i == 0 || d < seqBest {
			seqBest = d
			ssaBest = ssaD
			cgBest = cgD
			sumBest = sumD
		}
		findings = len(fs)
	}

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	var parallel []benchParallelRun
	for _, procs := range []int{1, runtime.NumCPU()} {
		runtime.GOMAXPROCS(procs)
		pool := runner.New(runner.Workers(procs))
		var parBest time.Duration
		for i := 0; i < rounds; i++ {
			t0 := time.Now()
			pfs, err := mod.RunParallel(ctx, pool, analyzers)
			if err != nil {
				return err
			}
			if d := time.Since(t0); i == 0 || d < parBest {
				parBest = d
			}
			if len(pfs) != findings {
				return fmt.Errorf("driver mismatch: sequential %d findings, parallel %d", findings, len(pfs))
			}
		}
		parallel = append(parallel, benchParallelRun{
			GOMAXPROCS: procs,
			ParallelNs: parBest.Nanoseconds(),
			Speedup:    float64(seqBest) / float64(parBest),
		})
	}

	rec := benchRecord{
		NumCPU:       runtime.NumCPU(),
		Packages:     len(mod.Packages),
		Analyzers:    len(analyzers),
		Rounds:       rounds,
		SequentialNs: seqBest.Nanoseconds(),
		SSANs:        ssaBest,
		CallGraphNs:  cgBest,
		SummaryNs:    sumBest,
		Parallel:     parallel,
		Findings:     findings,
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o666); err != nil {
		return err
	}
	fmt.Printf("otem-lint bench: %d packages, sequential %v", rec.Packages, seqBest)
	for _, p := range parallel {
		fmt.Printf("; parallel@%d %v (%.2fx)", p.GOMAXPROCS, time.Duration(p.ParallelNs), p.Speedup)
	}
	fmt.Printf(" -> %s\n", path)
	return nil
}

func anySelected(enabled map[string]*bool) bool {
	for _, v := range enabled {
		if *v {
			return true
		}
	}
	return false
}

// printFlags emits the JSON flag description `go vet` queries before
// deciding which flags it may forward to the tool.
func printFlags() {
	type jsonFlag struct {
		Name  string
		Bool  bool
		Usage string
	}
	var flags []jsonFlag
	flag.VisitAll(func(f *flag.Flag) {
		b, ok := f.Value.(interface{ IsBoolFlag() bool })
		flags = append(flags, jsonFlag{f.Name, ok && b.IsBoolFlag(), f.Usage})
	})
	data, err := json.MarshalIndent(flags, "", "\t")
	if err != nil {
		log.Fatal(err)
	}
	os.Stdout.Write(data)
}

// versionFlag implements the -V=full handshake the go command uses to
// fingerprint vet tools for its build cache: print a line containing the
// executable path and a content hash, then exit.
type versionFlag struct{}

func (versionFlag) IsBoolFlag() bool { return true }
func (versionFlag) String() string   { return "" }
func (versionFlag) Set(s string) error {
	if s != "full" {
		log.Fatalf("unsupported flag value: -V=%s (use -V=full)", s)
	}
	exe, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Open(exe)
	if err != nil {
		log.Fatal(err)
	}
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		log.Fatal(err)
	}
	f.Close()
	fmt.Printf("%s version devel comments-go-here buildID=%02x\n", exe, string(h.Sum(nil)))
	os.Exit(0)
	return nil
}
