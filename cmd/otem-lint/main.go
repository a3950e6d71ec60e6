// Command otem-lint runs the domain-aware static-analysis suite from
// repro/internal/lint over the module.
//
// Standalone (the `make lint` gate):
//
//	otem-lint [flags] [packages]     # packages default to ./...
//	otem-lint -list                  # describe the analyzers
//	otem-lint -floatcompare -detflow ./internal/...   # subset
//	otem-lint -format=sarif ./... > findings.sarif    # SARIF 2.1.0
//
// The driver schedules analyzers over the package-dependency DAG on the
// bounded worker pool (repro/internal/runner), propagating analysis facts
// from dependencies to dependents; -seq selects the sequential reference
// driver (byte-identical output).
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
	"strings"

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
