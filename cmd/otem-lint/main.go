// Command otem-lint runs the domain-aware static-analysis suite from
// repro/internal/lint over the module.
//
//	otem-lint [flags] [packages]     # packages default to ./...
//	otem-lint -list                  # describe the analyzers
//	otem-lint -floatcompare -detflow ./internal/...   # subset
//	otem-lint -format=sarif ./... > findings.sarif    # SARIF 2.1.0
//
// The driver schedules analyzers over the package-dependency DAG on the
// bounded worker pool (repro/internal/runner, sized by -parallel),
// propagating analysis facts from dependencies to dependents.
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure.
package main

import (
	"context"
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
	format := flag.String("format", "text", "output format: text or sarif")
	workers := flag.Int("parallel", 0, "worker pool size for the DAG scheduler (default GOMAXPROCS)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: otem-lint [flags] [packages]\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

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
		log.Printf("unknown -format %q (want text or sarif)", *format)
		os.Exit(2)
	}

	patterns := flag.Args()
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
	findings, err := mod.RunParallel(ctx, pool, analyzers)
	if err != nil {
		log.Println(err)
		os.Exit(2)
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
