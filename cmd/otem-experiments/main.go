// Command otem-experiments regenerates the paper's evaluation: every figure
// and table of §IV (Fig. 1, Fig. 6, Fig. 7, Fig. 8, Fig. 9, Table I). The
// grid experiments run on the bounded worker pool (-parallel caps the
// fan-out; results are identical at any setting) and Ctrl-C cancels the
// suite mid-simulation.
//
// Usage:
//
//	otem-experiments                 # run everything
//	otem-experiments -run fig8,fig9  # selected experiments
//	otem-experiments -repeats 3      # cheaper Fig. 8/9 sweep
//	otem-experiments -parallel 4     # at most 4 concurrent simulations
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/runner"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("otem-experiments: ")

	var (
		run      = flag.String("run", "all", "comma-separated subset of: fig1,fig6,fig7,fig8,fig9,table1,hotspot,hmpc,ablations ('all' = every study but the ablations)")
		repeats  = flag.Int("repeats", 3, "cycle repetitions for the Fig. 8/9 sweep")
		parallel = flag.Int("parallel", 0, "max concurrent simulations per experiment (0 = GOMAXPROCS)")
		quiet    = flag.Bool("quiet", false, "suppress the per-experiment progress line on stderr")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	want := map[string]bool{}
	for _, name := range strings.Split(*run, ",") {
		want[strings.TrimSpace(strings.ToLower(name))] = true
	}
	all := want["all"]
	selected := func(name string) bool {
		if name == "ablations" {
			return want[name] // opt-in only; ~1 min of MPC runs
		}
		return all || want[name]
	}

	// One pool per experiment: the progress callback restarts its count for
	// each grid, so the stderr line reads "fig8 12/24".
	pool := func(label string) *runner.Pool {
		opts := []runner.Option{runner.Workers(*parallel)}
		if !*quiet {
			opts = append(opts, runner.Progress(func(done, total int) {
				fmt.Fprintf(os.Stderr, "\r%s %d/%d", label, done, total)
				if done == total {
					fmt.Fprintln(os.Stderr)
				}
			}))
		}
		return runner.New(opts...)
	}

	out := os.Stdout
	start := time.Now()

	if selected("fig1") {
		r, err := experiments.Fig1Context(ctx, pool("fig1"))
		exit(err)
		r.Write(out)
		fmt.Fprintln(out)
	}
	if selected("fig6") {
		r, err := experiments.Fig6Context(ctx, pool("fig6"))
		exit(err)
		r.Write(out)
		fmt.Fprintln(out)
	}
	if selected("fig7") {
		r, err := experiments.Fig7Context(ctx)
		exit(err)
		r.Write(out)
		fmt.Fprintln(out)
	}
	if selected("fig8") || selected("fig9") {
		sweep, err := experiments.SweepContext(ctx, *repeats, pool("fig8/9"))
		exit(err)
		if selected("fig8") {
			experiments.Fig8(sweep).Write(out)
			fmt.Fprintln(out)
		}
		if selected("fig9") {
			experiments.Fig9(sweep).Write(out)
			fmt.Fprintln(out)
		}
	}
	if selected("table1") {
		r, err := experiments.TableIContext(ctx, pool("table1"))
		exit(err)
		r.Write(out)
		fmt.Fprintln(out)
	}
	if selected("hotspot") {
		r, err := experiments.HotspotContext(ctx, pool("hotspot"))
		exit(err)
		r.Write(out)
		fmt.Fprintln(out)
	}
	if selected("hmpc") {
		r, err := experiments.HMPCCompareContext(ctx, pool("hmpc"), experiments.HMPCScenarios())
		exit(err)
		r.Write(out)
		fmt.Fprintln(out)
	}
	if selected("ablations") {
		for _, study := range []struct {
			name string
			run  func(context.Context, *runner.Pool) (*experiments.AblationResult, error)
		}{
			{"horizon", experiments.AblationHorizonContext},
			{"weights", experiments.AblationWeightsContext},
			{"noise", experiments.AblationNoiseContext},
			{"predictor", experiments.AblationPredictorContext},
			{"sensing", experiments.AblationSensingContext},
			{"chemistry", experiments.AblationChemistryContext},
		} {
			r, err := study.run(ctx, pool("ablation/"+study.name))
			exit(err)
			r.Write(out)
			fmt.Fprintln(out)
		}
	}

	fmt.Fprintf(out, "total experiment time: %v\n", time.Since(start).Round(time.Second))
}

// exit aborts on error, reporting Ctrl-C distinctly from real failures.
func exit(err error) {
	if err == nil {
		return
	}
	if errors.Is(err, runner.ErrCanceled) {
		log.Fatal("interrupted")
	}
	log.Fatal(err)
}
