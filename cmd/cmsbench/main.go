// cmsbench regenerates the paper's evaluation: every figure and table of
// "The Transmeta Code Morphing Software" (CGO 2003) over the synthetic
// benchmark suite. See DESIGN.md for the experiment index and EXPERIMENTS.md
// for recorded paper-vs-measured results.
//
// Every number it prints is a pure function of the simulated cms.Metrics, so
// two runs print the same bytes on any host. Host wall-clock questions go to
// the repo's benchmark (go run ./perf/cmd/cmsperf); profiles come from
// go test -bench EngineRun -cpuprofile in internal/bench.
//
// Usage:
//
//	cmsbench                 # run everything
//	cmsbench -exp fig2       # one experiment: fig2, fig3, table1, selfcheck,
//	                         # selfreval, flow, chain, ablate, hostgen, faults
//	cmsbench -workload NAME  # workload for flow/chain/ablate (default win98_boot)
//	cmsbench -list           # list the benchmark suite
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"cms/internal/bench"
	"cms/internal/workload"
)

// suite renders an experiment that runs over the whole suite; on renders one
// that runs on the -workload.
func suite[T any](run func() (T, error), write func(io.Writer, T)) func(string) error {
	return on(func(string) (T, error) { return run() }, write)
}

func on[T any](run func(string) (T, error), write func(io.Writer, T)) func(string) error {
	return func(wl string) error {
		r, err := run(wl)
		if err != nil {
			return err
		}
		write(os.Stdout, r)
		return nil
	}
}

// experiments is the -exp vocabulary, in the order "all" runs them.
var experiments = []struct {
	name string
	run  func(wl string) error
}{
	{"fig2", suite(bench.Figure2, bench.WriteFigure)},
	{"fig3", suite(bench.Figure3, bench.WriteFigure)},
	{"table1", suite(bench.Table1, bench.WriteTable1)},
	{"selfcheck", suite(bench.SelfCheck, bench.WriteSelfCheck)},
	{"selfreval", suite(bench.SelfReval, bench.WriteSelfReval)},
	{"flow", on(bench.Flow, bench.WriteFlow)},
	{"chain", on(bench.Chain, bench.WriteChain)},
	{"ablate", func(wl string) error {
		for _, sweep := range []func(string) (*bench.AblationResult, error){
			bench.AblateUnroll, bench.AblateHotThreshold,
			bench.AblateRegionCap, bench.AblateFaultThreshold,
		} {
			if err := on(sweep, bench.WriteAblation)(wl); err != nil {
				return err
			}
			fmt.Println()
		}
		return nil
	}},
	{"hostgen", suite(bench.HostGenerations, bench.WriteHostGen)},
	{"faults", suite(bench.Faults, bench.WriteFaults)},
}

func main() {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	exp := flag.String("exp", "all", "experiment: all, "+strings.Join(names, ", "))
	wl := flag.String("workload", "win98_boot", "workload for the flow/chain/ablate experiments")
	list := flag.Bool("list", false, "list the benchmark suite and exit")
	flag.Parse()

	if *list {
		fmt.Printf("%-18s %-5s %s\n", "name", "kind", "stands in for")
		for _, w := range workload.All() {
			fmt.Printf("%-18s %-5s %s\n", w.Name, w.Kind, w.Paper)
		}
		return
	}

	ran := false
	for _, e := range experiments {
		if *exp != "all" && *exp != e.name {
			continue
		}
		ran = true
		if err := e.run(*wl); err != nil {
			fmt.Fprintf(os.Stderr, "cmsbench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "cmsbench: unknown experiment %q (want all, %s)\n", *exp, strings.Join(names, ", "))
		os.Exit(1)
	}
}
