// Command cmsperf is the repository's benchmark (see perf/README.md):
//
//	go run ./perf/cmd/cmsperf                      every workload, each in a fresh process
//	go run ./perf/cmd/cmsperf -workload churn      one timed run, end-to-end metrics
//	go run ./perf/cmd/cmsperf -workload churn -trace 1
//	                                               plus the traced lap and the per-layer ledger
//	go run ./perf/cmd/cmsperf -selfcheck           two sets of every workload, compared
//	go run ./perf/cmd/cmsperf -write-golden        re-pin seeds 1 and 2 (benchmark PRs only)
//
// A single-workload run ends with one JSON object on its last line; that is
// what BENCHMARK.json's driver reads.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"

	"cms/perf"
)

// runSeconds is BENCHMARK.json's run_seconds: the run length every recorded
// number uses.
const runSeconds = 20

func main() {
	workload := flag.String("workload", "", "workload to run: steady, churn, cold or farm_mix (default: all, one process each)")
	seed := flag.Uint64("seed", 1, "input seed; 1 is the development seed, 2 the held-out one")
	seconds := flag.Int("seconds", runSeconds, "nominal length of the timed laps; sets how many laps of fixed work run")
	trace := flag.String("trace", "0", "1 adds the traced lap and per-layer metrics; a file name also chooses where the spans go")
	selfcheck := flag.Bool("selfcheck", false, "run every workload twice and compare the sets against BENCHMARK.json's bounds")
	writeGolden := flag.Bool("write-golden", false, "recompute "+perf.GoldenPath+" for seeds 1 and 2")
	flag.Parse()

	var err error
	switch {
	case *writeGolden:
		err = perf.WriteGolden(perf.GoldenPath, names(*workload), []uint64{1, 2}, runSeconds)
	case *selfcheck:
		err = selfCheck(names(*workload), *seed, *seconds)
	case *workload == "":
		for _, n := range names("") {
			if _, err = child(os.Stdout, n, *seed, *seconds, *trace); err != nil {
				break
			}
		}
	default:
		err = runOne(*workload, *seed, *seconds, *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cmsperf:", err)
		os.Exit(1)
	}
}

func names(only string) []string {
	if only != "" {
		return []string{only}
	}
	var out []string
	for _, w := range perf.Workloads {
		out = append(out, w.Name)
	}
	return out
}

// runOne is a timed run in this process, so peak_rss_mb belongs to it.
func runOne(workload string, seed uint64, seconds int, trace string) error {
	o := perf.Options{Workload: workload, Seed: seed, Scale: perf.FullScale(seconds), Log: os.Stdout}
	if trace != "0" {
		o.Trace = true
		o.TraceOut = trace
		if trace == "1" {
			o.TraceOut = filepath.Join(".bench_build", "cmsperf", fmt.Sprintf("%s-seed%d.trace.json", workload, seed))
		}
	}
	fmt.Printf("cmsperf: %s, %s/%s, GOMAXPROCS %d\n", runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0))
	rep, err := perf.Run(o)
	if err != nil {
		return err
	}
	rep.WriteText(os.Stdout)
	line, err := json.Marshal(rep.Result())
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// child runs one workload in a fresh process, copies its output to w, and
// returns the Result on its last line.
func child(w io.Writer, workload string, seed uint64, seconds int, trace string) (perf.Result, error) {
	var res perf.Result
	self, err := os.Executable()
	if err != nil {
		return res, err
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", trace)
	var out bytes.Buffer
	cmd.Stdout = io.MultiWriter(w, &out)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return res, fmt.Errorf("%s: %w", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("%s: last line is not a result: %w", workload, err)
	}
	return res, nil
}

// selfCheck runs every workload twice, untraced and traced, on this build,
// and fails unless set B repeats set A: every end-to-end metric within its
// BENCHMARK.json bound, every simulated and count metric exactly equal, no
// failed operation, and tracing overhead under 5%.
func selfCheck(workloads []string, seed uint64, seconds int) error {
	spec, err := perf.LoadSpec("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	bounds := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	ok := true
	for _, name := range workloads {
		var e2e, layers [2]perf.Result
		for set := range e2e {
			if e2e[set], err = child(io.Discard, name, seed, seconds, "0"); err != nil {
				return err
			}
			if layers[set], err = child(io.Discard, name, seed, seconds, "1"); err != nil {
				return err
			}
			for _, r := range []perf.Result{e2e[set], layers[set]} {
				if !r.Correct {
					fmt.Printf("%s set %c: %d of %d operations failed\n", name, 'A'+set, r.Failed, r.Attempted)
					ok = false
				}
			}
			if pct := layers[set].Metrics["trace.overhead_pct"].Value; pct >= 5 {
				fmt.Printf("%s set %c: trace.overhead_pct %.2f is not under 5\n", name, 'A'+set, pct)
				ok = false
			}
		}
		fmt.Printf("%s seed %d, set A against set B:\n", name, seed)
		ok = perf.Compare(os.Stdout, perf.EndToEnd, bounds, e2e[0], e2e[1]) && ok
		ok = perf.Compare(os.Stdout, perf.PerLayer, nil, layers[0], layers[1]) && ok
	}
	if !ok {
		return fmt.Errorf("selfcheck failed")
	}
	fmt.Println("selfcheck passed")
	return nil
}
