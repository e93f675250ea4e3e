package perf

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// WriteText prints every measured metric by name with its unit.
func (r *Report) WriteText(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed %d  input_digest %s\n", r.Workload, r.Seed, r.InputDigest)
	line := func(d MetricDef, s Sample) {
		fmt.Fprintf(w, "  %-34s %14.6g %-9s", d.Name, s.Value, d.Unit)
		if s.N > 1 {
			fmt.Fprintf(w, " median of %d laps, min %.6g, max %.6g", s.N, s.Min, s.Max)
		}
		fmt.Fprintln(w)
	}
	for _, d := range EndToEnd {
		line(d, r.EndToEnd[d.Name])
	}
	fmt.Fprintf(w, "  %-34s %14.6g %-9s %d of %d operations\n", "failed_share", r.FailedShare(), "ratio", r.Failed, r.Attempted)
	if r.PerLayer == nil {
		return
	}
	fmt.Fprintln(w, "per layer (traced run):")
	for _, d := range PerLayer {
		line(d, r.PerLayer[d.Name])
	}
	for _, n := range r.Notes {
		fmt.Fprintln(w, "  "+n)
	}
}

// Result is the one-line JSON object a run ends with: the end-to-end metrics
// of an untraced run, the per-layer metrics of a traced one.
type Result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]ResultValue `json:"metrics"`
}

// ResultValue is one metric of a Result.
type ResultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result picks the metric set the run was asked for.
func (r *Report) Result() Result {
	defs, vals := EndToEnd, r.EndToEnd
	if r.PerLayer != nil {
		defs, vals = PerLayer, r.PerLayer
	}
	res := Result{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: map[string]ResultValue{}}
	for _, d := range defs {
		res.Metrics[d.Name] = ResultValue{Value: vals[d.Name].Value, Unit: d.Unit}
	}
	return res
}

// Spec mirrors BENCHMARK.json, the benchmark's contract with its driver and
// the one place a metric's regression bound is written down.
type Spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []SpecMetric `json:"end_to_end"`
	PerLayer []SpecMetric `json:"per_layer"`
}

// SpecMetric is one metric entry of BENCHMARK.json; per-layer entries carry
// no bound.
type SpecMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// LoadSpec reads BENCHMARK.json.
func LoadSpec(path string) (*Spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s := &Spec{}
	if err := json.Unmarshal(b, s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Compare is the two-set repeatability check for one workload: a and b are
// the Results of two runs of the same build on the same seed. Every bounded
// metric of b must be within its bound of a; exact metrics must be equal. It
// returns one line per metric and whether all passed.
func Compare(w io.Writer, defs []MetricDef, bounds map[string]float64, a, b Result) bool {
	ok := true
	for _, d := range defs {
		va, vb := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value
		worse := vb - va
		if d.Better == Higher {
			worse = va - vb
		}
		spread := ratio(math.Abs(vb-va), math.Abs(va))
		verdict := "ok"
		bound, bounded := bounds[d.Name]
		switch {
		case d.Exact && va != vb:
			verdict = "FAIL: must repeat exactly"
		case bounded && worse > bound*math.Abs(va):
			verdict = fmt.Sprintf("FAIL: worse by more than %.0f%%", 100*bound)
		}
		if verdict != "ok" {
			ok = false
		}
		fmt.Fprintf(w, "  %-34s A %14.6g  B %14.6g  spread %6.2f%%  %s\n", d.Name, va, vb, 100*spread, verdict)
	}
	return ok
}
