package perf

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"cms/internal/workload"
)

// Workloads names the four workloads and why each exists. The names are
// final; BENCHMARK.json and later issues cite them.
var Workloads = []struct{ Name, Why string }{
	{"steady", "long SMC/IRQ/MMIO/fault-free programs: translated execution and chaining do the work, construction and translation are noise"},
	{"churn", "same generator, every gate on: invalidation, protected stores, rollback and retranslation are steady state"},
	{"cold", "many distinct short programs on fresh platforms: interpretation, region capture, translation and construction dominate"},
	{"farm_mix", "closed loop through one sustained farm: 75% shared suite jobs hit the store, 25% unique source jobs miss it"},
}

// Scale fixes how much work a run does. Work is set by these counts, never
// by the clock, so two commits given the same Scale do identical work.
type Scale struct {
	// Seconds sets how many timed laps of identical work run (one untimed
	// warm-up lap precedes them): see laps. TraceLaps replaces that count on
	// a traced run, whose extra laps and replays need the time.
	Seconds, TraceLaps int
	// SetupReps is how many times setup runs; setup_s is their median.
	SetupReps int

	SteadyPrograms int    // programs per steady lap
	SteadyInsns    uint64 // guest instructions per steady program
	// Churn programs per lap and guest instructions per program, by
	// smcClass: none, hostile, stylized. The SMC classes run at 0.6 of the
	// plain class's speed at HEAD and get 0.6 of its length, so a lap's
	// slowest jobs are not simply its SMC jobs.
	ChurnQuota   [3]int
	ChurnInsns   [3]uint64
	ColdPrograms int

	// Suite is the named workloads farm_mix draws its shared jobs from (nil:
	// the whole suite; tests name a few small ones).
	Suite       []string
	FarmRounds  int       // copies of each Suite workload per farm_mix lap
	FarmUnique  int       // unique source jobs per farm_mix lap
	UniqueInsns [2]uint64 // their size range in guest instructions

	// Sample caps how many of a workload's artifacts the layer replays use.
	Sample int
	// MemOps is the iteration count of the bus micro-loops.
	MemOps int
}

// FullScale is the scale every recorded number uses. The per-lap counts are
// constants, sized so that interpreting a lap's references fits in setup;
// seconds only sets how many laps run.
func FullScale(seconds int) Scale {
	return Scale{
		Seconds: seconds, TraceLaps: 3, SetupReps: 3,
		SteadyPrograms: 128, SteadyInsns: 1_000_000,
		ChurnQuota: [3]int{76, 30, 22}, ChurnInsns: [3]uint64{450_000, 270_000, 270_000},
		ColdPrograms: 1200,
		FarmRounds:   23, FarmUnique: 253, UniqueInsns: [2]uint64{15_000, 45_000},
		Sample: 16, MemOps: 2_000_000,
	}
}

// laps is the number of timed laps: a lap takes 2 to 2.5 s on the 2-CPU host
// the first numbers come from, so the timed laps fill about Seconds there.
func (sc Scale) laps() int {
	if n := sc.Seconds * 2 / 5; n > 2 {
		return n
	}
	return 2
}

// suite resolves Suite to workloads.
func (sc Scale) suite() []workload.Workload {
	if sc.Suite == nil {
		return workload.All()
	}
	var out []workload.Workload
	for _, n := range sc.Suite {
		w, err := workload.ByName(n)
		if err != nil {
			panic(err) // a Scale is written by this package and its tests
		}
		out = append(out, w)
	}
	return out
}

// inputKey is the part of a golden key that pins the counts the named
// workload's inputs are generated from.
func (sc Scale) inputKey(name string) string {
	switch name {
	case "steady":
		return fmt.Sprintf("n=%d,insns=%d", sc.SteadyPrograms, sc.SteadyInsns)
	case "churn":
		return fmt.Sprintf("quota=%v,insns=%v", sc.ChurnQuota, sc.ChurnInsns)
	case "cold":
		return fmt.Sprintf("n=%d", sc.ColdPrograms)
	}
	return fmt.Sprintf("suite=%d,rounds=%d,unique=%d,insns=%v", len(sc.suite()), sc.FarmRounds, sc.FarmUnique, sc.UniqueInsns)
}

// Options selects one timed run.
type Options struct {
	Workload string
	Seed     uint64
	Scale    Scale
	// Trace adds the traced lap and the layer replays; TraceOut, when set,
	// receives the spans as JSON.
	Trace    bool
	TraceOut string
	// Golden overrides the embedded golden file (tests plant wrong entries).
	Golden Golden
	// Log receives progress lines; nil discards them.
	Log io.Writer
}

// Report is everything one timed run measured.
type Report struct {
	Workload    string
	Seed        uint64
	InputDigest string
	// Attempted counts every operation run (warm-up and traced laps too);
	// Failed those that errored, were refused, timed out, did not halt, or
	// ended in a state other than the interpreter's.
	Attempted, Failed int
	EndToEnd          map[string]Sample
	// PerLayer is filled on traced runs only.
	PerLayer map[string]Sample
	// Notes are the attribution lines a traced run prints.
	Notes []string
}

// FailedShare is the eighth end-to-end metric. BENCHMARK.json cannot hold a
// metric whose healthy value is 0, so the driver sees it as failed/attempted.
func (r *Report) FailedShare() float64 { return ratio(float64(r.Failed), float64(r.Attempted)) }

// driver is what the four workloads implement for Run.
type driver interface {
	// setup generates inputs from the seed, interprets the references, and
	// builds whatever the laps run on. It may be called again after close.
	setup(seed uint64) error
	close()
	inputDigest() string
	// screened is how many generated programs setup replaced because the
	// engine refuses to translate them (see screen); farm_mix screens none.
	screened() int
	referenceDigest() string
	goldenKey(seed uint64) string
	// procs is the GOMAXPROCS the laps run at (setup always has every CPU).
	procs() int
	// lap runs lap i (0 is the warm-up) and checks every outcome.
	lap(i int) *lapResult
	// traced runs the traced lap and every layer measurement.
	traced(tr *tracer, base []*lapResult) (layers map[string]float64, notes []string, extra *lapResult)
}

func newDriver(name string, sc Scale, trace bool) (driver, error) {
	switch name {
	case "steady", "churn", "cold":
		return &soloWorkload{name: name, sc: sc}, nil
	case "farm_mix":
		return &farmWorkload{sc: sc, trace: trace}, nil
	}
	return nil, fmt.Errorf("perf: unknown workload %q (have steady, churn, cold, farm_mix)", name)
}

// lapResult is one lap's measurements and checked outcomes.
type lapResult struct {
	ops, failed int
	counts      counts
	// wall is the lap's timed interval: on the solo workloads the sum of
	// the operations' own intervals (outcomes are checked between them), on
	// farm_mix first submit to last completion.
	wall time.Duration
	lat  []time.Duration
	// rss is the resident set in MB, sampled once per operation.
	rss []float64
	// Farm laps only: time inside Engine.Run, and submit-to-done time.
	runNs, latNs int64
	nonrun       []time.Duration
	maxInFlight  int
}

// absorb books o's operations on l: the extra laps of a traced run count
// toward attempted and failed, not toward any timed metric.
func (l *lapResult) absorb(o *lapResult) {
	l.ops += o.ops
	l.failed += o.failed
}

func (l *lapResult) mips() float64 {
	return float64(l.counts.guest()) / l.wall.Seconds() / 1e6
}

// Run executes one timed run of one workload in this process.
func Run(o Options) (*Report, error) {
	logf := func(format string, a ...any) {
		if o.Log != nil {
			fmt.Fprintf(o.Log, format+"\n", a...)
		}
	}
	w, err := newDriver(o.Workload, o.Scale, o.Trace)
	if err != nil {
		return nil, err
	}
	golden := o.Golden
	if golden == nil {
		if golden, err = embeddedGolden(); err != nil {
			return nil, err
		}
	}

	var setups []float64
	for i := 0; i < o.Scale.SetupReps; i++ {
		if i > 0 {
			w.close()
		}
		t0 := time.Now()
		if err := w.setup(o.Seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.procs()))
	logf("setup %.3fs  input_digest %s  screened %d", medianOf(setups).Value, w.inputDigest(), w.screened())
	if err := golden.check(w.goldenKey(o.Seed), w.inputDigest(), w.referenceDigest()); err != nil {
		return nil, err
	}

	rep := &Report{Workload: o.Workload, Seed: o.Seed, InputDigest: w.inputDigest(),
		EndToEnd: map[string]Sample{}}
	account := func(l *lapResult) {
		rep.Attempted += l.ops
		rep.Failed += l.failed
	}

	laps := o.Scale.laps()
	if o.Trace {
		laps = o.Scale.TraceLaps
	}
	account(w.lap(0))
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	var timed []*lapResult
	var rss []float64
	for i := 1; i <= laps; i++ {
		l := w.lap(i)
		rss = append(rss, quantile(l.rss, 0.90))
		account(l)
		timed = append(timed, l)
		logf("lap %d/%d  %.3fs  %.2f guest MIPS  %d ops  %d failed", i, laps, l.wall.Seconds(), l.mips(), l.ops, l.failed)
		runtime.GC()
	}
	runtime.ReadMemStats(&ms1)

	var mips, jps, p50, p99 []float64
	var mols, insns uint64
	for _, l := range timed {
		mips = append(mips, l.mips())
		jps = append(jps, float64(l.ops)/l.wall.Seconds())
		p50 = append(p50, ms(quantile(l.lat, 0.50)))
		p99 = append(p99, ms(quantile(l.lat, 0.99)))
		mols += l.counts.mols
		insns += l.counts.guest()
	}
	rep.EndToEnd["guest_mips"] = medianOf(mips)
	rep.EndToEnd["jobs_per_s"] = medianOf(jps)
	rep.EndToEnd["job_latency_p50_ms"] = medianOf(p50)
	rep.EndToEnd["job_latency_p99_ms"] = medianOf(p99)
	rep.EndToEnd["sim_mpi"] = single(ratio(float64(mols), float64(insns)))
	rep.EndToEnd["setup_s"] = medianOf(setups)
	rep.EndToEnd["peak_rss_mb"] = medianOf(rss)

	if o.Trace {
		tr := newTracer()
		layers, notes, extra := w.traced(tr, timed)
		account(extra)
		ops := 0
		for _, l := range timed {
			ops += l.ops
		}
		layers["runtime.alloc_kib_per_job"] = ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024, float64(ops))
		layers["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
		layers["runtime.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
		layers["runtime.heap_live_mb_end"] = float64(ms1.HeapAlloc) / (1 << 20)
		rep.PerLayer = map[string]Sample{}
		for _, d := range PerLayer {
			rep.PerLayer[d.Name] = single(layers[d.Name])
		}
		rep.Notes = notes
		if o.TraceOut != "" {
			if err := tr.write(o.TraceOut); err != nil {
				return nil, err
			}
			logf("%d spans written to %s", len(tr.spans), o.TraceOut)
		}
	}
	return rep, nil
}

// residentMB reads the process's resident set. Every operation of a timed
// lap samples it once, while its engine is still live, and peak_rss_mb is the
// laps' median 90th percentile of those samples. The kernel's own high-water
// mark is one moment — whichever one the collector fell furthest behind in —
// and wandered by a third between runs of cold; the top of the ordinary
// sawtooth does not.
func residentMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}
