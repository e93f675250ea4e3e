package perf

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"time"

	"cms/internal/asm"
	"cms/internal/cms"
	"cms/internal/dev"
	"cms/internal/farm"
	"cms/internal/workload"
)

// farmWorkload drives farm_mix: one generator goroutine keeps a fixed number
// of jobs in flight through one sustained farm whose job table, metrics
// state and shared store grow across laps as they do in production.
type farmWorkload struct {
	sc    Scale
	trace bool
	vms   int
	laps  [][]farmJob
	refs  map[string]farmOutcome
	input string
	f     *farm.Farm
}

// extraTraceLaps are the traced lap and the no-queueing overhead lap.
const extraTraceLaps = 2

func (w *farmWorkload) numLaps() int {
	if w.trace {
		return 1 + w.sc.TraceLaps + extraTraceLaps
	}
	return 1 + w.sc.laps()
}

func newFarm(vms int) *farm.Farm {
	return farm.New(farm.Config{MaxVMs: vms, Engine: cms.DefaultConfig()})
}

func (w *farmWorkload) setup(seed uint64) error {
	w.vms = runtime.GOMAXPROCS(0)
	w.laps = farmInputs(seed, w.sc, w.numLaps())
	d := newDigester()
	for _, wl := range w.sc.suite() {
		img, err := jobImage(farm.JobSpec{Workload: wl.Name})
		if err != nil {
			return err
		}
		d.bytes([]byte(wl.Name))
		d.image(img)
	}
	for _, jobs := range w.laps {
		for _, j := range jobs {
			d.bytes([]byte(j.spec.Workload))
			d.bytes([]byte(j.spec.Source))
		}
	}
	w.input = d.sum()
	var err error
	if w.refs, err = farmReferences(w.laps); err != nil {
		return err
	}
	w.f = newFarm(w.vms)
	return nil
}

func (w *farmWorkload) close() {
	if w.f != nil {
		w.f.Drain()
		w.f = nil
	}
}

func (w *farmWorkload) inputDigest() string { return w.input }
func (w *farmWorkload) screened() int       { return 0 }
func (w *farmWorkload) procs() int          { return w.vms }

func (w *farmWorkload) referenceDigest() string {
	keys := make([]string, 0, len(w.refs))
	for k := range w.refs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%d:%s%+v\n", len(k), k, w.refs[k])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (w *farmWorkload) goldenKey(seed uint64) string {
	return fmt.Sprintf("farm_mix/seed=%d/laps=%d,%s", seed, w.numLaps(), w.sc.inputKey("farm_mix"))
}

func (w *farmWorkload) lap(i int) *lapResult { return w.runLap(w.f, w.laps[i], 2*w.vms, nil) }

func finished(st farm.Stats) int {
	return int(st.Done + st.Failed + st.Timeouts + st.Checkpoints)
}

// runLap pushes jobs through f as a closed loop: whenever the farm's own
// completion count shows fewer than inflight jobs outstanding the generator
// submits the next ones, and otherwise sleeps 100µs. Outcomes are read and
// checked after the last job completes, outside the timed interval.
func (w *farmWorkload) runLap(f *farm.Farm, jobs []farmJob, inflight int, tr *tracer) *lapResult {
	l := &lapResult{ops: len(jobs)}
	ids := make([]string, len(jobs))
	submitted := make([]int64, len(jobs))
	lap := tr.begin("lap", -1, -1)
	base := finished(f.Stats())
	t0 := time.Now()
	for next := 0; ; {
		st := f.Stats()
		done := finished(st) - base
		if n := st.Active + st.Queued; n > l.maxInFlight {
			l.maxInFlight = n // the farm's own view of what is outstanding
		}
		for next < len(jobs) && next-done < inflight {
			s := tr.begin("farm.submit", next, lap)
			v, err := f.Submit(jobs[next].spec)
			tr.end(s)
			if s >= 0 {
				submitted[next] = tr.spans[s].Start
			}
			l.rss = append(l.rss, residentMB())
			if err == nil {
				ids[next] = v.ID
			} else {
				base-- // a refused job will never show up as finished
			}
			next++
			if next-done > l.maxInFlight {
				l.maxInFlight = next - done
			}
		}
		if next == len(jobs) && done == len(jobs) {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	l.wall = time.Since(t0)
	tr.end(lap)

	for i, id := range ids {
		v, ok := f.Job(id)
		if !ok || v.Status != farm.StatusDone || v.Result == nil || !v.Result.Halted ||
			outcomeOf(v.Result) != w.refs[jobs[i].ref] {
			l.failed++
			continue
		}
		r := v.Result
		l.counts.addEngine(&r.Metrics, &r.CacheStats)
		l.lat = append(l.lat, time.Duration(v.LatencyNs))
		l.nonrun = append(l.nonrun, time.Duration(v.LatencyNs-r.WallNs))
		l.runNs += r.WallNs
		l.latNs += v.LatencyNs
		if tr != nil {
			// The job's own span, on the farm's clock: submit to done.
			tr.spans = append(tr.spans, Span{ID: len(tr.spans), Parent: lap, Op: i, Name: "farm.job",
				Start: submitted[i], End: submitted[i] + v.LatencyNs})
		}
	}
	return l
}

func (w *farmWorkload) traced(tr *tracer, base []*lapResult) (map[string]float64, []string, *lapResult) {
	out := map[string]float64{}
	n := 1 + w.sc.TraceLaps
	l := w.runLap(w.f, w.laps[n], 2*w.vms, tr)
	countLayers(out, &l.counts)
	out["farm.submit_us"] = us(tr.byName()["farm.submit"].mean())

	// Lap times drift by several percent on a shared host, and the time the
	// engines spend in Run drifts with them; spans around Submit slow only
	// the generator. So the overhead is read off wall time per unit of Run
	// time, the traced lap against the median untraced lap.
	var perRun []float64
	var nonrun []time.Duration
	var runNs, latNs int64
	for _, b := range base {
		perRun = append(perRun, b.wall.Seconds()/float64(b.runNs))
		nonrun = append(nonrun, b.nonrun...)
		runNs += b.runNs
		latNs += b.latNs
	}
	out["trace.overhead_pct"] = 100 * (l.wall.Seconds()/float64(l.runNs)/medianOf(perRun).Value - 1)
	out["farm.nonrun_ms_p50"] = ms(quantile(nonrun, 0.50))
	out["farm.run_share"] = ratio(float64(runNs), float64(latNs))

	// One lap with as many jobs in flight as there are VMs: nothing queues,
	// so submit-to-done minus Engine.Run is what the farm itself adds.
	ol := w.runLap(w.f, w.laps[n+1], w.vms, nil)
	l.absorb(ol)
	overhead := ratio(float64(ol.latNs-ol.runNs), float64(len(ol.lat))) / 1e6
	out["farm.overhead_ms_per_job"] = overhead

	var buf bytes.Buffer
	t0 := time.Now()
	farm.WriteMetrics(&buf, w.f)
	out["farm.write_metrics_ms"] = ms(time.Since(t0))
	out["farm.metrics_kib"] = float64(buf.Len()) / 1024
	t0 = time.Now()
	views := w.f.Jobs()
	out["farm.jobs_view_ms"] = ms(time.Since(t0))
	st := w.f.Stats()
	if int(st.Submitted) != len(views) {
		l.failed++
	}
	out["farm.retries"] = float64(st.Retries)
	out["farm.failures"] = float64(st.Failed)
	out["farm.timeouts"] = float64(st.Timeouts)
	out["tcache.shared_hit_ratio"] = ratio(float64(st.Store.Hits), float64(st.Store.Hits+st.Store.Waits+st.Store.Misses))
	out["tcache.shared_waits"] = float64(st.Store.Waits)
	out["tcache.shared_evictions"] = float64(st.Store.Evictions)

	// Throughput at one VM and at nproc VMs on fresh farms, a third of a lap
	// each, both with GOMAXPROCS left at nproc.
	short := w.laps[0][:len(w.laps[0])/3]
	rate := func(vms int) float64 {
		f := newFarm(vms)
		defer f.Drain()
		sl := w.runLap(f, short, 2*vms, nil)
		l.absorb(sl)
		return float64(sl.ops) / sl.wall.Seconds()
	}
	one := rate(1)
	out["farm.scaling_efficiency"] = ratio(rate(w.vms), float64(w.vms)*one)

	// The distinct images behind the jobs, run solo under spans: the layer
	// replays need engines the farm does not hand out.
	var images []*image
	var refKeys []string
	var named, unique int
	var buildT, asmT time.Duration
	seen := map[string]bool{}
	for _, j := range w.laps[n] {
		if seen[j.ref] || len(images) >= w.sc.Sample {
			continue
		}
		seen[j.ref] = true
		const reps = 10
		t0 := time.Now()
		for k := 0; k < reps; k++ {
			if j.spec.Workload != "" {
				wl, _ := workload.ByName(j.spec.Workload)
				wl.Build()
			} else {
				_, _ = asm.Assemble(j.spec.Source)
			}
		}
		if d := time.Since(t0) / reps; j.spec.Workload != "" {
			buildT += d
			named++
		} else {
			asmT += d
			unique++
		}
		img, err := jobImage(j.spec)
		if err != nil {
			l.failed++
			continue
		}
		images = append(images, img)
		refKeys = append(refKeys, j.ref)
	}
	out["workload.build_ms_per_job"] = ratio(ms(buildT), float64(named))
	out["asm.assemble_ms_per_job"] = ratio(ms(asmT), float64(unique))

	// A job's image is held to the farm's own standard here too: the
	// outcome a Result exposes, not all of RAM — suite workloads leave
	// interrupt-timing residue on their stacks that the fuzzer's programs
	// scrub and these do not.
	sample := &soloWorkload{sc: w.sc, progs: images}
	sample.ok = func(i int, e *cms.Engine, plat *dev.Platform, err error) bool {
		return err == nil && engineOutcome(e, plat) == w.refs[refKeys[i]]
	}
	str := newTracer()
	sl, kept := sample.run(cms.DefaultConfig(), str, len(images))
	l.absorb(sl)
	notes := sample.engineLayers(out, str.byName(), &sl.counts, kept, l)
	notes[0] = "sample of distinct job images, solo: " + notes[0]
	out["mem.fine_grain_refills"] = float64(sl.counts.fgRefills)
	out["interp.icache_hit_ratio"] = ratio(float64(sl.counts.icHits), float64(sl.counts.icHits+sl.counts.icMisses))

	// What the farm adds per job, split by the replayed unit costs. Those are
	// solo costs; what two VMs add by allocating and collecting side by side
	// lands in the remainder until the farm carries phase timers of its own.
	jobs := float64(len(w.laps[n]))
	shareNamed := float64(w.sc.FarmRounds*len(w.sc.suite())) / jobs
	build := shareNamed * out["workload.build_ms_per_job"]
	assemble := (1 - shareNamed) * out["asm.assemble_ms_per_job"]
	plat := out["dev.new_platform_ms"]
	engine := out["cms.new_us"] / 1e3
	hash := out["incident.image_hash_us_per_job"] / 1e3
	pct := func(v float64) float64 { return 100 * ratio(v, overhead) }
	notes = append(notes, fmt.Sprintf(
		"farm.overhead_ms_per_job %.3f = workload.build %.1f%% + asm.assemble %.1f%% + dev.new_platform %.1f%% + cms.new %.1f%% + incident.image_hash %.1f%% + remainder %.1f%%",
		overhead, pct(build), pct(assemble), pct(plat), pct(engine), pct(hash),
		pct(overhead-build-assemble-plat-engine-hash)))
	return out, notes, l
}
