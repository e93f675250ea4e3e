package perf

import (
	"crypto/sha256"
	"fmt"
	"math"
	"time"

	"cms/internal/cms"
	"cms/internal/dev"
	"cms/internal/guest"
	"cms/internal/tcache"
)

// counts sums the simulated and structural counters of a set of runs. All of
// them are deterministic for a given input set.
type counts struct {
	guestInterp, guestTexec, mols, molsTexec       uint64
	translations, insnsTranslated, codeAtoms       uint64
	dispatchToTexec, chain, lookup, dispReturns    uint64
	indHits, indMisses, faults, adapts, protFaults uint64
	installs, invalidations, evictions, groupHits  uint64
	fgRefills, icHits, icMisses                    uint64
}

func (c *counts) addEngine(m *cms.Metrics, cs *tcache.Stats) {
	c.guestInterp += m.GuestInterp
	c.guestTexec += m.GuestTexec
	c.mols += m.TotalMols()
	c.molsTexec += m.MolsTexec
	c.translations += m.Translations
	c.insnsTranslated += m.GuestInsnsTranslated
	c.codeAtoms += m.CodeAtoms
	c.dispatchToTexec += m.DispatchToTexec
	c.chain += m.ChainTransfers
	c.lookup += m.LookupTransfers
	c.dispReturns += m.DispatchReturns
	c.indHits += m.IndirectHits
	c.indMisses += m.IndirectMisses
	for i := range m.Faults {
		c.faults += m.Faults[i]
		c.adapts += m.Adaptations[i]
	}
	c.protFaults += m.ProtFaults
	c.installs += cs.Installs
	c.invalidations += cs.Invalidations
	c.evictions += cs.Evictions
	c.groupHits += cs.GroupHits
}

func (c *counts) guest() uint64 { return c.guestInterp + c.guestTexec }

// runImage is one solo operation: build a platform, load the image, build an
// engine, run to halt. When tr is non-nil each call into a layer is a span
// under the operation's own span, which hangs under parent.
func runImage(img *image, cfg cms.Config, tr *tracer, op, parent int) (*cms.Engine, *dev.Platform, error) {
	root := tr.begin("op", op, parent)
	s := tr.begin("dev.new_platform", op, root)
	plat := dev.NewPlatform(img.ram, img.disk)
	tr.end(s)
	s = tr.begin("mem.write_raw", op, root)
	plat.Bus.WriteRaw(img.org, img.data)
	tr.end(s)
	s = tr.begin("cms.new", op, root)
	e := cms.New(plat, img.entry, cfg)
	if img.stackTop != 0 {
		e.CPU().Regs[guest.ESP] = img.stackTop
	}
	tr.end(s)
	s = tr.begin("cms.run", op, root)
	err := e.Run(img.budget)
	tr.end(s)
	tr.end(root)
	return e, plat, err
}

// timed books one solo operation: its interval and its engine's counters.
func (l *lapResult) timed(d time.Duration, e *cms.Engine, plat *dev.Platform) {
	l.wall += d
	l.lat = append(l.lat, d)
	l.rss = append(l.rss, residentMB())
	l.counts.addEngine(&e.Metrics, &e.Cache.Stats)
	l.counts.fgRefills += plat.Bus.Stats.FineGrainRefills
	h, m := e.Interp.ICacheStats()
	l.counts.icHits += h
	l.counts.icMisses += m
}

// sampleRun keeps a finished operation's engine for the layer replays.
type sampleRun struct {
	img *image
	e   *cms.Engine
}

// soloWorkload drives steady, churn and cold: one client, one engine at a
// time, each program on a fresh platform with an empty translation cache.
type soloWorkload struct {
	name  string
	sc    Scale
	progs []*image
	refs  [][sha256.Size]byte
	input string
	// redrawn counts the programs setup replaced (see screen).
	redrawn int
	// ok decides whether operation i ended as its reference says; setup
	// installs the full-state digest comparison.
	ok func(i int, e *cms.Engine, plat *dev.Platform, err error) bool
}

func (w *soloWorkload) setup(seed uint64) error {
	switch w.name {
	case "steady":
		w.progs, w.redrawn = steadyInputs(seed, w.sc)
	case "churn":
		w.progs, w.redrawn = churnInputs(seed, w.sc)
	default:
		w.progs, w.redrawn = coldInputs(seed, w.sc)
	}
	d := newDigester()
	for _, p := range w.progs {
		d.image(p)
	}
	w.input = d.sum()
	w.refs = soloReferences(w.progs)
	w.ok = func(i int, e *cms.Engine, plat *dev.Platform, err error) bool {
		return err == nil && e.CPU().Halted && stateDigest(e, plat, err) == w.refs[i]
	}
	return nil
}

func (w *soloWorkload) close()                  {}
func (w *soloWorkload) inputDigest() string     { return w.input }
func (w *soloWorkload) screened() int           { return w.redrawn }
func (w *soloWorkload) referenceDigest() string { return hexDigest(w.refs) }
func (w *soloWorkload) goldenKey(seed uint64) string {
	return fmt.Sprintf("%s/seed=%d/%s", w.name, seed, w.sc.inputKey(w.name))
}

// procs pins the solo laps to one processor. One goroutine drives them, but
// at GOMAXPROCS 2 the collector's workers run beside it on the second CPU:
// cold then measures 7 guest MIPS wandering by 13% from run to run, against
// 10 MIPS within 2% on one processor, where the collector's work is inside
// the timed intervals instead of beside them.
func (w *soloWorkload) procs() int { return 1 }

func (w *soloWorkload) lap(int) *lapResult {
	l, _ := w.run(cms.DefaultConfig(), nil, 0)
	return l
}

// run is one lap under cfg, keeping the first keep engines. An operation's
// timed interval ends when Run returns; its outcome is digested and compared
// before the next one starts.
func (w *soloWorkload) run(cfg cms.Config, tr *tracer, keep int) (*lapResult, []*sampleRun) {
	l := &lapResult{ops: len(w.progs)}
	var kept []*sampleRun
	lap := tr.begin("lap", -1, -1)
	defer tr.end(lap)
	for i, img := range w.progs {
		t0 := time.Now()
		e, plat, err := runImage(img, cfg, tr, i, lap)
		l.timed(time.Since(t0), e, plat)

		s := tr.begin("check", i, lap)
		if !w.ok(i, e, plat, err) {
			l.failed++
		}
		tr.end(s)
		if i < keep {
			kept = append(kept, &sampleRun{img: img, e: e})
		}
	}
	return l, kept
}

// tracedLap runs every program twice back to back, once under spans and once
// without, swapping the order from one program to the next, and returns the
// traced runs as a lap plus the tracing overhead in percent. Whole laps drift
// against each other by several percent on a shared host, far more than the
// spans cost; two runs 30 ms apart do not, and the swap cancels whatever the
// second run gains from the first.
func (w *soloWorkload) tracedLap(tr *tracer) (*lapResult, float64) {
	l := &lapResult{ops: 2 * len(w.progs)}
	var firstTraced, firstPlain []float64
	lap := tr.begin("lap", -1, -1)
	for i, img := range w.progs {
		var d [2]time.Duration
		for k := 0; k < 2; k++ {
			traced := (i+k)%2 == 0
			var t *tracer
			if traced {
				t = tr
			}
			t0 := time.Now()
			e, plat, err := runImage(img, cms.DefaultConfig(), t, i, lap)
			d[k] = time.Since(t0)
			s := t.begin("check", i, lap)
			if !w.ok(i, e, plat, err) {
				l.failed++
			}
			t.end(s)
			if traced {
				l.timed(d[k], e, plat)
			}
		}
		if i%2 == 0 {
			firstTraced = append(firstTraced, float64(d[0])/float64(d[1]))
		} else {
			firstPlain = append(firstPlain, float64(d[1])/float64(d[0]))
		}
	}
	tr.end(lap)
	return l, 100 * (math.Sqrt(medianOf(firstTraced).Value*medianOf(firstPlain).Value) - 1)
}

func (w *soloWorkload) traced(tr *tracer, _ []*lapResult) (map[string]float64, []string, *lapResult) {
	l, overhead := w.tracedLap(tr)
	out := map[string]float64{"trace.overhead_pct": overhead}
	countLayers(out, &l.counts)

	// The replays need finished engines. Keeping them alive changes what the
	// collector does, so they come from a pass of their own over the first
	// few programs and the traced lap stays comparable with the untraced.
	sample := *w
	if len(sample.progs) > w.sc.Sample {
		sample.progs = sample.progs[:w.sc.Sample]
	}
	sl, kept := sample.run(cms.DefaultConfig(), nil, len(sample.progs))
	l.absorb(sl)
	return out, w.engineLayers(out, tr.byName(), &l.counts, kept, l), l
}

// engineLayers fills the layer metrics that need engines in hand: the
// replayed unit costs of the kept runs, the mean spans of by (a traced pass
// whose counters are c), what those leave for translated execution, the
// same after one more lap of w on the risc backend — a layer line only, a
// second executor's unit cost beside the first's — and the snapshot costs of
// w's first program. Extra operations are booked on l; the attribution lines
// are returned.
func (w *soloWorkload) engineLayers(out map[string]float64, by map[string]spanTotals, c *counts,
	kept []*sampleRun, l *lapResult) []string {
	replayLayers(out, kept, w.sc)
	out["dev.new_platform_ms"] = ms(by["dev.new_platform"].mean())
	out["cms.new_us"] = us(by["cms.new"].mean())
	out["cms.run_ms"] = ms(by["cms.run"].mean())
	out["vliw.texec_ns_per_mol"] = texecNsPerMol(out, by["cms.run"].self, c, "vliw.compile_us_per_atom")
	notes := []string{attribution("cms.run", by["cms.run"].self, out, c, "vliw.compile_us_per_atom")}

	rtr := newTracer()
	rcfg := cms.DefaultConfig()
	rcfg.Backend = "risc"
	rl, _ := w.run(rcfg, rtr, 0)
	l.absorb(rl)
	out["risc.texec_ns_per_mol"] = texecNsPerMol(out, rtr.byName()["cms.run"].self, &rl.counts, "risc.lower_us_per_atom")

	l.ops++
	if err := snapshotLayers(out, w.progs[0], func(e *cms.Engine, plat *dev.Platform, err error) bool {
		return w.ok(0, e, plat, err)
	}); err != nil {
		l.failed++
		notes = append(notes, "snapshot: "+err.Error())
	}
	return notes
}
