package xlate_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"runtime"
	"sync"
	"testing"
	"time"

	"cms/internal/cms"
	"cms/internal/dev"
	"cms/internal/fuzzer"
	"cms/internal/guest"
	"cms/internal/workload"
	"cms/internal/xlate"
)

// The translator tests below all work on requests frozen from real engines:
// every image of the workload suite and a few hundred generated programs are
// run to completion, and the requests behind their installed and retired
// translations are harvested from the cache (the same artifacts cmsperf
// replays for xlate.translate_us_per_insn). The compile flag is cleared:
// these tests are about the scheduled code, not the closures built from it.

// harvest runs one guest image under cfg and returns the live engine (its
// bus and profile are what BenchmarkPrepare needs) and the frozen requests
// of its cache, installed entries first, then retired group members.
func harvest(tb testing.TB, cfg cms.Config, ram uint32, disk []byte, org uint32, image []byte, entry uint32, budget uint64) (*cms.Engine, []*xlate.RequestImage) {
	tb.Helper()
	plat := dev.NewPlatform(ram, disk)
	plat.Bus.WriteRaw(org, image)
	e := cms.New(plat, entry, cfg)
	if err := e.Run(budget); err != nil {
		tb.Fatalf("harvest run: %v", err)
	}
	cs, err := e.Cache.ExportState()
	if err != nil {
		tb.Fatalf("harvest export: %v", err)
	}
	var ims []*xlate.RequestImage
	add := func(im *xlate.RequestImage) {
		c := *im
		c.Compile = false
		ims = append(ims, &c)
	}
	for _, es := range cs.Entries {
		add(es.Req)
	}
	for _, g := range cs.Groups {
		for _, m := range g.Members {
			add(m)
		}
	}
	return e, ims
}

// fuzzConfigs are the generator shapes the corpus draws from: the default
// (every gate on — SMC, IRQ, MMIO and #DE push sites down the policy
// ladder) and the long, gate-free shape of cmsperf's steady workload.
var fuzzConfigs = []fuzzer.GenConfig{
	{},
	{Frags: 16, NoSMC: true, NoIRQ: true, NoMMIO: true, NoFault: true},
}

type corpusSet struct {
	suite, fuzz []*xlate.RequestImage
	engines     []*cms.Engine // one per harvested image, for Prepare
}

var (
	corpusOnce sync.Once
	theCorpus  corpusSet
)

const corpusFuzzSeeds = 160 // per generator shape

func corpus(tb testing.TB) *corpusSet {
	corpusOnce.Do(func() {
		for _, w := range workload.All() {
			img := w.Build()
			e, ims := harvest(tb, cms.DefaultConfig(), img.RAM, img.Disk, img.Org, img.Data, img.Entry, img.Budget)
			theCorpus.suite = append(theCorpus.suite, ims...)
			theCorpus.engines = append(theCorpus.engines, e)
		}
		for _, gc := range fuzzConfigs {
			for seed := uint64(1); seed <= corpusFuzzSeeds; seed++ {
				p := fuzzer.MustBuild(seed, gc)
				e, ims := harvest(tb, fuzzer.OracleConfig(), p.RAM, nil, p.Org, p.Image, p.Entry, p.Budget)
				theCorpus.fuzz = append(theCorpus.fuzz, ims...)
				theCorpus.engines = append(theCorpus.engines, e)
			}
		}
	})
	return &theCorpus
}

func (c *corpusSet) all() []*xlate.RequestImage {
	return append(append([]*xlate.RequestImage(nil), c.suite...), c.fuzz...)
}

// ladder returns im plus one more conservative variant of it, cycling
// through every knob of the policy ladder by index, so the digest covers
// each scheduling mode on real regions whether or not a harvested engine
// happened to climb that rung.
func ladder(i int, im *xlate.RequestImage) []*xlate.RequestImage {
	v := *im
	pick := func(ok func(guest.Insn) bool) (uint32, bool) {
		for k := range im.Insns {
			in := im.Insns[(k+i)%len(im.Insns)]
			if ok(in) {
				return in.Addr, true
			}
		}
		return 0, false
	}
	any := func(guest.Insn) bool { return true }
	switch i % 8 {
	case 0:
		v.Pol.NoReorderMem = true
	case 1:
		v.Pol.NoAliasHW = true
	case 2:
		v.Pol.NoHoistLoads = true
	case 3:
		v.Pol.SelfCheck = true
	case 4:
		v.Pol.MaxInsns = len(im.Insns)/2 + 1
	case 5:
		if a, ok := pick(any); ok {
			v.Pol = v.Pol.WithSerialize(a)
		}
	case 6:
		if a, ok := pick(any); ok {
			v.Pol = v.Pol.WithNoReorder(a)
		}
	case 7:
		if a, ok := pick(func(in guest.Insn) bool { return in.HasImm32() }); ok {
			v.Pol = v.Pol.WithImmLoad(a)
			v.Pol.SelfCheck = true
		}
	}
	return []*xlate.RequestImage{im, &v}
}

func reify(tb testing.TB, im *xlate.RequestImage) *xlate.Request {
	tb.Helper()
	req, err := im.Reify()
	if err != nil {
		tb.Fatal(err)
	}
	return req
}

type digester struct {
	h hash.Hash
	b [8]byte
}

func (d *digester) u(v uint64) {
	binary.LittleEndian.PutUint64(d.b[:], v)
	d.h.Write(d.b[:])
}

func (d *digester) flag(v bool) {
	if v {
		d.u(1)
	} else {
		d.u(0)
	}
}

// translation folds everything a Translation hands the runtime into the
// digest: the scheduled code atom by atom, the exits with their fix-ups, and
// the self-check inputs (source ranges, snapshot, mask).
func (d *digester) translation(t *xlate.Translation) {
	d.u(uint64(t.Entry))
	d.u(uint64(len(t.Insns)))
	d.u(uint64(t.Code.NumExits))
	d.u(uint64(len(t.Code.Mols)))
	for _, m := range t.Code.Mols {
		d.u(uint64(len(m.Atoms)))
		for _, a := range m.Atoms {
			d.u(uint64(a.Op) | uint64(a.Rd)<<8 | uint64(a.Rd2)<<16 | uint64(a.Ra)<<24 |
				uint64(a.Rb)<<32 | uint64(a.Rc)<<40 | uint64(a.Fs)<<48 | uint64(a.Fd)<<56)
			d.u(uint64(a.Imm) | uint64(a.Cond)<<32 | uint64(a.Size)<<40 | uint64(uint8(a.ProtIdx))<<48)
			d.u(a.CheckMask)
			d.u(uint64(uint32(a.Target)) | uint64(uint16(a.GIdx))<<32)
			d.flag(a.Reordered)
			d.flag(a.Commit)
		}
	}
	d.u(uint64(len(t.Exits)))
	for _, e := range t.Exits {
		d.u(uint64(e.Kind) | uint64(e.Target)<<8)
		d.u(uint64(e.Insns))
		d.u(uint64(len(e.Fixups)))
		for _, fx := range e.Fixups {
			d.u(uint64(uint16(fx.Guest)) | uint64(uint16(fx.Src))<<16)
		}
	}
	d.u(uint64(len(t.SrcRanges)))
	for ri, r := range t.SrcRanges {
		d.u(uint64(r.Addr) | uint64(r.Len)<<32)
		d.h.Write(t.Snapshot[ri])
		d.h.Write(t.Mask[ri])
	}
}

// translatorDigest is the pinned hash of everything the translator emits for
// the corpus. It was recorded at the commit before the back end's working
// state was rewritten (pooled scratch, dense tables, flat dependence edges)
// and must never move without a change that means to alter generated code:
// "the rewrite emits byte-identical code" is this test. It was re-pinned when
// IRET became translatable (traces now end after it, as after RET): 9798
// translations of 262698 guest insns became 9822 of 263796, 0 refused both.
const translatorDigest = "79892f37503649e5547d4d5344a58b9aeb9a1f6e66769e0c82188000b2b242f7"

func TestTranslatorOutputDigest(t *testing.T) {
	c := corpus(t)
	d := &digester{h: sha256.New()}
	var n, insns, refused int
	for i, im := range c.all() {
		for _, v := range ladder(i, im) {
			req := reify(t, v)
			tr, err := req.Translate()
			if err != nil {
				// A refusal contributes nothing: the digest pins the code of
				// accepted regions only.
				refused++
				continue
			}
			key := req.Key()
			d.h.Write(key[:])
			d.translation(tr)
			n++
			insns += len(tr.Insns)
		}
	}
	got := hex.EncodeToString(d.h.Sum(nil))
	t.Logf("%d translations (%d guest insns, %d refused) from %d suite + %d fuzzer requests: %s",
		n, insns, refused, len(c.suite), len(c.fuzz), got)
	if n < 2000 {
		t.Fatalf("corpus shrank to %d translations", n)
	}
	if got != translatorDigest {
		t.Fatalf("translator output digest = %s, pinned %s", got, translatorDigest)
	}
}

// benchRequests reifies the unmodified corpus once, outside the timer.
func benchRequests(tb testing.TB) (reqs []*xlate.Request, insns int) {
	for _, im := range corpus(tb).all() {
		req := reify(tb, im)
		t, err := req.Translate()
		if err != nil {
			continue
		}
		reqs = append(reqs, req)
		insns += len(t.Insns)
	}
	return reqs, insns
}

// perInsn reports a benchmark's cost per translated guest instruction: wall
// time, heap objects and heap bytes.
func perInsn(b *testing.B, insns int, run func()) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		run()
	}
	elapsed := time.Since(start)
	b.StopTimer()
	runtime.ReadMemStats(&after)
	total := float64(insns) * float64(b.N)
	b.ReportMetric(float64(elapsed.Nanoseconds())/total, "ns/insn")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/total, "allocs/insn")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/total, "B/insn")
}

var sinkTranslation *xlate.Translation

// BenchmarkTranslate is the xlate layer's unit cost (ROADMAP item 1(b)):
// Request.Translate over the frozen corpus, per translated guest
// instruction, without vliw.Compile.
func BenchmarkTranslate(b *testing.B) {
	reqs, insns := benchRequests(b)
	perInsn(b, insns, func() {
		for _, req := range reqs {
			sinkTranslation, _ = req.Translate()
		}
	})
}

var sinkRequest *xlate.Request

// BenchmarkPrepare is the front end's unit cost: region selection and source
// capture against each harvested engine's final bus and profile, at every
// entry and policy its cache holds.
func BenchmarkPrepare(b *testing.B) {
	type site struct {
		tr    *xlate.Translator
		entry uint32
		pol   xlate.Policy
	}
	var sites []site
	insns := 0
	for _, e := range corpus(b).engines {
		cs, err := e.Cache.ExportState()
		if err != nil {
			b.Fatal(err)
		}
		for _, es := range cs.Entries {
			// A region SMC has since rewritten may no longer form.
			if req, err := e.Trans.Prepare(es.Req.Entry, es.Req.Pol); err == nil {
				sites = append(sites, site{e.Trans, es.Req.Entry, es.Req.Pol})
				insns += req.GuestLen()
			}
		}
	}
	perInsn(b, insns, func() {
		for _, s := range sites {
			sinkRequest, _ = s.tr.Prepare(s.entry, s.pol)
		}
	})
}

// digestOf is the digest of one translation (or of its refusal).
func digestOf(t *xlate.Translation, err error) string {
	if err != nil {
		return "refused: " + err.Error()
	}
	d := &digester{h: sha256.New()}
	d.translation(t)
	return hex.EncodeToString(d.h.Sum(nil))
}

// TestScratchPoolSafety: translations share one pool of scratch memory
// across goroutines, and a Translation must own everything it points to.
// Many goroutines translate the same request stream, each starting somewhere
// else, and every result must equal the serial one (run it under -race);
// then each request is translated on a scratch that is overwritten with junk
// before the result is looked at, so anything still aliasing the scratch
// reads wrong.
func TestScratchPoolSafety(t *testing.T) {
	c := corpus(t)
	var reqs []*xlate.Request
	for i, im := range c.all() {
		if i%6 != 0 {
			continue
		}
		for _, v := range ladder(i/6, im) {
			reqs = append(reqs, reify(t, v))
		}
	}
	want := make([]string, len(reqs))
	for i, req := range reqs {
		want[i] = digestOf(req.Translate())
	}

	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range reqs {
				i := (k + g*len(reqs)/goroutines) % len(reqs)
				if got := digestOf(reqs[i].Translate()); got != want[i] {
					t.Errorf("goroutine %d: request %d translated differently beside others", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	for i, req := range reqs {
		if got := digestOf(xlate.TranslatePoisoned(req)); got != want[i] {
			t.Fatalf("request %d: the Translation changed when its scratch was overwritten", i)
		}
	}
	t.Logf("%d requests, %d goroutines", len(reqs), goroutines)
}

// maxAllocsPerInsn is the ceiling on heap objects per translated guest
// instruction over the fuzzer half of the corpus. A translation allocates
// its output — the Translation, its Code, molecule and atom arrays, exits
// and fix-ups, snapshot and mask — and nothing else: 0.28 measured when the
// back end's working state moved into the pooled scratch, 25 before.
const maxAllocsPerInsn = 0.5

func TestTranslateAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop scratches at random")
	}
	var reqs []*xlate.Request
	insns := 0
	for _, im := range corpus(t).fuzz {
		req := reify(t, im)
		tr, err := req.Translate()
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, req)
		insns += len(tr.Insns)
	}
	allocs := testing.AllocsPerRun(3, func() {
		for _, req := range reqs {
			sinkTranslation, _ = req.Translate()
		}
	})
	per := allocs / float64(insns)
	t.Logf("%.0f objects for %d guest insns in %d translations: %.3f per insn", allocs, insns, len(reqs), per)
	if per > maxAllocsPerInsn {
		t.Fatalf("%.3f heap objects per translated guest instruction, ceiling %.2f", per, maxAllocsPerInsn)
	}
}
