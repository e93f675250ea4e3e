package cms

import (
	"errors"
	"fmt"
	"sync/atomic"

	"cms/internal/dev"
	"cms/internal/interp"
	"cms/internal/ir"
	"cms/internal/risc"
	"cms/internal/tcache"
	"cms/internal/vliw"
	"cms/internal/xlate"
)

// Engine is the Code Morphing runtime for one platform.
type Engine struct {
	Cfg  Config
	Plat *dev.Platform

	Interp  *interp.Interp
	Machine *vliw.Machine
	Trans   *xlate.Translator
	Cache   *tcache.Cache

	Metrics Metrics

	// Trace, when non-nil, records engine events (translations, faults,
	// adaptations, SMC machinery) for debugging and tooling.
	Trace *Trace

	sites  map[uint32]*site
	budget uint64
	err    error

	// nextCancel is the retired-instruction count at which the cooperative
	// cancel hook is next polled — MaxUint64 when no hook is configured, so
	// the hot-path test is a single always-false compare.
	nextCancel uint64
	// curEnt is the translation most recently entered by translated
	// execution; a supervisor recovering a panic reads it (ImplicatedKey)
	// to name the artifact to quarantine.
	curEnt *tcache.Entry

	// resumePt, when valid, records a chain-boundary transition that a
	// cancelled run had earned but not yet performed. Run replays it before
	// anything else, with exactly the charges the uninterrupted run would
	// have made, so a snapshot restored at that boundary stays bit-identical
	// to a never-interrupted run (the plain dispatch path would charge
	// DispatchToTexec and a fresh lookup the original run never paid).
	resumePt resumePoint

	// sharedHits/sharedMisses attribute shared-store outcomes to this
	// engine's translation requests (atomics: the farm reads them through
	// SharedStats while the engine runs). Wall-clock-side observability for
	// the farm's dedup metrics — deliberately NOT part of Metrics, which must
	// stay bit-identical with or without a store.
	sharedHits   atomic.Uint64
	sharedMisses atomic.Uint64
}

// ErrBudget reports that Run stopped because the instruction budget was
// exhausted rather than because the guest halted.
var ErrBudget = errors.New("cms: guest instruction budget exhausted")

// ErrCancelled reports that Run stopped because the Config.Cancel hook asked
// it to — typically a serving-layer watchdog whose wall-clock deadline
// expired. The guest state is consistent at the committed boundary where the
// poll fired.
var ErrCancelled = errors.New("cms: run cancelled by watchdog")

// New builds an engine over a platform, with the guest entry point set.
func New(plat *dev.Platform, entry uint32, cfg Config) *Engine {
	cfg = cfg.normalized()
	ip := interp.New(plat.Bus)
	ip.CPU = interp.NewCPU(entry)
	ip.IRQ = plat.IRQ
	ip.Timer = plat.Timer
	ip.Prof = interp.NewProfile()
	ip.CheckProt = true

	m := vliw.NewMachine(plat.Bus)
	m.IRQ = plat.IRQ

	c := tcache.New()
	if cfg.TCacheCapAtoms > 0 {
		c.CapAtoms = cfg.TCacheCapAtoms
	}

	e := &Engine{
		Cfg:     cfg,
		Plat:    plat,
		Interp:  ip,
		Machine: m,
		Trans: &xlate.Translator{
			Bus:            plat.Bus,
			Prof:           ip.Prof,
			Host:           cfg.Host,
			CompileBackend: cfg.EnableCompiledBackend,
			Backend:        cfg.Backend,
		},
		Cache: c,
		sites: make(map[uint32]*site),
	}
	plat.Bus.DMAInvalidate = func(page uint32) {
		e.Cache.InvalidatePage(page)
		e.Metrics.DMAInvalidations++
		e.trace(EvDMA, page<<12, "")
	}
	return e
}

// CPU returns the guest architectural state.
func (e *Engine) CPU() *interp.CPU { return &e.Interp.CPU }

func (e *Engine) site(entry uint32) *site {
	s := e.sites[entry]
	if s == nil {
		s = &site{}
		e.sites[entry] = s
	}
	return s
}

// Run executes the guest until it halts, an unrecoverable error occurs, or
// maxGuest instructions have retired. It returns nil on a clean halt and
// ErrBudget if the budget ran out.
func (e *Engine) Run(maxGuest uint64) error {
	e.budget = maxGuest
	e.nextCancel = ^uint64(0)
	if e.Cfg.Cancel != nil {
		e.nextCancel = e.Metrics.GuestTotal() + e.Cfg.CancelQuantum
	}
	if rp := e.resumePt; rp.valid && e.err == nil && e.Metrics.GuestTotal() < maxGuest {
		// A restored snapshot parked the run mid-chain: replay the pending
		// transition before the dispatcher touches anything. A cancelled run
		// holds one too, but its sticky ErrCancelled keeps it parked.
		e.resumePt = resumePoint{}
		e.resumeTranslated(rp)
	}
	for e.Metrics.GuestTotal() < maxGuest {
		if e.err != nil {
			return e.err
		}
		if e.Interp.CPU.Halted {
			return nil
		}
		if e.Metrics.GuestTotal() >= e.nextCancel && e.pollCancel() {
			return e.err
		}
		eip := e.Interp.CPU.EIP
		if ent := e.Cache.Lookup(eip); ent != nil {
			e.Metrics.DispatchToTexec++
			e.runTranslated(ent)
			continue
		}
		if !e.Cfg.NoTranslate && e.hot(eip) {
			if ent := e.translateAt(eip); ent != nil {
				e.Metrics.DispatchToTexec++
				e.runTranslated(ent)
				continue
			}
		}
		e.step()
	}
	if e.err != nil {
		return e.err
	}
	if e.Interp.CPU.Halted {
		return nil
	}
	return ErrBudget
}

// pollCancel consults the cooperative cancel hook at a committed boundary.
// A true return records ErrCancelled; a false return re-arms the quantum.
// The false path touches no Metrics field, so a run that is polled but never
// cancelled stays bit-identical to one with no hook at all.
func (e *Engine) pollCancel() bool {
	if e.Cfg.Cancel() {
		e.err = ErrCancelled
		return true
	}
	e.nextCancel = e.Metrics.GuestTotal() + e.Cfg.CancelQuantum
	return false
}

// step interprets one instruction boundary: the engine's one call of
// Interp.Step, with every charge around it. A protection hit is resolved
// here (the instruction or delivery re-executes on the next step), so no
// caller can leave one pending. The Result is the interpreter's, valid
// until the next step.
func (e *Engine) step() *interp.Result {
	res := e.Interp.Step()
	e.Metrics.MolsInterp += res.Cost
	switch res.Stop {
	case interp.StopError:
		e.err = res.Err
	case interp.StopProt:
		e.resolveProt(res.Prot.Addr, res.Prot.Size)
	}
	if res.Retired {
		e.Metrics.GuestInterp++
	}
	if res.IRQ {
		e.Metrics.Interrupts++
		e.trace(EvIRQ, e.Interp.CPU.EIP, "")
	}
	return res
}

// hot reports whether the profiler says eip deserves translation.
func (e *Engine) hot(eip uint32) bool {
	// A read-only lookup: the dispatcher asks this for every address it
	// interprets, and nearly none of them ever becomes a site.
	if s := e.sites[eip]; s != nil && s.interpOnly {
		return false
	}
	return e.Interp.Prof.Heads[eip] >= e.Cfg.HotThreshold
}

// A translation reaches the cache in three steps, run inline on the engine
// goroutine by translateAt (prepare, produce, install) — the one install
// point, as in real CMS, where the translator ran on the processor it was
// translating for. Snapshot restore reuses produce alone: the charges are
// already inside the restored Metrics.

// prepare resolves a hot address to one of: an entry, when the translation
// group (§3.6.5) holds a version matching the live bytes and it was
// reinstalled on the spot; a frozen request under the site's current policy;
// or neither, when the address is untranslatable (the site goes interpOnly)
// or region capture failed (e.err is set).
func (e *Engine) prepare(eip uint32) (*tcache.Entry, *xlate.Request) {
	s := e.site(eip)
	if e.Cfg.EnableGroups && s.useGroups {
		if t := e.Cache.GroupMatch(eip, e.Plat.Bus); t != nil {
			e.Metrics.GroupReuses++
			e.trace(EvGroupReuse, eip, "")
			return e.place(s, t), nil
		}
	}
	pol := e.Cfg.BasePolicy.Merge(s.policy)
	if s.selfCheck {
		pol.SelfCheck = true
	}
	req, err := e.Trans.Prepare(eip, pol)
	if err != nil {
		if errors.Is(err, xlate.ErrUntranslatable) {
			s.interpOnly = true
		} else {
			e.translationFailed(eip, err)
		}
		return nil, nil
	}
	return nil, req
}

// storeMethod is how produce asks a shared store for an artifact:
// (*tcache.SharedStore).Translate, or Rehydrate on snapshot restore.
type storeMethod func(*tcache.SharedStore, *xlate.Request) (*xlate.Translation, bool, error)

// produce turns a frozen request into this VM's translation: directly from
// the back end, or — when a farm's shared store is configured — a per-VM
// clone of the store's frozen artifact. A pure function of the request either
// way, so the store saves wall-clock work only.
func (e *Engine) produce(req *xlate.Request, via storeMethod) (*xlate.Translation, error) {
	store := e.Cfg.SharedStore
	if store == nil {
		return req.Translate()
	}
	art, hit, err := via(store, req)
	if err != nil {
		return nil, err
	}
	if hit {
		e.sharedHits.Add(1)
	} else {
		e.sharedMisses.Add(1)
	}
	return art.Clone(), nil
}

// install charges a produced translation to the simulated cost model and
// places it in the cache.
func (e *Engine) install(eip uint32, t *xlate.Translation) *tcache.Entry {
	n := uint64(len(t.Insns))
	e.Trans.Translated++
	e.Trans.InsnsTranslated += n
	e.Metrics.Translations++
	e.Metrics.MolsTranslate += e.Cfg.TranslateCostPerInsn * n
	e.Metrics.CodeAtoms += uint64(t.CodeAtoms())
	e.Metrics.GuestInsnsTranslated += n
	e.trace(EvTranslate, eip, fmt.Sprintf("%d insns, %d mols", len(t.Insns), t.CodeMolecules()))
	return e.place(e.site(eip), t)
}

// place puts t in the cache as its site wants it and write-protects its
// source pages.
func (e *Engine) place(s *site, t *xlate.Translation) *tcache.Entry {
	ent := e.Cache.Install(t)
	ent.SelfReval = s.wantSelfReval && e.Cfg.EnableSelfReval
	e.protect(t)
	return ent
}

func (e *Engine) translationFailed(eip uint32, err error) {
	e.err = fmt.Errorf("cms: translation failed at %#x: %w", eip, err)
}

// translateAt translates and installs the region at eip. It returns nil if
// the address is untranslatable or translation failed.
func (e *Engine) translateAt(eip uint32) *tcache.Entry {
	ent, req := e.prepare(eip)
	if req == nil {
		return ent
	}
	t, err := e.produce(req, (*tcache.SharedStore).Translate)
	if err != nil {
		e.translationFailed(eip, err)
		return nil
	}
	return e.install(eip, t)
}

// SharedStats reports how many of this engine's translation requests the
// shared store served without backend work (hits) versus with it (misses).
// Both are zero without a store. Safe to call while the engine runs.
func (e *Engine) SharedStats() (hits, misses uint64) {
	return e.sharedHits.Load(), e.sharedMisses.Load()
}

// protect write-protects the translation's source pages: fine-grain chunks
// where the page is already in fine-grain mode, coarse protection otherwise.
func (e *Engine) protect(t *xlate.Translation) {
	chunks := t.Chunks()
	for _, p := range t.Pages() {
		if fg, _ := e.Plat.Bus.IsFineGrain(p); fg {
			e.Plat.Bus.AddFineGrainChunks(p, chunks[p])
		} else {
			e.Plat.Bus.Protect(p)
		}
	}
}

// resumePoint records a chain-boundary transition that a cancelled run had
// reached but not yet performed: translation `entry` took exit `exit`
// (indirect or not) committing at `target`, and the cancel hook fired before
// the successor was resolved. Serialized in snapshots; replayed by
// resumeTranslated.
type resumePoint struct {
	valid    bool
	ent      *tcache.Entry // resolved at capture or restore; may be nil
	entry    uint32
	exit     int
	indirect bool
	target   uint32
}

// runTranslated executes translations starting at ent, following chains
// until a fault or an exit with no cached successor.
func (e *Engine) runTranslated(ent *tcache.Entry) {
	cpu := &e.Interp.CPU
	e.Machine.LoadGuest(&cpu.Regs, cpu.Flags, cpu.EIP)
	e.texecLoop(ent)
}

// resumeTranslated replays the transition a chain-boundary cancellation left
// pending and, if a successor resolves, continues the chain from it. It takes
// the exit through texecLoop's own exit-taking step, so a restored run's
// Metrics stay bit-identical to an uninterrupted one.
func (e *Engine) resumeTranslated(rp resumePoint) {
	cur := rp.ent
	if cur == nil {
		cur = e.Cache.Peek(rp.entry)
	}
	if cur == nil || !cur.Valid {
		// The translation vanished between capture and resume. This cannot
		// happen on the snapshot path (the cache is restored verbatim);
		// degrade to plain dispatch at the committed target.
		return
	}
	cpu := &e.Interp.CPU
	e.Machine.LoadGuest(&cpu.Regs, cpu.Flags, rp.target)
	e.curEnt = cur
	if next := e.takeExit(cur, rp.exit, rp.indirect); next != nil {
		e.texecLoop(next)
	}
}

// texecLoop is the chained-execution loop: the machine already holds the
// guest state, and cur is the translation to enter next. Every way out goes
// through surface.
func (e *Engine) texecLoop(cur *tcache.Entry) {
	for {
		// Remember the translation being entered: if a host bug panics out
		// of the compiled closure below, the recovering supervisor reads
		// this to quarantine the implicated shared artifact.
		e.curEnt = cur
		if e.Cfg.Injector != nil && e.injectAt(cur) {
			return
		}
		if cur.Armed {
			why, pass := e.runPrologue(cur)
			if !pass {
				e.surface(cur, why, nil)
				return
			}
			e.Metrics.SelfRevalPasses++
			e.trace(EvRevalPass, cur.T.Entry, "")
			e.reprotect(cur.T)
			cur.Armed = false
		}

		mols0 := e.Machine.Mols
		// Backend fast path when the translation carries an executable
		// form — register-IR or step-array, whichever its request
		// selected; the interpreter is the always-correct fallback (and
		// the only path when EnableCompiledBackend is off).
		var out *vliw.Outcome
		if rc := cur.T.Risc; rc != nil {
			out = risc.Exec(e.Machine, rc)
		} else if cc := cur.T.Compiled; cc != nil {
			// Machine-owned result, read in place — copying the Outcome
			// struct per execution is measurable on hot chained loops.
			out = e.Machine.ExecCompiled(cc)
		} else {
			o := e.Machine.Exec(cur.T.Code)
			out = &o
		}
		e.Metrics.MolsTexec += e.Machine.Mols - mols0
		cur.Execs++

		if out.Fault != vliw.FNone {
			e.surface(cur, exitFault, out)
			return
		}

		ex := &cur.T.Exits[out.Exit] // by pointer: an Exit carries a slice header
		e.Metrics.GuestTexec += uint64(ex.Insns)
		e.Plat.Timer.Advance(uint64(ex.Insns))

		if ex.Kind == ir.ExitSelfCheckFail {
			e.surface(cur, exitSelfCheck, nil)
			return
		}

		// The exit committed at its target's boundary: every way on from
		// here — the next translation faulting, the dispatcher — resumes
		// there, not at the chain's first entry.
		if out.Indirect {
			e.Machine.CommittedEIP = out.IndTarget
		} else {
			e.Machine.CommittedEIP = ex.Target
		}

		// Chained loops can run entirely inside the cache; surface to the
		// dispatcher when the instruction budget runs out, and poll the
		// cancel hook here too — this is the only boundary a chained loop
		// ever crosses, so watchdog preemption must reach it. The common
		// case pays one extra compare against nextCancel (MaxUint64 when no
		// hook is armed).
		if gt := e.Metrics.GuestTotal(); gt >= e.budget || gt >= e.nextCancel {
			if gt >= e.budget {
				e.surface(cur, exitBudget, out)
				return
			}
			if e.pollCancel() {
				e.surface(cur, exitCancel, out)
				return
			}
		}

		if cur = e.takeExit(cur, out.Exit, out.Indirect); cur == nil {
			return
		}
	}
}

// takeExit is the exit-taking step shared by texecLoop and
// resumeTranslated: it resolves the successor translation for an exit
// committed at the machine's CommittedEIP, charging the chaining and lookup
// costs. With no successor it surfaces to the dispatcher and returns nil.
func (e *Engine) takeExit(cur *tcache.Entry, exit int, indirect bool) *tcache.Entry {
	target := e.Machine.CommittedEIP
	var next *tcache.Entry
	switch {
	case indirect && e.Cfg.EnableChaining:
		// A direct chain can't help an indirect exit (the target is
		// data-dependent), but the per-translation inline cache can:
		// hot indirect jumps resolve to few targets, and a hit skips
		// the dispatcher's map lookup almost entirely.
		if n := cur.IndirectTarget(target); n != nil {
			next = n
			e.Metrics.IndirectHits++
			e.Metrics.MolsDispatch += e.Cfg.IndTCHitCost
		} else if next = e.Cache.Lookup(target); next != nil {
			cur.CacheIndirect(target, next)
			e.Metrics.IndirectMisses++
			e.Metrics.LookupTransfers++
			e.Metrics.MolsDispatch += e.Cfg.LookupCost
		} else {
			e.Metrics.IndirectMisses++
		}
	case !indirect && e.Cfg.EnableChaining:
		if ch := cur.Chained(exit); ch != nil && ch.Valid {
			next = ch
			e.Metrics.ChainTransfers++
		} else if next = e.Cache.Lookup(target); next != nil {
			e.Cache.Chain(cur, exit, next)
			e.Metrics.LookupTransfers++
			e.Metrics.MolsDispatch += e.Cfg.LookupCost
		}
	default:
		if next = e.Cache.Lookup(target); next != nil {
			e.Metrics.LookupTransfers++
			e.Metrics.MolsDispatch += e.Cfg.LookupCost
		}
	}
	if next == nil {
		e.surface(cur, exitNoSuccessor, nil)
	}
	return next
}

// exitReason names one way a translated-execution episode ends.
type exitReason uint8

const (
	exitFault       exitReason = iota // rolled back after a fault, real or injected
	exitSelfCheck                     // the region's self-check saw its source change
	exitRevalFail                     // an armed entry's prologue saw its source change
	exitPrologueIRQ                   // an interrupt is pending at an armed entry
	exitPrologueErr                   // the prologue could not run; e.err is set
	exitBudget                        // the instruction budget ran out at a taken exit
	exitCancel                        // the cancel hook fired at a taken exit
	exitNoSuccessor                   // a taken exit has no translation to chain to
	exitEvict                         // an injected eviction of cur
	exitPanic                         // an injected host panic
)

// surface ends a translated-execution episode: the one place guest state
// leaves the machine. The machine holds committed state — rolled back after
// a fault, or at a boundary — so the guest resumes at CommittedEIP: cur's
// entry (or the last taken exit's target, mid-chain) for the rollback,
// prologue and injected reasons, and the taken exit's target for budget,
// cancel and no-successor. The reason's charges and recovery follow. out is
// the outcome of cur's execution, nil where the reason has none.
func (e *Engine) surface(cur *tcache.Entry, why exitReason, out *vliw.Outcome) {
	cpu := &e.Interp.CPU
	e.Machine.StoreGuest(&cpu.Regs, &cpu.Flags)
	cpu.EIP = e.Machine.CommittedEIP
	switch why {
	case exitFault:
		e.Metrics.Faults[out.Fault]++
		cur.FaultCounts[out.Fault]++
		e.traceFault(EvFault, out.Addr, out.Fault)
		e.handleFault(cur, *out)
	case exitSelfCheck:
		e.Metrics.SelfCheckFails++
		e.trace(EvSelfCheckFail, cur.T.Entry, "")
		e.handleSourceChanged(cur)
	case exitRevalFail:
		e.Metrics.SelfRevalFails++
		e.trace(EvRevalFail, cur.T.Entry, "")
		e.handleSourceChanged(cur)
	case exitPrologueIRQ:
		// Deliver at the committed boundary; the dispatcher comes back and
		// re-runs the prologue afterwards.
		e.step()
	case exitBudget:
		e.Metrics.DispatchReturns++
	case exitCancel:
		// The exit is taken but its transition not yet performed. Park the
		// transition so a snapshot restored here can replay it with the
		// exact charges the uninterrupted run would have made (see
		// resumeTranslated).
		e.resumePt = resumePoint{
			valid:    true,
			ent:      cur,
			entry:    cur.T.Entry,
			exit:     out.Exit,
			indirect: out.Indirect,
			target:   cpu.EIP,
		}
	case exitNoSuccessor:
		e.Metrics.DispatchReturns++
		e.Metrics.MolsDispatch += e.Cfg.LookupCost
		// The dispatcher is a profiling point too: targets that keep
		// arriving from translated code (typically via indirect exits)
		// must still cross the translation threshold.
		e.Interp.Prof.Heads[cpu.EIP]++
	case exitEvict:
		e.trace(EvInvalidate, cur.T.Entry, "injected eviction")
		e.Cache.Invalidate(cur)
		e.reconcileProtection(cur)
	case exitPanic:
		// The boundary state is committed first so a recovering supervisor
		// sees a consistent CPU; then blow up the way a buggy host closure
		// would. The panic value is a pure function of this boundary, so
		// replays reproduce it verbatim.
		panic(&InjectedPanic{Entry: cur.T.Entry, Retired: e.Metrics.GuestTotal()})
	}
}

// injectAt consults the configured fault injector at a commit boundary and,
// when an action fires, surfaces with it: injected events ride the engine's
// real recovery paths. It reports whether control returned to the
// dispatcher. Nothing speculative is in flight at a boundary, so the
// machine holds exactly the committed state.
func (e *Engine) injectAt(cur *tcache.Entry) bool {
	switch e.Cfg.Injector.TexecBoundary(cur.T.Entry, e.Metrics.GuestTotal()) {
	case InjectRollback:
		e.surface(cur, exitFault, &vliw.Outcome{Fault: vliw.FIRQ, Exit: -1, GIdx: -1, Addr: cur.T.Entry})
	case InjectAliasFault:
		e.surface(cur, exitFault, &vliw.Outcome{Fault: vliw.FAlias, Exit: -1, GIdx: 0, Addr: cur.T.Entry})
	case InjectEvict:
		e.surface(cur, exitEvict, nil)
	case InjectPanic:
		e.surface(cur, exitPanic, nil)
	default:
		return false
	}
	return true
}

// ImplicatedKey names the shared-store artifact to quarantine after a host
// panic: the content key of the translation most recently entered by
// translated execution. The panic may have originated elsewhere (the
// interpreter, the translator), but the executing translation is the best
// single suspect, and poisoning is cheap, TTL'd, and metrics-invisible, so a
// false positive costs only wall clock. ok is false when nothing has
// executed yet or the translation did not come from a shared store.
func (e *Engine) ImplicatedKey() (key xlate.Key, ok bool) {
	if e.curEnt == nil || e.curEnt.T == nil || !e.curEnt.T.HasSharedKey {
		return xlate.Key{}, false
	}
	return e.curEnt.T.SharedKey, true
}

// runPrologue executes a self-revalidation prologue (§3.6.2), compiled when
// translations run compiled. pass reports that the source is unchanged;
// otherwise why says how the entry surfaces.
func (e *Engine) runPrologue(ent *tcache.Entry) (why exitReason, pass bool) {
	code, passExit, failExit, err := ent.T.Prologue()
	if err != nil {
		e.err = err
		return exitPrologueErr, false
	}
	mols0 := e.Machine.Mols
	var out *vliw.Outcome
	if e.Cfg.EnableCompiledBackend {
		out = e.Machine.ExecCompiled(ent.T.CompiledPrologue())
	} else {
		o := e.Machine.Exec(code)
		out = &o
	}
	e.Metrics.MolsPrologue += e.Machine.Mols - mols0
	switch {
	case out.Fault == vliw.FIRQ:
		return exitPrologueIRQ, false
	case out.Fault != vliw.FNone:
		e.err = fmt.Errorf("cms: prologue fault %v at %#x", out.Fault, ent.T.Entry)
		return exitPrologueErr, false
	case out.Exit == passExit:
		return 0, true
	case out.Exit == failExit:
		// Source changed under the prologue; no guest state was touched.
		return exitRevalFail, false
	}
	e.err = fmt.Errorf("cms: prologue exit %d unknown", out.Exit)
	return exitPrologueErr, false
}

// reprotect restores write protection over a translation's source bytes
// after a successful revalidation.
func (e *Engine) reprotect(t *xlate.Translation) {
	chunks := t.Chunks()
	for _, p := range t.Pages() {
		if fg, _ := e.Plat.Bus.IsFineGrain(p); fg {
			e.Plat.Bus.AddFineGrainChunks(p, chunks[p])
		} else if e.Cfg.EnableFineGrain {
			e.Plat.Bus.SetFineGrain(p, e.Cache.PageChunkMask(p)|chunks[p])
		} else {
			e.Plat.Bus.Protect(p)
		}
	}
}
