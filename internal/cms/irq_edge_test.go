package cms

import (
	"fmt"
	"testing"

	"cms/internal/asm"
	"cms/internal/dev"
	"cms/internal/guest"
	"cms/internal/vliw"
)

// Interrupt-delivery edge cases: asynchronous IRQs arriving exactly when
// the engine is doing something delicate — rolling a translation back,
// re-interpreting a region after a fault, or tearing down a translation a
// guest store just invalidated. In every case the architectural registers,
// flags, and console must match a pure-interpretation run: deliveries may
// land at different instruction boundaries (that is architecturally
// legal), but they must never corrupt guest state.
//
// Final memory is NOT compared here: the tick counter genuinely differs
// with delivery timing. The generative fuzzer (internal/fuzzer) owns the
// byte-identical-memory guarantee via its interrupt-quiescent programs.

const (
	edgeTick = 0x8000 // tick counter cell
	edgeTog  = 0x8010 // SMC toggle cell
)

// irqEdgeProgram builds a timer-pressured kernel: a transparent tick
// handler on the timer vector, the interval timer (a tick every period
// instructions) running across a hot loop, timer off, halt. With smc set,
// the hot loop's first instruction is rewritten between ADD and SUB by a
// byte store on every outer iteration — SMC teardown racing delivery.
func irqEdgeProgram(smc bool, period uint32) *asm.Builder {
	eax, ebx, ecx, edx, esi, edi, ebp := guest.EAX, guest.EBX, guest.ECX, guest.EDX, guest.ESI, guest.EDI, guest.EBP
	b := asm.NewBuilder(0x1000)
	b.Jmp("main")

	b.Label("tick")
	b.Push(eax)
	b.MovRM(eax, asm.Abs(edgeTick))
	b.Inc(eax)
	b.MovMR(asm.Abs(edgeTick), eax)
	b.Pop(eax)
	b.Iret()

	b.Label("main")
	b.MovRILabel(eax, "tick")
	b.MovMR(asm.Abs(guest.IVTBase+4*guest.VecIRQBase), eax)
	b.MovRI(eax, period)
	b.Out(dev.TimerPeriodPort, eax)

	b.MovRI(eax, 0)
	b.MovRI(esi, 3)
	if !smc {
		b.MovRI(ecx, 4000)
		b.Label("loop")
		b.AddRR(eax, esi)
		b.XorRR(edx, eax)
		b.Dec(ecx)
		b.Jcc(guest.CondNE, "loop")
	} else {
		b.MovRI(edi, 60)
		b.Label("outer")
		// Flip the toggle and rewrite the opcode at "site":
		// 0x20 + 4*toggle is OpADDrr or OpSUBrr (same length).
		b.MovRM(ebx, asm.Abs(edgeTog))
		b.AluRI("xor", ebx, 1)
		b.MovMR(asm.Abs(edgeTog), ebx)
		b.MovRR(edx, ebx)
		b.ShlRI(edx, 2)
		b.AddRI(edx, uint32(guest.OpADDrr))
		b.MovRILabel(ebp, "site")
		b.MovBMR(asm.Mem(ebp), edx)
		b.MovRI(ecx, 200)
		b.Label("inner")
		b.Label("site")
		b.AddRR(eax, esi) // patched to sub on every other outer iteration
		b.Dec(ecx)
		b.Jcc(guest.CondNE, "inner")
		b.Dec(edi)
		b.Jcc(guest.CondNE, "outer")
	}

	b.MovRI(ebx, 0)
	b.Out(dev.TimerPeriodPort, ebx)
	b.Hlt()
	return b
}

// edgeRun assembles and runs the program under cfg to a halt.
func edgeRun(t *testing.T, b *asm.Builder, cfg Config) *Engine {
	t.Helper()
	e := edgeEngine(b, cfg, 0x100000)
	runToHalt(t, e, 10_000_000)
	checkIRQTrace(t, e)
	return e
}

// edgeEngine assembles the program onto a fresh platform and builds an
// engine over it with the stack pointer at esp and a trace large enough to
// hold every event of an edge run.
func edgeEngine(b *asm.Builder, cfg Config, esp uint32) *Engine {
	plat := dev.NewPlatform(1<<21, nil)
	plat.Bus.WriteRaw(b.Origin(), b.MustAssemble())
	e := New(plat, b.Origin(), cfg)
	e.CPU().Regs[guest.ESP] = esp
	e.Trace = NewTrace(1 << 20)
	return e
}

// checkIRQTrace asserts the trace saw every interrupt the Metrics counted:
// each delivery path, interpreted or translated, must be visible.
func checkIRQTrace(t *testing.T, e *Engine) {
	t.Helper()
	if e.Trace.Dropped != 0 {
		t.Fatalf("trace dropped %d events", e.Trace.Dropped)
	}
	if got, want := e.Trace.CountKind(EvIRQ), e.Metrics.Interrupts; uint64(got) != want {
		t.Errorf("trace holds %d irq events, Metrics.Interrupts = %d", got, want)
	}
}

// edgeCompare asserts registers, flags, and console match the reference.
func edgeCompare(t *testing.T, e, ref *Engine) {
	t.Helper()
	for r := guest.Reg(0); r < guest.NumRegs; r++ {
		if e.CPU().Regs[r] != ref.CPU().Regs[r] {
			t.Errorf("%s = %#x, reference %#x", r, e.CPU().Regs[r], ref.CPU().Regs[r])
		}
	}
	if e.CPU().Flags != ref.CPU().Flags {
		t.Errorf("flags = %#x, reference %#x", e.CPU().Flags, ref.CPU().Flags)
	}
	if got, want := e.Plat.Console.OutputString(), ref.Plat.Console.OutputString(); got != want {
		t.Errorf("console = %q, reference %q", got, want)
	}
}

// periodicInjector forces one action every period-th commit boundary.
type periodicInjector struct {
	period uint64
	action InjectAction
	n      uint64
	fired  int
}

func (p *periodicInjector) TexecBoundary(entry uint32, retired uint64) InjectAction {
	p.n++
	if p.n%p.period != 0 {
		return InjectNone
	}
	p.fired++
	return p.action
}

// TestIRQPendingAtRollbackBoundary forces spurious §3.3 rollbacks at commit
// boundaries while timer interrupts are in flight: pending IRQs must be
// delivered through the rollback path without disturbing guest state.
func TestIRQPendingAtRollbackBoundary(t *testing.T) {
	inj := &periodicInjector{period: 5, action: InjectRollback}
	cfg := DefaultConfig()
	cfg.Injector = inj
	e := edgeRun(t, irqEdgeProgram(false, 13), cfg)
	ref := edgeRun(t, irqEdgeProgram(false, 13), Config{NoTranslate: true})
	edgeCompare(t, e, ref)

	if inj.fired == 0 {
		t.Fatal("injector never fired: program never ran translated")
	}
	if e.Metrics.Faults[vliw.FIRQ] == 0 {
		t.Error("no FIRQ rollbacks recorded")
	}
	if e.Metrics.Interrupts == 0 || ref.Metrics.Interrupts == 0 {
		t.Errorf("timer never delivered (engine %d, reference %d)",
			e.Metrics.Interrupts, ref.Metrics.Interrupts)
	}
}

// TestIRQDuringInterpreterFallback forces synthesized alias faults so the
// engine keeps dropping into its re-interpretation fallback with timer
// interrupts pending: deliveries inside interpretRegion must be as
// transparent as deliveries anywhere else, even as the alias adapt ladder
// retranslates the region underneath.
func TestIRQDuringInterpreterFallback(t *testing.T) {
	inj := &periodicInjector{period: 7, action: InjectAliasFault}
	cfg := DefaultConfig()
	cfg.Injector = inj
	e := edgeRun(t, irqEdgeProgram(false, 13), cfg)
	ref := edgeRun(t, irqEdgeProgram(false, 13), Config{NoTranslate: true})
	edgeCompare(t, e, ref)

	if inj.fired == 0 {
		t.Fatal("injector never fired")
	}
	if e.Metrics.Faults[vliw.FAlias] == 0 {
		t.Error("no alias faults recorded")
	}
	if e.Metrics.Interrupts == 0 {
		t.Error("timer never delivered during fallback run")
	}
}

// TestIRQRacingSMCTeardown runs hostile SMC — the hot loop body rewritten
// every outer iteration — under timer pressure: protection faults,
// invalidation/teardown, retranslation, and asynchronous delivery all
// interleave, and the guest must not be able to tell.
func TestIRQRacingSMCTeardown(t *testing.T) {
	e := edgeRun(t, irqEdgeProgram(true, 13), DefaultConfig())
	ref := edgeRun(t, irqEdgeProgram(true, 13), Config{NoTranslate: true})
	edgeCompare(t, e, ref)

	if e.Metrics.Translations == 0 {
		t.Fatal("SMC loop never translated")
	}
	if e.Metrics.ProtFaults == 0 {
		t.Error("no protection faults: SMC writes never hit live translations")
	}
	if e.Metrics.Interrupts == 0 {
		t.Error("timer never delivered")
	}
}

// progressWatchdog wraps an Injector (nil: inject nothing) and fails the
// test once translated execution stops making forward progress: limit
// consecutive commit boundaries at which the retired-instruction count has
// not moved. It detects a livelock without a clock.
type progressWatchdog struct {
	t     *testing.T
	inner Injector
	limit int
	last  uint64
	still int
}

func (w *progressWatchdog) TexecBoundary(entry uint32, retired uint64) InjectAction {
	if retired != w.last {
		w.last, w.still = retired, 0
	} else if w.still++; w.still >= w.limit {
		w.t.Fatalf("livelock: %d commit boundaries at %#x without retiring a guest instruction (%d retired)",
			w.still, entry, retired)
	}
	if w.inner == nil {
		return InjectNone
	}
	return w.inner.TexecBoundary(entry, retired)
}

// TestTranslationAddsNoLivelock is the forward-progress property: whenever
// pure interpretation halts, the engine halts too, within ten times the
// reference's budget, with the same guest state. The sweep puts the stack
// on its own page and on the translated code page itself — where an
// interrupt's stack push hits write protection at the rollback boundary,
// so delivery leaves its fast path, and the handler's translated IRET pops
// from a protected page — across timer periods 1 to 24 and the
// configurations that reach every delivery path (plain and compiled
// translated execution, forced rollbacks, forced evictions). Below period 7
// the timer fires again before the six-instruction handler returns, so the
// reference itself never halts and the period is skipped.
func TestTranslationAddsNoLivelock(t *testing.T) {
	configs := []struct {
		name string
		cfg  func() (Config, Injector)
	}{
		{"default", func() (Config, Injector) { return DefaultConfig(), nil }},
		{"nocompile", func() (Config, Injector) {
			cfg := DefaultConfig()
			cfg.EnableCompiledBackend = false
			return cfg, nil
		}},
		{"rollback", func() (Config, Injector) {
			return DefaultConfig(), &periodicInjector{period: 5, action: InjectRollback}
		}},
		{"evict", func() (Config, Injector) {
			return DefaultConfig(), &periodicInjector{period: 7, action: InjectEvict}
		}},
	}
	stacks := []struct {
		name string
		esp  uint32
	}{{"ownpage", 0x100000}, {"codepage", 0x1f00}}
	// The halting references need at most 112k instructions (period 7).
	const refBudget, budget = 1_000_000, 10_000_000
	for period := uint32(1); period <= 24; period++ {
		for _, st := range stacks {
			ref := edgeEngine(irqEdgeProgram(false, period), Config{NoTranslate: true}, st.esp)
			if err := ref.Run(refBudget); err != nil || !ref.CPU().Halted {
				continue // nothing to hold the engine to
			}
			for _, c := range configs {
				t.Run(fmt.Sprintf("period=%d/stack=%s/%s", period, st.name, c.name), func(t *testing.T) {
					cfg, inj := c.cfg()
					cfg.Injector = &progressWatchdog{t: t, inner: inj, limit: 100_000}
					e := edgeEngine(irqEdgeProgram(false, period), cfg, st.esp)
					runToHalt(t, e, budget)
					edgeCompare(t, e, ref)
				})
			}
		}
	}
}

// BenchmarkFaultRoundTrip times the §3.3 interrupt round trip under
// translation: a timer interrupt pending in a hot translated loop rolls the
// translation back (FIRQ), the interpreter delivers it at the committed
// boundary, the dispatcher enters the handler's translation, and its IRET
// returns through the indirect-target cache into the loop's translation.
// The timer fires every roundTripPeriod guest instructions, so one op is
// one round trip plus that much translated execution; ns/irq is the wall
// clock per delivered interrupt.
func BenchmarkFaultRoundTrip(b *testing.B) {
	const roundTripPeriod = 24
	src := fmt.Sprintf(`
.org 0x1000
	mov [0x180], tick        ; IVT[timer]
	mov eax, %d
	out 0x40, eax
loop:
	inc ebx
	add ecx, ebx
	jmp loop
tick:
	iret
`, roundTripPeriod)
	e := build(b, src, DefaultConfig(), nil)
	if err := e.Run(100_000); err != ErrBudget {
		b.Fatalf("warm-up: %v", err)
	}
	irq0, firq0, hits0 := e.Metrics.Interrupts, e.Metrics.Faults[vliw.FIRQ], e.Metrics.IndirectHits
	b.ResetTimer()
	if err := e.Run(e.Metrics.GuestTotal() + roundTripPeriod*uint64(b.N)); err != ErrBudget {
		b.Fatal(err)
	}
	b.StopTimer()
	irqs, hits := e.Metrics.Interrupts-irq0, e.Metrics.IndirectHits-hits0
	if irqs == 0 || e.Metrics.Faults[vliw.FIRQ]-firq0 < irqs || hits < irqs {
		b.Fatalf("%d interrupts, %d FIRQ rollbacks, %d IRETs through the indirect-target cache: not the translated round trip",
			irqs, e.Metrics.Faults[vliw.FIRQ]-firq0, hits)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(irqs), "ns/irq")
}
