package cms

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"cms/internal/asm"
	"cms/internal/dev"
	"cms/internal/guest"
	"cms/internal/interp"
	"cms/internal/vliw"
)

// build assembles a program onto a fresh platform and returns an engine.
func build(t testing.TB, src string, cfg Config, disk []byte) *Engine {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	plat := dev.NewPlatform(1<<21, disk)
	plat.Bus.WriteRaw(p.Org, p.Image)
	e := New(plat, p.Entry(), cfg)
	e.CPU().Regs[guest.ESP] = 0x100000
	return e
}

func runToHalt(t *testing.T, e *Engine, budget uint64) {
	t.Helper()
	if err := e.Run(budget); err != nil {
		t.Fatalf("engine: %v (eip %#x)", err, e.CPU().EIP)
	}
	if !e.CPU().Halted {
		t.Fatalf("engine did not halt within %d instructions", budget)
	}
}

// equiv runs src under the engine and under pure interpretation and
// compares final registers, flags, console output, and a memory window.
func equiv(t *testing.T, src string, cfg Config) *Engine {
	t.Helper()
	e := build(t, src, cfg, nil)
	runToHalt(t, e, 10_000_000)

	ref := build(t, src, Config{NoTranslate: true}, nil)
	runToHalt(t, ref, 10_000_000)

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
	if got, want := e.Plat.Bus.ReadRaw(0x8000, 0x400), ref.Plat.Bus.ReadRaw(0x8000, 0x400); !bytes.Equal(got, want) {
		t.Error("data window mismatch")
	}
	return e
}

const hotLoop = `
.org 0x1000
	mov eax, 0
	mov ecx, 2000
loop:
	add eax, ecx
	mov [0x8000], eax
	mov ebx, [0x8000]
	dec ecx
	jne loop
	hlt
`

func TestHotLoopTranslatesAndSpeedsUp(t *testing.T) {
	e := equiv(t, hotLoop, DefaultConfig())
	if e.Metrics.Translations == 0 {
		t.Fatal("hot loop never translated")
	}
	if e.Metrics.GuestTexec < e.Metrics.GuestInterp {
		t.Errorf("texec %d < interp %d retires: loop not running translated",
			e.Metrics.GuestTexec, e.Metrics.GuestInterp)
	}

	ref := build(t, hotLoop, Config{NoTranslate: true}, nil)
	runToHalt(t, ref, 10_000_000)
	if e.Metrics.TotalMols() >= ref.Metrics.TotalMols() {
		t.Errorf("translation did not pay off: %d >= %d molecules",
			e.Metrics.TotalMols(), ref.Metrics.TotalMols())
	}
	t.Logf("translated %.2f mols/insn vs interpreted %.2f", e.Metrics.MPI(), ref.Metrics.MPI())
}

func TestChainingEliminatesDispatch(t *testing.T) {
	// Two hot blocks jumping to each other chain together.
	src := `
.org 0x1000
	mov ecx, 3000
a:
	add eax, 1
	jmp b
c:
	dec ecx
	jne a
	hlt
b:
	add ebx, 2
	jmp c
`
	e := equiv(t, src, DefaultConfig())
	if e.Metrics.ChainTransfers == 0 {
		t.Error("no chain transfers observed")
	}
	// Chained transfers must dominate dispatcher returns once warm.
	if e.Metrics.ChainTransfers < e.Metrics.DispatchReturns {
		t.Errorf("chains %d < dispatcher returns %d",
			e.Metrics.ChainTransfers, e.Metrics.DispatchReturns)
	}
	// With chaining off, everything goes through the dispatcher.
	cfg := DefaultConfig()
	cfg.EnableChaining = false
	e2 := equiv(t, src, cfg)
	if e2.Metrics.ChainTransfers != 0 {
		t.Error("chaining disabled but chains happened")
	}
}

func TestCallsAndIndirectExits(t *testing.T) {
	equiv(t, `
.org 0x1000
	mov ecx, 800
	mov esi, 0
loop:
	mov eax, ecx
	call work
	add esi, eax
	dec ecx
	jne loop
	hlt
work:
	imul eax, 3
	ret
`, DefaultConfig())
}

func TestGuestFaultInHotCodeAdapts(t *testing.T) {
	// The divisor is zero every 16th iteration; the guest handler fixes it
	// up. The translation keeps faulting genuinely and CMS narrows around
	// the divide.
	src := `
.org 0x1000
_start:
	mov [0x100], fixup       ; IVT[#DE]
	mov ecx, 1200
	mov edi, 0
loop:
	mov eax, ecx
	mov edx, 0
	mov ebx, ecx
	and ebx, 15
	div ebx
	add edi, eax
	dec ecx
	jne loop
	hlt
fixup:
	mov ebx, 1
	iret
`
	e := equiv(t, src, DefaultConfig())
	if e.Metrics.Faults[vliw.FGuest] == 0 {
		t.Error("no guest faults surfaced from translations")
	}
	if e.Metrics.GenuineGuestFaults == 0 {
		t.Error("genuine faults not recognized")
	}
	if e.Metrics.Adaptations[vliw.FGuest] == 0 {
		t.Error("no adaptive retranslation for recurring genuine faults")
	}
}

func TestAliasFaultAdaptation(t *testing.T) {
	// The two pointers always collide; after FaultThreshold alias faults
	// the site retranslates conservatively and stops faulting.
	src := `
.org 0x1000
	mov ebx, 0x8000
	mov edx, 0x8000
	mov ecx, 3000
loop:
	mov [ebx], ecx
	mov eax, [edx]
	add esi, eax
	dec ecx
	jne loop
	hlt
`
	e := equiv(t, src, DefaultConfig())
	if e.Metrics.Faults[vliw.FAlias] == 0 {
		t.Error("alias hardware never fired")
	}
	if e.Metrics.Adaptations[vliw.FAlias] == 0 {
		t.Error("alias faults never adapted")
	}
	// After adaptation the faults must stop: far fewer faults than
	// iterations.
	if e.Metrics.Faults[vliw.FAlias] > 100 {
		t.Errorf("alias faults kept recurring: %d", e.Metrics.Faults[vliw.FAlias])
	}
}

func TestMMIOAdaptation(t *testing.T) {
	// The loop walks a pointer that starts in RAM and crosses into the
	// MMIO text buffer after it becomes hot, so the profile cannot warn
	// the translator.
	src := fmt.Sprintf(`
.org 0x1000
	mov ebx, 0x%x            ; starts 256 bytes below MMIO
	mov ecx, 512
loop:
	mov [ebx], ecx
	mov eax, [ebx]
	add esi, eax
	add ebx, 4
	dec ecx
	jne loop
	hlt
`, dev.ConsoleMMIOBase-256)
	e := equiv(t, src, DefaultConfig())
	specFaults := e.Metrics.Faults[vliw.FMMIOSpec] + e.Metrics.Faults[vliw.FMMIOOrder]
	if specFaults == 0 {
		t.Error("MMIO speculation never faulted")
	}
	// The text buffer must hold exactly what the reference wrote — no
	// duplicated or dropped device writes.
	ref := build(t, src, Config{NoTranslate: true}, nil)
	runToHalt(t, ref, 10_000_000)
	if !bytes.Equal(e.Plat.Console.Text(), ref.Plat.Console.Text()) {
		t.Error("device state diverged")
	}
}

func TestTimerInterruptsUnderTranslation(t *testing.T) {
	// The busy loop runs translated; timer interrupts roll back and are
	// delivered at precise boundaries until the handler has fired 5 times.
	src := `
.org 0x1000
_start:
	mov [0x180], tick        ; IVT[timer]
	mov eax, 400
	out 0x40, eax            ; period 400 instructions
	mov ecx, 0
busy:
	inc ebx
	cmp ecx, 5
	jne busy
	mov eax, 0
	out 0x40, eax
	hlt
tick:
	inc ecx
	iret
`
	e := build(t, src, DefaultConfig(), nil)
	e.Trace = NewTrace(1 << 10)
	runToHalt(t, e, 10_000_000)
	checkIRQTrace(t, e)
	if e.CPU().Regs[guest.ECX] != 5 {
		t.Fatalf("handler ran %d times, want 5", e.CPU().Regs[guest.ECX])
	}
	if e.Metrics.Faults[vliw.FIRQ] == 0 {
		t.Error("no interrupt ever interrupted a translation")
	}
	if e.Metrics.Interrupts != 5 {
		t.Errorf("interrupts delivered = %d", e.Metrics.Interrupts)
	}
}

func TestSMCMixedCodeAndData(t *testing.T) {
	// Data lives on the same page as the hot loop (mixed code and data,
	// the Windows/9x driver pattern): stores keep hitting the protected
	// page. Fine-grain protection must contain the cost.
	src := `
.org 0x1000
	mov ecx, 3000
	mov ebx, data
loop:
	mov [ebx], ecx           ; store to the code page
	add eax, [ebx]
	dec ecx
	jne loop
	hlt
	.align 128
data:
	.dd 0
`
	e := equiv(t, src, DefaultConfig())
	if e.Metrics.ProtFaults == 0 {
		t.Error("no protection faults for mixed code and data")
	}
	if e.Metrics.FineGrainConversions == 0 {
		t.Error("page never converted to fine-grain")
	}
	// Fine-grain must make the fault count tiny relative to iterations.
	if e.Metrics.ProtFaults > 50 {
		t.Errorf("fine-grain did not contain faults: %d", e.Metrics.ProtFaults)
	}

	// Without fine-grain, every translated store re-faults after paying
	// full invalidation, so protection faults multiply.
	cfg := DefaultConfig()
	cfg.EnableFineGrain = false
	e2 := equiv(t, src, cfg)
	if e2.Metrics.ProtFaults <= e.Metrics.ProtFaults {
		t.Errorf("coarse faults (%d) not worse than fine-grain (%d)",
			e2.Metrics.ProtFaults, e.Metrics.ProtFaults)
	}
}

// TestSMCMidChainTeardown rewrites a block that sits in the middle of a hot
// chain: the inner loop's translation ends at `call bfunc` and chains to
// bfunc's translation, whose immediate the guest patches every outer
// iteration. Every rewrite must invalidate only bfunc's translation, unchain
// the incoming link, and retranslate from the new bytes — under the compiled
// backend this is exactly the "never execute stale compiled code" obligation,
// and the final sums prove every patched immediate took effect.
func TestSMCMidChainTeardown(t *testing.T) {
	src := `
.org 0x1000
_start:
	mov edi, 0
	mov edx, 40              ; outer iterations
outer:
	mov [bpatch+2], edx      ; rewrite the imm32 inside chained block bfunc
	mov ecx, 200             ; hot inner loop
	mov eax, 0
inner:
	call bfunc
	dec ecx
	jne inner
	add edi, eax
	dec edx
	jne outer
	hlt
	.align 128
bfunc:
bpatch:
	add eax, 0               ; patched every outer iteration
	ret
`
	// Stylized-SMC adoption would absorb the rewrites without invalidation;
	// turn it off so every patch exercises the full teardown path.
	cfg := DefaultConfig()
	cfg.EnableStylized = false
	e := equiv(t, src, cfg)

	want := uint32(0)
	for d := uint32(1); d <= 40; d++ {
		want += 200 * d
	}
	if e.CPU().Regs[guest.EDI] != want {
		t.Fatalf("edi = %d, want %d (stale code executed?)", e.CPU().Regs[guest.EDI], want)
	}
	if e.Metrics.ChainTransfers == 0 {
		t.Error("blocks never chained: test lost its teardown target")
	}
	if e.Metrics.ProtFaults == 0 {
		t.Error("no protection faults: SMC never detected")
	}
	if e.Cache.Stats.Unchains == 0 {
		t.Error("mid-chain invalidation never unchained an incoming link")
	}
	if e.Cache.Stats.Invalidations == 0 {
		t.Error("rewritten block never invalidated")
	}

	// The teardown machinery is backend-invariant: the interpretive run
	// makes exactly the same simulated decisions.
	icfg := cfg
	icfg.EnableCompiledBackend = false
	ei := equiv(t, src, icfg)
	if !reflect.DeepEqual(e.Metrics, ei.Metrics) {
		t.Errorf("Metrics diverged across backends:\ncompiled %+v\ninterp   %+v", e.Metrics, ei.Metrics)
	}
	if e.Cache.Stats != ei.Cache.Stats {
		t.Errorf("cache stats diverged across backends:\ncompiled %+v\ninterp   %+v",
			e.Cache.Stats, ei.Cache.Stats)
	}
}

// smcPatcherProg patches the immediate of an instruction inside a hot loop
// on every outer iteration — the Doom/Premiere idiom of §3.6.4.
const smcPatcherProg = `
.org 0x1000
_start:
	mov edi, 0
	mov edx, 40              ; outer iterations
outer:
	mov [patchme+2], edx     ; rewrite the imm32 of "add eax, imm"
	mov ecx, 200             ; hot inner loop
	mov eax, 0
inner:
patchme:
	add eax, 0x1
	dec ecx
	jne inner
	add edi, eax
	dec edx
	jne outer
	hlt
`

func TestStylizedSMC(t *testing.T) {
	e := equiv(t, smcPatcherProg, DefaultConfig())
	// Expected result: sum over d of 200*d for d = 40..1.
	want := uint32(0)
	for d := uint32(1); d <= 40; d++ {
		want += 200 * d
	}
	if e.CPU().Regs[guest.EDI] != want {
		t.Fatalf("edi = %d, want %d", e.CPU().Regs[guest.EDI], want)
	}
	if e.Metrics.StylizedAdopts == 0 {
		t.Error("stylized SMC never adopted")
	}
	// Once stylized, retranslation stops: far fewer translations than
	// outer iterations.
	if e.Metrics.Translations > 25 {
		t.Errorf("stylized translation kept being rebuilt: %d translations",
			e.Metrics.Translations)
	}
}

func TestSelfRevalidation(t *testing.T) {
	// Writes to the code page target a *different* routine's bytes than
	// the hot one... simplest trigger: data store adjacent to the hot code
	// within the same chunk, so fine-grain cannot separate them.
	src := `
.org 0x1000
_start:
	mov edx, 60
outer:
	mov [scratch], edx       ; same 128-byte chunk as the loop body
	mov ecx, 300
	mov eax, 0
inner:
	add eax, 2
	dec ecx
	jne inner
	add edi, eax
	dec edx
	jne outer
	hlt
scratch:
	.dd 0
`
	e := equiv(t, src, DefaultConfig())
	if e.CPU().Regs[guest.EDI] != 60*600 {
		t.Fatalf("edi = %d", e.CPU().Regs[guest.EDI])
	}
	if e.Metrics.SelfRevalArms == 0 || e.Metrics.SelfRevalPasses == 0 {
		t.Errorf("self-revalidation unused: arms=%d passes=%d",
			e.Metrics.SelfRevalArms, e.Metrics.SelfRevalPasses)
	}
}

func TestTranslationGroups(t *testing.T) {
	// The program alternates between two versions of a hot routine's code
	// (the BLT-driver pattern of §3.6.5), by rewriting an opcode byte.
	src := `
.org 0x1000
_start:
	mov edx, 30
outer:
	; toggle the routine between "add eax,ecx" (0x20) and "sub eax,ecx" (0x24)
	mov ebx, edx
	and ebx, 1
	shl ebx, 2               ; 0 or 4
	add ebx, 0x20            ; opcode byte value
	mov esi, routine
	movb [esi], ebx
	mov ecx, 300
	mov eax, 1000
inner:
routine:
	add eax, ecx
	dec ecx
	jne inner
	add edi, eax
	dec edx
	jne outer
	hlt
`
	e := equiv(t, src, DefaultConfig())
	if e.Cache.Stats.GroupRetires == 0 {
		t.Error("no translations retired to groups")
	}
	if e.Metrics.GroupReuses == 0 {
		t.Error("translation groups never reused a version")
	}
}

func TestDMAInvalidation(t *testing.T) {
	// The disk image holds a routine that returns 2 in EAX; RAM initially
	// holds one that returns 1. The program runs the hot routine, DMA-loads
	// the new version over it, and runs it again.
	routineV2 := asm.NewBuilder(0x4000)
	routineV2.MovRI(guest.EAX, 2).Ret()
	img := make([]byte, dev.SectorSize)
	copy(img, routineV2.MustAssemble())

	src := `
.org 0x1000
_start:
	cli                      ; mask the disk-completion IRQ
	mov ebp, 0
	mov edx, 200
warm:
	call routine             ; make it hot (returns 1)
	add ebp, eax
	dec edx
	jne warm
	; DMA the new routine over the old one
	mov eax, 0
	out 0x1f0, eax           ; lba 0
	mov eax, routine
	out 0x1f4, eax           ; dest
	mov eax, 1
	out 0x1f8, eax           ; count
	out 0x1fc, eax           ; go
	call routine             ; must return 2 now
	mov esi, eax
	hlt
	.align 16
routine:
	mov eax, 1
	ret
`
	e := build(t, src, DefaultConfig(), img)
	runToHalt(t, e, 10_000_000)
	if e.CPU().Regs[guest.ESI] != 2 {
		t.Fatalf("stale translation executed after DMA: esi = %d", e.CPU().Regs[guest.ESI])
	}
	if e.CPU().Regs[guest.EBP] != 200 {
		t.Errorf("warmup sum = %d", e.CPU().Regs[guest.EBP])
	}
	if e.Metrics.DMAInvalidations == 0 {
		t.Error("DMA write did not invalidate")
	}
}

func TestForcedSelfCheckCorrectAndBigger(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BasePolicy.SelfCheck = true
	e := equiv(t, hotLoop, cfg)
	plain := equiv(t, hotLoop, DefaultConfig())
	if e.Metrics.TotalMols() <= plain.Metrics.TotalMols() {
		t.Errorf("self-checking not costlier: %d vs %d mols",
			e.Metrics.TotalMols(), plain.Metrics.TotalMols())
	}
}

func TestPolicyExperimentKnobs(t *testing.T) {
	// Disjoint-but-unprovable memory traffic: the store and load go through
	// different base registers, so only the alias hardware (or proven
	// disjointness, which is unavailable here) lets them reorder.
	prog := `
.org 0x1000
	mov ebx, 0x8000
	mov edx, 0x8800
	mov ecx, 3000
loop:
	mov [ebx+ecx*4], eax
	mov esi, [edx+ecx*4]
	add eax, esi
	add eax, 3
	dec ecx
	jne loop
	hlt
`
	base := equiv(t, prog, DefaultConfig())

	noReorder := DefaultConfig()
	noReorder.BasePolicy.NoReorderMem = true
	nr := equiv(t, prog, noReorder)

	noAlias := DefaultConfig()
	noAlias.BasePolicy.NoAliasHW = true
	na := equiv(t, prog, noAlias)

	if nr.Metrics.MolsTexec <= base.Metrics.MolsTexec {
		t.Errorf("suppressing reordering did not slow texec: %d <= %d",
			nr.Metrics.MolsTexec, base.Metrics.MolsTexec)
	}
	if na.Metrics.MolsTexec <= base.Metrics.MolsTexec {
		t.Errorf("disabling alias hw did not slow texec: %d <= %d",
			na.Metrics.MolsTexec, base.Metrics.MolsTexec)
	}
	// The alias run must not actually fault (the refs never overlap).
	if base.Metrics.Faults[vliw.FAlias] > 0 {
		t.Errorf("disjoint traffic faulted %d times", base.Metrics.Faults[vliw.FAlias])
	}
}

func TestBudgetExhaustion(t *testing.T) {
	e := build(t, ".org 0x1000\nself:\n jmp self\n", DefaultConfig(), nil)
	err := e.Run(10_000)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}

func TestUnhandledGuestFaultPropagates(t *testing.T) {
	e := build(t, ".org 0x1000\n mov eax, 0\n div eax\n", DefaultConfig(), nil)
	if err := e.Run(1000); err == nil {
		t.Fatal("unhandled #DE must be an error")
	}
}

func TestFlowMetricsShape(t *testing.T) {
	e := equiv(t, hotLoop, DefaultConfig())
	m := &e.Metrics
	if m.DispatchToTexec == 0 || m.GuestTotal() == 0 || m.TotalMols() == 0 {
		t.Errorf("flow metrics empty: %+v", m)
	}
	if m.MPI() <= 0 {
		t.Error("MPI must be positive")
	}
	// Interpreter retires at least the threshold before translation.
	if m.GuestInterp < e.Cfg.HotThreshold {
		t.Errorf("interp retired only %d", m.GuestInterp)
	}
}

func TestInterpOnlyReferenceMode(t *testing.T) {
	e := equiv(t, hotLoop, Config{NoTranslate: true})
	if e.Metrics.Translations != 0 || e.Metrics.GuestTexec != 0 {
		t.Error("reference mode must not translate")
	}
}

// Regression guard: engine and interpreter agree on a broad instruction mix.
func TestBroadInstructionMix(t *testing.T) {
	equiv(t, `
.org 0x1000
	mov ecx, 600
	mov ebx, 0x8000
mix:
	mov eax, ecx
	shl eax, 3
	sar eax, 1
	neg eax
	not eax
	push eax
	pushf
	popf
	pop edx
	add [ebx], edx
	movb [ebx+7], eax
	movb esi, [ebx+7]
	test eax, esi
	lea edi, [ebx+ecx*2+4]
	xor edi, edx
	or edi, 1
	and edi, 0xffff
	imul edi, 3
	cmp edi, 0x8000
	adc edx, esi
	sbb edx, 5
	xchg edx, edi
	movsx ebp, [ebx+3]
	mov eax, edi
	cdq
	dec ecx
	jne mix
	hlt
`, DefaultConfig())
}

func TestConsoleOutputUnderTranslation(t *testing.T) {
	src := fmt.Sprintf(`
.org 0x1000
	mov ecx, 26
	mov eax, 'A'
print:
	out 0x%x, eax
	inc eax
	dec ecx
	jne print
	hlt
`, dev.ConsoleDataPort)
	e := equiv(t, src, DefaultConfig())
	if got := e.Plat.Console.OutputString(); got != "ABCDEFGHIJKLMNOPQRSTUVWXYZ" {
		t.Errorf("console = %q", got)
	}
}

func TestMetricsAccountingConsistency(t *testing.T) {
	e := equiv(t, hotLoop, DefaultConfig())
	ref := build(t, hotLoop, Config{NoTranslate: true}, nil)
	runToHalt(t, ref, 10_000_000)
	// Same program: both runs retire the same guest instruction count.
	if e.Metrics.GuestTotal() != ref.Metrics.GuestTotal() {
		t.Errorf("guest retires differ: %d vs %d",
			e.Metrics.GuestTotal(), ref.Metrics.GuestTotal())
	}
	// Interp-only run charges everything to the interpreter.
	if ref.Metrics.MolsTexec != 0 || ref.Metrics.MolsTranslate != 0 {
		t.Error("reference mode charged translation molecules")
	}
}

// The interpreter reference for a run must see identical profiles whether
// driven directly or via the engine's interp (sanity of shared plumbing).
func TestProfileFeedsTranslator(t *testing.T) {
	e := build(t, hotLoop, DefaultConfig(), nil)
	runToHalt(t, e, 10_000_000)
	if len(e.Interp.Prof.Heads) == 0 || len(e.Interp.Prof.Branches) == 0 {
		t.Error("profile empty")
	}
	var _ *interp.Profile = e.Interp.Prof
}

func TestTraceRecordsEngineEvents(t *testing.T) {
	e := build(t, smcPatcherProg, DefaultConfig(), nil)
	e.Trace = NewTrace(256)
	runToHalt(t, e, 10_000_000)
	if e.Trace.CountKind(EvTranslate) == 0 {
		t.Error("no translate events")
	}
	if e.Trace.CountKind(EvProtFault) == 0 {
		t.Error("no protection fault events")
	}
	if e.Trace.CountKind(EvStylized) == 0 {
		t.Error("no stylized adoption events")
	}
	var buf bytes.Buffer
	e.Trace.Write(&buf)
	out := buf.String()
	for _, want := range []string{"translate", "prot-fault", "stylized"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace output missing %q", want)
		}
	}
	// The bound is honored.
	small := NewTrace(2)
	for i := 0; i < 5; i++ {
		small.add(Event{Kind: EvIRQ})
	}
	if len(small.Events()) != 2 || small.Dropped != 3 {
		t.Errorf("bound: %d events, %d dropped", len(small.Events()), small.Dropped)
	}
	// A nil trace is inert.
	var nilT *Trace
	nilT.add(Event{})
	if nilT.Events() != nil || nilT.CountKind(EvIRQ) != 0 {
		t.Error("nil trace must be inert")
	}
}

func TestInterpOnlyNarrowing(t *testing.T) {
	// A hot loop whose FIRST instruction faults genuinely every iteration:
	// the site must degenerate to interpretation (the zero-instruction
	// translation of §3.2).
	src := `
.org 0x1000
_start:
	mov [0x100], fixup       ; IVT[#DE]
	mov ecx, 800
	mov esi, 0
loop:
	mov eax, 100
	mov edx, 0
	mov ebx, 0
	call divider
	add esi, eax
	dec ecx
	jne loop
	hlt
divider:
	div ebx                  ; first insn of a hot trace; always #DE
	ret
fixup:
	mov ebx, 5
	iret
`
	e := equiv(t, src, DefaultConfig())
	if e.Metrics.GenuineGuestFaults == 0 {
		t.Error("no genuine faults")
	}
	if e.CPU().Regs[guest.ESI] != 800*20 {
		t.Errorf("esi = %d", e.CPU().Regs[guest.ESI])
	}
}

func TestHostGenerationEquivalence(t *testing.T) {
	// The TM8000 host runs the same guest code with identical results.
	cfg := DefaultConfig()
	cfg.Host = vliw.TM8000()
	e := equiv(t, hotLoop, cfg)
	base := equiv(t, hotLoop, DefaultConfig())
	if e.Metrics.MolsTexec >= base.Metrics.MolsTexec {
		t.Errorf("wider host not faster: %d vs %d texec mols",
			e.Metrics.MolsTexec, base.Metrics.MolsTexec)
	}
}

func TestTCacheFlushUnderPressure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TCacheCapAtoms = 40 // absurdly small: constant flushing
	e := equiv(t, hotLoop, cfg)
	if e.Cache.Stats.Flushes == 0 {
		t.Error("tiny cache never flushed")
	}
}

// jumpTableProg is a hot computed-goto interpreter loop: an indirect exit
// every iteration.
const jumpTableProg = `
.org 0x1000
_start:
	mov ecx, 3000
	mov ebp, 7
dispatch:
	mov eax, ebp
	and eax, 3
	mov ebx, table
	jmp [ebx+eax*4]
op0:
	add edi, 1
	jmp next
op1:
	add edi, 3
	jmp next
op2:
	xor edi, ebp
	jmp next
op3:
	shl edi, 1
	and edi, 0xffff
next:
	imul ebp, 1103515245
	add ebp, 12345
	shr ebp, 3
	dec ecx
	jne dispatch
	hlt
	.align 4
table:
	.dd op0, op1, op2, op3
`

func TestJumpTableIndirectHotPath(t *testing.T) {
	// Indirect exits every iteration (no chaining), still correct and still
	// faster than interpretation.
	e := equiv(t, jumpTableProg, DefaultConfig())
	if e.Metrics.LookupTransfers == 0 {
		t.Error("indirect exits never looked up successors")
	}
	ref := build(t, jumpTableProg, Config{NoTranslate: true}, nil)
	runToHalt(t, ref, 10_000_000)
	if e.Metrics.TotalMols() >= ref.Metrics.TotalMols() {
		t.Error("indirect-heavy code did not benefit from translation")
	}
}

// TestIndirectTargetCache: the jump-table loop's indirect exits must hit
// the per-translation inline cache once warm.
func TestIndirectTargetCache(t *testing.T) {
	e := equiv(t, jumpTableProg, DefaultConfig())
	if e.Metrics.IndirectHits == 0 {
		t.Fatal("indirect target cache never hit")
	}
	if e.Metrics.IndirectHits < e.Metrics.IndirectMisses {
		t.Errorf("indirect cache mostly missing: %d hits vs %d misses",
			e.Metrics.IndirectHits, e.Metrics.IndirectMisses)
	}
}

func TestSerializeAdaptationSticks(t *testing.T) {
	// MMIO loads through a moving pointer that crosses in and out of the
	// text buffer: after adaptation, the site stops faulting.
	src := fmt.Sprintf(`
.org 0x1000
	mov ecx, 2000
	mov esi, 0
loop:
	mov ebx, ecx
	and ebx, 0xff
	shl ebx, 2
	add ebx, 0x%x            ; base swings below/inside MMIO
	mov eax, [ebx]
	add esi, eax
	dec ecx
	jne loop
	hlt
`, dev.ConsoleMMIOBase-0x200)
	e := equiv(t, src, DefaultConfig())
	total := e.Metrics.Faults[vliw.FMMIOSpec] + e.Metrics.Faults[vliw.FMMIOOrder]
	if total == 0 {
		t.Skip("schedule happened to keep the load in order")
	}
	if total > 200 {
		t.Errorf("MMIO faults never adapted away: %d", total)
	}
}

// TestDispatchLedgerBalances checks the dispatcher's books over programs
// with no faults, SMC or interrupts, where translated execution ends only
// at an exit with no successor or at the instruction budget. Every episode
// the dispatcher starts returns to it exactly once, and the dispatch
// molecules are exactly the charges of the lookups, the inline-cache hits
// and the no-successor returns. The sliced run stops on the budget over and
// over, mostly inside chained execution.
func TestDispatchLedgerBalances(t *testing.T) {
	for _, chain := range []bool{true, false} {
		cfg := DefaultConfig()
		cfg.EnableChaining = chain
		whole := build(t, jumpTableProg, cfg, nil)
		runToHalt(t, whole, 10_000_000)
		m := &whole.Metrics
		if m.DispatchToTexec == 0 || m.DispatchReturns != m.DispatchToTexec {
			t.Errorf("chaining=%v: %d dispatches into translated code, %d returns",
				chain, m.DispatchToTexec, m.DispatchReturns)
		}
		c := &whole.Cfg // normalized
		want := c.LookupCost*(m.LookupTransfers+m.DispatchReturns) + c.IndTCHitCost*m.IndirectHits
		if m.MolsDispatch != want {
			t.Errorf("chaining=%v: MolsDispatch = %d, want %d", chain, m.MolsDispatch, want)
		}

		sliced := build(t, jumpTableProg, cfg, nil)
		stops := 0
		for budget := uint64(997); ; budget += 997 {
			err := sliced.Run(budget)
			if err == nil {
				break
			}
			if err != ErrBudget {
				t.Fatal(err)
			}
			stops++
		}
		s := &sliced.Metrics
		if stops < 10 || s.DispatchReturns != s.DispatchToTexec {
			t.Errorf("chaining=%v, %d budget stops: %d dispatches into translated code, %d returns",
				chain, stops, s.DispatchToTexec, s.DispatchReturns)
		}
	}
}
