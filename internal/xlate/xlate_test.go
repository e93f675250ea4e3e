package xlate

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"cms/internal/asm"
	"cms/internal/dev"
	"cms/internal/guest"
	"cms/internal/interp"
	"cms/internal/ir"
	"cms/internal/vliw"
)

// miniEngine is a minimal dispatch loop sufficient to execute translations
// in translator tests: translate eagerly at every block head, fall back to
// single-step interpretation on faults and untranslatable code. The real
// engine with profiles, chaining, and adaptation lives in internal/cms.
type miniEngine struct {
	plat   *dev.Platform
	ip     *interp.Interp
	m      *vliw.Machine
	tr     *Translator
	pol    Policy
	cache  map[uint32]*Translation
	texecs uint64
	faults uint64
}

func newMini(t *testing.T, src string, pol Policy) *miniEngine {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	plat := dev.NewPlatform(1<<20, nil)
	plat.Bus.WriteRaw(p.Org, p.Image)
	ip := interp.New(plat.Bus)
	ip.CPU = interp.NewCPU(p.Entry())
	ip.CPU.Regs[guest.ESP] = 0xF0000
	e := &miniEngine{
		plat:  plat,
		ip:    ip,
		m:     vliw.NewMachine(plat.Bus),
		tr:    &Translator{Bus: plat.Bus},
		pol:   pol,
		cache: make(map[uint32]*Translation),
	}
	return e
}

// run executes until halt, mixing translation execution with interpretation.
func (e *miniEngine) run(t *testing.T, maxSteps int) {
	t.Helper()
	for steps := 0; steps < maxSteps; steps++ {
		if e.ip.CPU.Halted {
			return
		}
		tl, ok := e.cache[e.ip.CPU.EIP]
		if !ok {
			var err error
			tl, err = e.tr.Translate(e.ip.CPU.EIP, e.pol)
			if err != nil {
				tl = nil
			}
			e.cache[e.ip.CPU.EIP] = tl
		}
		if tl == nil {
			res := e.ip.Step()
			if res.Stop == interp.StopHalt {
				return
			}
			if res.Stop != interp.StopNone {
				t.Fatalf("interp stop: %+v", res)
			}
			continue
		}
		e.m.LoadGuest(&e.ip.CPU.Regs, e.ip.CPU.Flags, e.ip.CPU.EIP)
		out := e.m.Exec(tl.Code)
		e.m.StoreGuest(&e.ip.CPU.Regs, &e.ip.CPU.Flags)
		e.texecs++
		if out.Fault != vliw.FNone {
			if out.Fault == vliw.FBadCode {
				t.Fatalf("bad code at %#x: %v", e.ip.CPU.EIP, out.Err)
			}
			// Roll forward by interpreting one instruction from the
			// committed boundary.
			e.faults++
			e.ip.CPU.EIP = e.m.CommittedEIP
			res := e.ip.Step()
			if res.Stop == interp.StopHalt {
				return
			}
			if res.Stop != interp.StopNone {
				t.Fatalf("recovery interp stop: %+v", res)
			}
			continue
		}
		exit := tl.Exits[out.Exit]
		switch {
		case out.Indirect:
			e.ip.CPU.EIP = out.IndTarget
		case exit.Kind == ir.ExitJump || exit.Kind == ir.ExitInterp:
			e.ip.CPU.EIP = exit.Target
		default:
			t.Fatalf("unexpected exit kind %v", exit.Kind)
		}
	}
	t.Fatal("mini engine did not halt")
}

// reference runs the same program in the pure interpreter.
func reference(t *testing.T, src string) *interp.Interp {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	plat := dev.NewPlatform(1<<20, nil)
	plat.Bus.WriteRaw(p.Org, p.Image)
	ip := interp.New(plat.Bus)
	ip.CPU = interp.NewCPU(p.Entry())
	ip.CPU.Regs[guest.ESP] = 0xF0000
	res, _ := ip.Run(2_000_000)
	if res.Stop != interp.StopHalt {
		t.Fatalf("reference run: %+v", res)
	}
	return ip
}

// checkSame compares translated and reference final state.
func checkSame(t *testing.T, src string, pol Policy) *miniEngine {
	t.Helper()
	ref := reference(t, src)
	e := newMini(t, src, pol)
	e.run(t, 1_000_000)
	for r := guest.Reg(0); r < guest.NumRegs; r++ {
		if e.ip.CPU.Regs[r] != ref.CPU.Regs[r] {
			t.Errorf("%s = %#x, reference %#x", r, e.ip.CPU.Regs[r], ref.CPU.Regs[r])
		}
	}
	if e.ip.CPU.Flags != ref.CPU.Flags {
		t.Errorf("flags = %#x, reference %#x", e.ip.CPU.Flags, ref.CPU.Flags)
	}
	return e
}

const sumLoop = `
.org 0x1000
	mov eax, 0
	mov ecx, 100
loop:
	add eax, ecx
	dec ecx
	jne loop
	hlt
`

func TestTranslateSumLoop(t *testing.T) {
	e := checkSame(t, sumLoop, Policy{})
	if e.ip.CPU.Regs[guest.EAX] != 5050 {
		t.Errorf("sum = %d", e.ip.CPU.Regs[guest.EAX])
	}
	if e.texecs == 0 {
		t.Error("no translations executed")
	}
}

func TestRegionSelection(t *testing.T) {
	p, err := asm.Assemble(sumLoop)
	if err != nil {
		t.Fatal(err)
	}
	plat := dev.NewPlatform(1<<20, nil)
	plat.Bus.WriteRaw(p.Org, p.Image)

	// Without profile, the Jcc is unbiased: the trace ends at it.
	insns, err := selectRegion(plat.Bus, nil, p.Org, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if len(insns) != 5 {
		t.Fatalf("trace length %d, want 5 (through the jne)", len(insns))
	}
	// With a heavily taken profile, the branch is followed and the loop
	// unrolls up to the default revisit budget: 4 copies of the 3-insn body.
	prof := interp.NewProfile()
	prof.Branches[insns[4].Addr] = &interp.BranchStat{Taken: 99, NotTaken: 1}
	loopHead := insns[2].Addr
	insns2, err := selectRegion(plat.Bus, prof, loopHead, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if len(insns2) != 3*DefaultUnroll {
		t.Fatalf("loop trace length %d, want %d", len(insns2), 3*DefaultUnroll)
	}
	// Unroll 1 reproduces the single-iteration trace.
	insns1, err := selectRegion(plat.Bus, prof, loopHead, Policy{Unroll: 1})
	if err != nil || len(insns1) != 3 {
		t.Fatalf("unroll-1 trace length %d, err %v", len(insns1), err)
	}
	// The cap is honored.
	insns3, err := selectRegion(plat.Bus, nil, p.Org, Policy{MaxInsns: 2})
	if err != nil || len(insns3) != 2 {
		t.Fatalf("capped trace: %d insns, err %v", len(insns3), err)
	}
}

// TestRegionRejectsSystemEntry: HLT and INT are the instructions only the
// interpreter runs. A region cannot start at either, and a trace stops
// just before them.
func TestRegionRejectsSystemEntry(t *testing.T) {
	for _, src := range []string{".org 0x1000\n hlt\n", ".org 0x1000\n int 0x21\n hlt\n"} {
		bus, _ := assembleAt(t, src)
		if _, err := selectRegion(bus, nil, 0x1000, Policy{}); !errors.Is(err, ErrUntranslatable) {
			t.Errorf("%q: selectRegion err %v, want ErrUntranslatable", src, err)
		}
		tr := &Translator{Bus: bus}
		if _, err := tr.Translate(0x1000, Policy{}); !errors.Is(err, ErrUntranslatable) {
			t.Errorf("%q: Translate err %v, want ErrUntranslatable", src, err)
		}
	}
	bus, _ := assembleAt(t, ".org 0x1000\n nop\n int 0x21\n nop\n hlt\n")
	if insns, err := selectRegion(bus, nil, 0x1000, Policy{}); err != nil || len(insns) != 1 {
		t.Fatalf("trace %v (err %v), want the nop before int alone", insns, err)
	}
}

func TestMemoryProgram(t *testing.T) {
	checkSame(t, `
.org 0x1000
	mov ebx, 0x8000
	mov ecx, 16
fill:
	mov eax, ecx
	imul eax, ecx
	mov [ebx+ecx*4], eax
	dec ecx
	jne fill
	mov esi, [ebx+4]        ; 1
	add esi, [ebx+8]        ; +4
	add esi, [ebx+12]       ; +9
	mov edi, esi
	hlt
`, Policy{})
}

func TestCallRetProgram(t *testing.T) {
	checkSame(t, `
.org 0x1000
_start:
	mov eax, 3
	call square
	mov ebx, eax
	call square
	hlt
square:
	imul eax, eax
	ret
`, Policy{})
}

func TestDivAndFlags(t *testing.T) {
	checkSame(t, `
.org 0x1000
	mov eax, 1000
	mov edx, 0
	mov ebx, 7
	div ebx
	pushf
	pop esi
	mov ecx, eax
	shl ecx, 3
	sar ecx, 1
	neg edx
	hlt
`, Policy{})
}

func TestByteOpsAndStylizedCandidates(t *testing.T) {
	checkSame(t, `
.org 0x1000
	mov ebx, 0x9000
	mov eax, 0x11223344
	movb [ebx], eax
	movb [ebx+1], eax
	movb ecx, [ebx]
	not ecx
	and ecx, 0xff
	hlt
`, Policy{})
}

func TestAllPolicyVariantsAgree(t *testing.T) {
	prog := `
.org 0x1000
	mov ebx, 0x8000
	mov edx, 0x8100
	mov ecx, 50
loop:
	mov eax, [ebx]
	add eax, ecx
	mov [edx], eax
	mov esi, [ebx+4]
	add esi, esi
	mov [edx+4], esi
	dec ecx
	jne loop
	hlt
`
	pols := map[string]Policy{
		"aggressive": {},
		"noreorder":  {NoReorderMem: true},
		"noaliashw":  {NoAliasHW: true},
		"nohoist":    {NoHoistLoads: true},
		"selfcheck":  {SelfCheck: true},
		"small":      {MaxInsns: 3},
	}
	var mols = map[string]uint64{}
	for name, pol := range pols {
		e := checkSame(t, prog, pol)
		mols[name] = e.m.Mols
	}
	// Suppressing reordering must not be faster than aggressive scheduling.
	if mols["noreorder"] < mols["aggressive"] {
		t.Errorf("noreorder (%d mols) beat aggressive (%d)", mols["noreorder"], mols["aggressive"])
	}
	if mols["selfcheck"] <= mols["aggressive"] {
		t.Errorf("selfcheck (%d mols) not costlier than aggressive (%d)", mols["selfcheck"], mols["aggressive"])
	}
}

func TestAliasFaultRecovery(t *testing.T) {
	// ebx and edx alias at runtime; the translator cannot prove it, so the
	// aggressive schedule reorders the load over the store and the alias
	// hardware catches it.
	prog := `
.org 0x1000
	mov ebx, 0x8000
	mov edx, 0x8000        ; same address!
	mov ecx, 10
loop:
	mov eax, ecx
	mov [ebx], eax
	mov esi, [edx]         ; must see the store
	add edi, esi
	dec ecx
	jne loop
	hlt
`
	e := checkSame(t, prog, Policy{})
	if e.ip.CPU.Regs[guest.EDI] != 55 {
		t.Errorf("edi = %d, want 55", e.ip.CPU.Regs[guest.EDI])
	}
}

func TestMMIOSpecFaultRecovery(t *testing.T) {
	// Stores into the MMIO text buffer from translated code: the schedule
	// may reorder the load; the hardware faults and recovery interprets.
	prog := fmt.Sprintf(`
.org 0x1000
	mov ebx, 0x%x
	mov ecx, 8
loop:
	mov [ebx+ecx*4], ecx
	mov eax, [ebx+ecx*4]
	add esi, eax
	dec ecx
	jne loop
	hlt
`, dev.ConsoleMMIOBase)
	e := checkSame(t, prog, Policy{})
	if e.ip.CPU.Regs[guest.ESI] != 36 {
		t.Errorf("esi = %d, want 36", e.ip.CPU.Regs[guest.ESI])
	}
	// The reference interpreter wrote each cell once; the translated run
	// must not have duplicated or lost device writes... the final text
	// buffer must match.
	txt := e.plat.Console.Text()
	for c := uint32(1); c <= 8; c++ {
		if txt[c*4] != byte(c) {
			t.Errorf("text[%d] = %d, want %d", c*4, txt[c*4], c)
		}
	}
}

func TestPortIOInTranslation(t *testing.T) {
	prog := fmt.Sprintf(`
.org 0x1000
	mov ecx, 5
	mov eax, 'A'
loop:
	out 0x%x, eax
	inc eax
	dec ecx
	jne loop
	in ebx, 0x%x
	hlt
`, dev.ConsoleDataPort, dev.ConsoleStatusPort)
	e := checkSame(t, prog, Policy{})
	if got := e.plat.Console.OutputString(); got != "ABCDE" {
		t.Errorf("console = %q", got)
	}
	if e.ip.CPU.Regs[guest.EBX] != 1 {
		t.Error("in must read status")
	}
}

func TestSelfCheckDetectsModification(t *testing.T) {
	prog := `
.org 0x1000
	mov eax, 1
	add eax, 2
	hlt
`
	p, _ := asm.Assemble(prog)
	plat := dev.NewPlatform(1<<20, nil)
	plat.Bus.WriteRaw(p.Org, p.Image)
	tr := &Translator{Bus: plat.Bus}
	tl, err := tr.Translate(0x1000, Policy{SelfCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	m := vliw.NewMachine(plat.Bus)
	var regs [guest.NumRegs]uint32
	m.LoadGuest(&regs, guest.FlagsAlways, 0x1000)
	out := m.Exec(tl.Code)
	if out.Fault != vliw.FNone || tl.Exits[out.Exit].Kind == ir.ExitSelfCheckFail {
		t.Fatalf("clean run: %+v", out)
	}
	// Patch the add's immediate: the self-check must catch it.
	plat.Bus.WriteRaw(0x1000+6+2, []byte{9}) // imm byte of "add eax, 2"
	m.LoadGuest(&regs, guest.FlagsAlways, 0x1000)
	out = m.Exec(tl.Code)
	if out.Fault != vliw.FNone || tl.Exits[out.Exit].Kind != ir.ExitSelfCheckFail {
		t.Fatalf("modified run: %+v (exit kind %v)", out, tl.Exits[out.Exit].Kind)
	}
	var fl uint32
	m.StoreGuest(&regs, &fl)
	if regs[guest.EAX] != 0 {
		t.Error("self-check fail must not commit guest effects")
	}
}

func TestSelfCheckGuardsOwnStores(t *testing.T) {
	// The program stores into its own code region (self-modifying). With
	// SelfCheck, the store must trip the alias entries guarding the checked
	// words.
	prog := `
.org 0x1000
	mov ebx, 0x1000
	mov [ebx+4], eax     ; writes into this very code region
	mov ecx, 1
	hlt
`
	p, _ := asm.Assemble(prog)
	plat := dev.NewPlatform(1<<20, nil)
	plat.Bus.WriteRaw(p.Org, p.Image)
	tr := &Translator{Bus: plat.Bus}
	tl, err := tr.Translate(0x1000, Policy{SelfCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	m := vliw.NewMachine(plat.Bus)
	var regs [guest.NumRegs]uint32
	m.LoadGuest(&regs, guest.FlagsAlways, 0x1000)
	out := m.Exec(tl.Code)
	if out.Fault != vliw.FAlias {
		t.Fatalf("self-writing translation: %+v, want alias fault", out)
	}
}

func TestStylizedImmLoad(t *testing.T) {
	// An immediate that the program patches before re-running: with the
	// ImmLoad policy, the same translation computes with the new value.
	prog := `
.org 0x1000
	mov eax, 0
	add eax, 0x11111111
	hlt
`
	p, _ := asm.Assemble(prog)
	plat := dev.NewPlatform(1<<20, nil)
	plat.Bus.WriteRaw(p.Org, p.Image)
	tr := &Translator{Bus: plat.Bus}
	addAddr := uint32(0x1000 + 6)
	pol := Policy{}.WithImmLoad(addAddr)
	tl, err := tr.Translate(0x1000, pol)
	if err != nil {
		t.Fatal(err)
	}
	runOnce := func() uint32 {
		m := vliw.NewMachine(plat.Bus)
		var regs [guest.NumRegs]uint32
		m.LoadGuest(&regs, guest.FlagsAlways, 0x1000)
		out := m.Exec(tl.Code)
		if out.Fault != vliw.FNone {
			t.Fatalf("%+v", out)
		}
		var fl uint32
		m.StoreGuest(&regs, &fl)
		return regs[guest.EAX]
	}
	if got := runOnce(); got != 0x11111111 {
		t.Fatalf("first run = %#x", got)
	}
	// Patch the immediate in guest memory; same translation, new value.
	plat.Bus.WriteRaw(addAddr+2, []byte{0x44, 0x33, 0x22, 0x99})
	if got := runOnce(); got != 0x99223344 {
		t.Fatalf("patched run = %#x", got)
	}
	// The mask excludes the immediate from source comparison.
	if !tl.SourceMatches(plat.Bus) {
		t.Error("mask must exempt the patched immediate")
	}
	// But patching the opcode is a real mismatch.
	plat.Bus.WriteRaw(0x1000, []byte{0x00})
	if tl.SourceMatches(plat.Bus) {
		t.Error("opcode patch must be detected")
	}
}

func TestPrologueDetectsChanges(t *testing.T) {
	prog := `
.org 0x1000
	mov eax, 7
	hlt
`
	p, _ := asm.Assemble(prog)
	plat := dev.NewPlatform(1<<20, nil)
	plat.Bus.WriteRaw(p.Org, p.Image)
	tr := &Translator{Bus: plat.Bus}
	tl, err := tr.Translate(0x1000, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	code, pass, fail, err := tl.Prologue()
	if err != nil {
		t.Fatal(err)
	}
	m := vliw.NewMachine(plat.Bus)
	var regs [guest.NumRegs]uint32
	m.LoadGuest(&regs, guest.FlagsAlways, 0x1000)
	out := m.Exec(code)
	if out.Fault != vliw.FNone || out.Exit != pass {
		t.Fatalf("clean prologue: %+v (pass=%d fail=%d)", out, pass, fail)
	}
	plat.Bus.WriteRaw(0x1001, []byte{0xAA})
	m.LoadGuest(&regs, guest.FlagsAlways, 0x1000)
	out = m.Exec(code)
	if out.Fault != vliw.FNone || out.Exit != fail {
		t.Fatalf("dirty prologue: %+v", out)
	}
}

func TestTranslationMetadata(t *testing.T) {
	p, _ := asm.Assemble(sumLoop)
	plat := dev.NewPlatform(1<<20, nil)
	plat.Bus.WriteRaw(p.Org, p.Image)
	tr := &Translator{Bus: plat.Bus}
	tl, err := tr.Translate(0x1000, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.SrcRanges) != 1 || tl.SrcRanges[0].Addr != 0x1000 {
		t.Errorf("src ranges: %+v", tl.SrcRanges)
	}
	pages := tl.Pages()
	if len(pages) != 1 || pages[0] != 1 {
		t.Errorf("pages: %v", pages)
	}
	chunks := tl.Chunks()
	if chunks[1] == 0 {
		t.Error("chunk mask empty")
	}
	if !tl.Covers(0x1002) || tl.Covers(0x2000) {
		t.Error("Covers wrong")
	}
	if !tl.CoversRange(0x0FFF, 2) || tl.CoversRange(0x0F00, 4) {
		t.Error("CoversRange wrong")
	}
	if tl.CodeAtoms() == 0 || tl.CodeMolecules() == 0 || tl.GuestLen() != 5 {
		t.Error("size metadata wrong")
	}
}

func TestSelfCheckCodeGrowth(t *testing.T) {
	p, _ := asm.Assemble(sumLoop)
	plat := dev.NewPlatform(1<<20, nil)
	plat.Bus.WriteRaw(p.Org, p.Image)
	tr := &Translator{Bus: plat.Bus}
	plain, err := tr.Translate(0x1000, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	checked, err := tr.Translate(0x1000, Policy{SelfCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	if checked.CodeAtoms() <= plain.CodeAtoms() {
		t.Errorf("self-check did not grow code: %d vs %d atoms",
			checked.CodeAtoms(), plain.CodeAtoms())
	}
}

func TestPolicyMergeAndSets(t *testing.T) {
	a := Policy{NoReorderMem: true, MaxInsns: 50}
	b := Policy{SelfCheck: true, MaxInsns: 20}.WithSerialize(0x100).WithNoReorder(0x104).WithImmLoad(0x108)
	m := a.Merge(b)
	if !m.NoReorderMem || !m.SelfCheck || m.MaxInsns != 20 {
		t.Errorf("merge: %+v", m)
	}
	if !m.Serialize[0x100] || !m.NoReorder[0x104] || !m.ImmLoad[0x108] {
		t.Error("merge lost per-address sets")
	}
	// The originals are untouched (value semantics).
	if a.SelfCheck || b.NoReorderMem || len(a.Serialize) != 0 {
		t.Error("merge mutated inputs")
	}
	if (Policy{}).EffMaxInsns() != DefaultMaxInsns {
		t.Error("default cap wrong")
	}
}

// randProg emits a random but halting straight-line program over a data
// window, exercising the optimizer and scheduler broadly.
func randProg(r *rand.Rand) string {
	src := ".org 0x1000\n\tmov ebx, 0x8000\n\tmov esi, 0x8100\n"
	regs := []string{"eax", "ecx", "edx", "edi"}
	for i := 0; i < 40; i++ {
		a := regs[r.Intn(len(regs))]
		b := regs[r.Intn(len(regs))]
		switch r.Intn(16) {
		case 0:
			src += fmt.Sprintf("\tmov %s, %d\n", a, r.Intn(1<<16))
		case 1:
			src += fmt.Sprintf("\tadd %s, %s\n", a, b)
		case 2:
			src += fmt.Sprintf("\tsub %s, %d\n", a, r.Intn(1000))
		case 3:
			src += fmt.Sprintf("\txor %s, %s\n", a, b)
		case 4:
			src += fmt.Sprintf("\tmov [ebx+%d], %s\n", r.Intn(32)*4, a)
		case 5:
			src += fmt.Sprintf("\tmov %s, [ebx+%d]\n", a, r.Intn(32)*4)
		case 6:
			src += fmt.Sprintf("\tshl %s, %d\n", a, r.Intn(5))
		case 7:
			src += fmt.Sprintf("\timul %s, %s\n", a, b)
		case 8:
			src += fmt.Sprintf("\tinc %s\n", a)
		case 9:
			src += fmt.Sprintf("\tcmp %s, %s\n", a, b)
		case 10:
			src += fmt.Sprintf("\tmov [esi+%d], %s\n", r.Intn(8)*4, a)
		case 11:
			src += fmt.Sprintf("\tadd %s, [esi+%d]\n", a, r.Intn(8)*4)
		case 12:
			src += fmt.Sprintf("\tadc %s, %s\n", a, b)
		case 13:
			src += fmt.Sprintf("\tsbb %s, %d\n", a, r.Intn(100))
		case 14:
			src += fmt.Sprintf("\txchg %s, %s\n", a, b)
		case 15:
			src += fmt.Sprintf("\tmovsx %s, [ebx+%d]\n", a, r.Intn(64))
		}
	}
	src += "\thlt\n"
	return src
}

// Property: translated execution matches interpretation on random programs
// under every policy.
func TestRandomProgramEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	pols := []Policy{{}, {NoReorderMem: true}, {NoAliasHW: true}, {SelfCheck: true}, {MaxInsns: 5}}
	for trial := 0; trial < 30; trial++ {
		src := randProg(r)
		pol := pols[trial%len(pols)]
		ref := reference(t, src)
		e := newMini(t, src, pol)
		e.run(t, 100000)
		for reg := guest.Reg(0); reg < guest.NumRegs; reg++ {
			if e.ip.CPU.Regs[reg] != ref.CPU.Regs[reg] {
				t.Fatalf("trial %d (%+v): %s = %#x, want %#x\nprogram:\n%s",
					trial, pol, reg, e.ip.CPU.Regs[reg], ref.CPU.Regs[reg], src)
			}
		}
		if e.ip.CPU.Flags != ref.CPU.Flags {
			t.Fatalf("trial %d: flags %#x want %#x\n%s", trial, e.ip.CPU.Flags, ref.CPU.Flags, src)
		}
		// Data windows must agree too.
		got := e.plat.Bus.ReadRaw(0x8000, 0x200)
		want := func() []byte {
			p, _ := asm.Assemble(src)
			plat := dev.NewPlatform(1<<20, nil)
			plat.Bus.WriteRaw(p.Org, p.Image)
			ip := interp.New(plat.Bus)
			ip.CPU = interp.NewCPU(p.Entry())
			ip.CPU.Regs[guest.ESP] = 0xF0000
			ip.Run(2_000_000)
			return plat.Bus.ReadRaw(0x8000, 0x200)
		}()
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: memory[%#x] = %#x, want %#x", trial, 0x8000+i, got[i], want[i])
			}
		}
	}
}

// A region with more reorderable loads than alias-table entries must fall
// back to in-order scheduling for the excess, staying correct.
func TestAliasTableExhaustion(t *testing.T) {
	src := ".org 0x1000\n\tmov ebx, 0x8000\n\tmov edx, 0x8800\n\tmov ecx, 400\nloop:\n"
	// 20 store/load pairs per iteration; unroll 4 gives ~80 loads, well
	// past the 48 alias entries.
	for i := 0; i < 20; i++ {
		src += fmt.Sprintf("\tmov [ebx+%d], eax\n\tmov esi, [edx+%d]\n\tadd eax, esi\n", i*4, i*4)
	}
	src += "\tdec ecx\n\tjne loop\n\thlt\n"
	e := checkSame(t, src, Policy{})
	if e.texecs == 0 {
		t.Error("nothing translated")
	}
}
