package vliw

import (
	"testing"

	"cms/internal/dev"
	"cms/internal/guest"
	"cms/internal/mem"
)

// diffSetup prepares one machine/bus pair for a differential run; it is
// invoked once per backend so both start from identical state.
type diffSetup func(m *Machine, bus *mem.Bus)

// runDiff executes code on both backends from identical initial state and
// fails the test unless outcomes, counters, committed state, and memory all
// match bit-for-bit.
func runDiff(t *testing.T, code *Code, setup diffSetup) (Outcome, *Machine) {
	t.Helper()
	cc := Compile(code)
	if cc == nil {
		t.Fatal("Compile returned nil")
	}

	run := func(compiled bool) (Outcome, *Machine, *mem.Bus) {
		bus := mem.NewBus(1 << 20)
		m := NewMachine(bus)
		var regs [guest.NumRegs]uint32
		m.LoadGuest(&regs, guest.FlagsAlways, 0x1000)
		if setup != nil {
			setup(m, bus)
		}
		if compiled {
			return *m.ExecCompiled(cc), m, bus
		}
		return m.Exec(code), m, bus
	}

	oi, mi, bi := run(false)
	oc, mc, bc := run(true)

	if oi.Fault != oc.Fault || oi.Exit != oc.Exit || oi.IndTarget != oc.IndTarget ||
		oi.Indirect != oc.Indirect || oi.GuestVec != oc.GuestVec ||
		oi.Addr != oc.Addr || oi.GIdx != oc.GIdx || (oi.Err == nil) != (oc.Err == nil) {
		t.Fatalf("outcome mismatch:\ninterp   %+v\ncompiled %+v", oi, oc)
	}
	if mi.Mols != mc.Mols || mi.Commits != mc.Commits || mi.Rollbacks != mc.Rollbacks {
		t.Fatalf("counter mismatch: interp mols/commits/rollbacks %d/%d/%d, compiled %d/%d/%d",
			mi.Mols, mi.Commits, mi.Rollbacks, mc.Mols, mc.Commits, mc.Rollbacks)
	}
	if mi.Shadow != mc.Shadow {
		t.Fatalf("shadow mismatch:\ninterp   %v\ncompiled %v", mi.Shadow, mc.Shadow)
	}
	if mi.CommittedEIP != mc.CommittedEIP {
		t.Fatalf("committed eip mismatch: interp %#x, compiled %#x", mi.CommittedEIP, mc.CommittedEIP)
	}
	// Shadowed working registers must match too (rollback restores them);
	// temporaries only when nothing faulted (see the fault-path divergence
	// compile.go tolerates by design).
	nregs := NumShadowed
	if oi.Fault == FNone {
		nregs = NumHRegs
	}
	for r := 0; r < nregs; r++ {
		if mi.Regs[r] != mc.Regs[r] {
			t.Fatalf("working r%d mismatch: interp %#x, compiled %#x", r, mi.Regs[r], mc.Regs[r])
		}
	}
	ri, rc := bi.ReadRaw(0, 1<<16), bc.ReadRaw(0, 1<<16)
	for i := range ri {
		if ri[i] != rc[i] {
			t.Fatalf("memory mismatch at %#x: interp %#x, compiled %#x", i, ri[i], rc[i])
		}
	}
	return oc, mc
}

func TestCompiledSimpleComputeAndCommit(t *testing.T) {
	code := &Code{
		NumExits: 1,
		Mols: []Molecule{
			mol(Atom{Op: AMovI, Rd: GuestReg(guest.EAX), Imm: 40}),
			mol(Atom{Op: AAddICC, Rd: GuestReg(guest.EAX), Ra: GuestReg(guest.EAX), Imm: 2}),
			exitMol(),
		},
	}
	if err := code.Validate(); err != nil {
		t.Fatal(err)
	}
	out, m := runDiff(t, code, nil)
	if out.Fault != FNone || out.Exit != 0 {
		t.Fatalf("outcome %+v", out)
	}
	if m.Shadow[GuestReg(guest.EAX)] != 42 {
		t.Fatalf("eax = %d", m.Shadow[GuestReg(guest.EAX)])
	}
	cc := Compile(code)
	if cc.Fallbacks() != 0 {
		t.Errorf("fallbacks = %d, want 0", cc.Fallbacks())
	}
	// Both fall-through molecules cascade into the exit molecule's closure:
	// the whole straight-line run is one fused call.
	if cc.Fused() != 2 {
		t.Errorf("fused = %d, want 2", cc.Fused())
	}
}

// hotLoop is the classic translated loop tail: dec.c + brcc, the
// compare+branch pair the fusion targets.
func hotLoop(iters uint32) *Code {
	return &Code{
		NumExits: 1,
		Mols: []Molecule{
			mol(Atom{Op: AMovI, Rd: GuestReg(guest.ECX), Imm: iters}),                      // 0
			mol(Atom{Op: AAddI, Rd: GuestReg(guest.EAX), Ra: GuestReg(guest.EAX), Imm: 3}), // 1: loop head
			mol(Atom{Op: ADecCC, Rd: GuestReg(guest.ECX), Ra: GuestReg(guest.ECX)}),        // 2
			mol(Atom{Op: ABrCC, Cond: guest.CondNE, Target: 1}),                            // 3
			exitMol(), // 4
		},
	}
}

func TestCompiledHotLoopFusion(t *testing.T) {
	code := hotLoop(1000)
	if err := code.Validate(); err != nil {
		t.Fatal(err)
	}
	out, m := runDiff(t, code, nil)
	if out.Fault != FNone {
		t.Fatalf("outcome %+v", out)
	}
	if got := m.Shadow[GuestReg(guest.EAX)]; got != 3000 {
		t.Fatalf("eax = %d, want 3000", got)
	}
	cc := Compile(code)
	if cc.Fused() == 0 {
		t.Error("hot loop produced no fused pairs")
	}
}

func TestCompiledBranchIntoFusedSuccessor(t *testing.T) {
	// Molecule 2 falls through into the brnz at 3 (fused pair), but 3 is
	// also a direct jump target from molecule 1; the successor must stay
	// independently addressable.
	code := &Code{
		NumExits: 1,
		Mols: []Molecule{
			mol(Atom{Op: AMovI, Rd: GuestReg(guest.ECX), Imm: 2}),                                   // 0
			mol(Atom{Op: ABr, Target: 3}),                                                           // 1: jump straight at the fused successor
			mol(Atom{Op: AAddI, Rd: GuestReg(guest.ECX), Ra: GuestReg(guest.ECX), Imm: ^uint32(0)}), // 2 (fused into 3)
			mol(Atom{Op: ABrNZ, Ra: GuestReg(guest.ECX), Target: 2}),                                // 3
			exitMol(), // 4
		},
	}
	if err := code.Validate(); err != nil {
		t.Fatal(err)
	}
	out, m := runDiff(t, code, nil)
	if out.Fault != FNone {
		t.Fatalf("outcome %+v", out)
	}
	if got := m.Shadow[GuestReg(guest.ECX)]; got != 0 {
		t.Fatalf("ecx = %d, want 0", got)
	}
	cc := Compile(code)
	if cc.Fused() == 0 {
		t.Error("expected mol 2/3 to fuse")
	}
}

// irqOnRead is a port device whose read raises the timer interrupt: the one
// way an interrupt can become pending in the middle of a straight-line run.
type irqOnRead struct{ irq *dev.IRQController }

func (d irqOnRead) PortRead(uint16) uint32 {
	if d.irq != nil {
		d.irq.Raise(dev.IRQTimer)
	}
	return 7
}
func (d irqOnRead) PortWrite(uint16, uint32) {}

// TestCompiledEveryRunEntry jumps into every molecule of one seven-molecule
// straight-line run — register atoms, a gated store and the load it forwards
// to, an empty molecule, a port read, a hazard molecule that takes the exact
// step — and past both ends of the code, with and without an interrupt that
// becomes pending halfway down the run. Every entry is an offset into the
// same step array, so each must see the molecule boundaries (interrupt
// window, count) the interpreter performs from there on.
func TestCompiledEveryRunEntry(t *testing.T) {
	const port = 0x70
	eax, ebx, t0, t1 := GuestReg(guest.EAX), GuestReg(guest.EBX), RTempBase, RTempBase+1
	build := func(entry int32) *Code {
		return &Code{NumExits: 1, Mols: []Molecule{
			mol(Atom{Op: ABr, Target: entry}), // 0: dispatcher
			mol(Atom{Op: AAddI, Rd: eax, Ra: eax, Imm: 1}, Atom{Op: AMovI, Rd: t0, Imm: 0x2000}), // 1
			mol(Atom{Op: ASt, Ra: t0, Rb: eax, Size: 4}),                                         // 2
			mol(),                                 // 3
			mol(Atom{Op: AIn, Rd: t1, Imm: port}), // 4: may raise the IRQ
			mol(Atom{Op: AMovI, Rd: ebx, Imm: 5}, Atom{Op: AAddI, Rd: ebx, Ra: ebx, Imm: 1}),         // 5: hazard
			mol(Atom{Op: ALd, Rd: t1, Ra: t0, Size: 4, ProtIdx: NoAliasIdx}),                         // 6
			mol(Atom{Op: AShlI, Rd: eax, Ra: eax, Imm: 3}, Atom{Op: AXor, Rd: ebx, Ra: ebx, Rb: t1}), // 7
			exitMol(), // 8
		}}
	}
	if cc := Compile(build(1)); cc.Len() != 9 || cc.Fused() != 7 || cc.Fallbacks() != 1 {
		t.Fatalf("len/fused/fallbacks = %d/%d/%d, want 9/7/1", cc.Len(), cc.Fused(), cc.Fallbacks())
	}
	for _, armed := range []bool{false, true} {
		for entry := int32(-1); entry <= 9; entry++ {
			if entry == 0 {
				continue // the dispatcher branching to itself never ends
			}
			out, m := runDiff(t, build(entry), func(m *Machine, bus *mem.Bus) {
				regs := [guest.NumRegs]uint32{guest.EAX: 0x10, guest.EBX: 0x20}
				m.LoadGuest(&regs, guest.FlagsAlways|guest.FlagIF, 0x1000)
				m.IRQ = &dev.IRQController{}
				d := irqOnRead{}
				if armed {
					d.irq = m.IRQ
				}
				bus.MapPort(port, port, d)
			})
			want := FNone
			switch {
			case entry < 0 || entry > 8:
				want = FBadCode
			case armed && entry <= 4:
				want = FIRQ
			}
			if out.Fault != want {
				t.Fatalf("armed %v, entry %d: fault %v, want %v", armed, entry, out.Fault, want)
			}
			// Molecules from the entry to the exit, plus the dispatcher.
			if wantMols := uint64(10 - entry); want == FNone && m.Mols != wantMols {
				t.Fatalf("armed %v, entry %d: %d molecules, want %d", armed, entry, m.Mols, wantMols)
			}
		}
	}
}

func TestCompiledDivideFaultRollsBack(t *testing.T) {
	code := &Code{
		NumExits: 1,
		Mols: []Molecule{
			mol(Atom{Op: AMovI, Rd: GuestReg(guest.EAX), Imm: 999},
				Atom{Op: AMovI, Rd: GuestReg(guest.EBX), Imm: 0}),
			mol(Atom{Op: ADivU, Rd: RTempBase, Rd2: RTempBase + 1,
				Ra: GuestReg(guest.EAX), Rb: GuestReg(guest.EBX), Rc: GuestReg(guest.EBX), GIdx: 3}),
			exitMol(),
		},
	}
	if err := code.Validate(); err != nil {
		t.Fatal(err)
	}
	out, _ := runDiff(t, code, func(m *Machine, bus *mem.Bus) {
		m.Regs[GuestReg(guest.EAX)] = 7
		m.Shadow[GuestReg(guest.EAX)] = 7
	})
	if out.Fault != FGuest || out.GuestVec != guest.VecDE || out.GIdx != 3 {
		t.Fatalf("outcome %+v", out)
	}
}

func TestCompiledStoreBufferForwarding(t *testing.T) {
	code := &Code{
		NumExits: 1,
		Mols: []Molecule{
			mol(Atom{Op: AMovI, Rd: RTempBase, Imm: 0xabcd}),
			mol(Atom{Op: ASt, Ra: RZero, Rb: RTempBase, Imm: 0x5000, Size: 4}),
			mol(Atom{Op: ALd, Rd: RTempBase + 1, Ra: RZero, Imm: 0x5000, Size: 4, ProtIdx: NoAliasIdx}),
			mol(), mol(),
			mol(Atom{Op: AMov, Rd: GuestReg(guest.EAX), Ra: RTempBase + 1}),
			exitMol(),
		},
	}
	if err := code.Validate(); err != nil {
		t.Fatal(err)
	}
	out, m := runDiff(t, code, func(m *Machine, bus *mem.Bus) {
		bus.Write32(0x5000, 0x1111)
	})
	if out.Fault != FNone {
		t.Fatalf("outcome %+v", out)
	}
	if got := m.Shadow[GuestReg(guest.EAX)]; got != 0xabcd {
		t.Fatalf("forwarded load = %#x, want 0xabcd", got)
	}
}

func TestCompiledAliasFault(t *testing.T) {
	// Load protects [0x6000,+4); overlapping store must raise FAlias.
	code := &Code{
		NumExits: 1,
		Mols: []Molecule{
			mol(Atom{Op: ALd, Rd: RTempBase, Ra: RZero, Imm: 0x6000, Size: 4,
				ProtIdx: 2, Reordered: true, GIdx: 5}),
			mol(Atom{Op: AMovI, Rd: RTempBase + 1, Imm: 1}),
			mol(Atom{Op: ASt, Ra: RZero, Rb: RTempBase + 1, Imm: 0x6002, Size: 4,
				CheckMask: 1 << 2, GIdx: 6}),
			exitMol(),
		},
	}
	if err := code.Validate(); err != nil {
		t.Fatal(err)
	}
	out, _ := runDiff(t, code, nil)
	if out.Fault != FAlias || out.GIdx != 6 || out.Addr != 0x6002 {
		t.Fatalf("outcome %+v", out)
	}
}

func TestCompiledMMIO(t *testing.T) {
	setup := func(m *Machine, bus *mem.Bus) {
		bus.MapMMIO(dev.ConsoleMMIOBase, dev.ConsoleMMIOSize, dev.NewConsole())
	}
	// Reordered MMIO load: FMMIOSpec.
	spec := &Code{
		NumExits: 1,
		Mols: []Molecule{
			mol(Atom{Op: ALd, Rd: RTempBase, Ra: RZero, Imm: dev.ConsoleMMIOBase,
				Size: 4, Reordered: true, ProtIdx: NoAliasIdx, GIdx: 7}),
			exitMol(),
		},
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	out, _ := runDiff(t, spec, setup)
	if out.Fault != FMMIOSpec || out.GIdx != 7 {
		t.Fatalf("outcome %+v", out)
	}

	// Gated OUT then in-order MMIO load: FMMIOOrder.
	order := &Code{
		NumExits: 1,
		Mols: []Molecule{
			mol(Atom{Op: AMovI, Rd: RTempBase, Imm: 'x'}),
			mol(Atom{Op: AOut, Imm: 0x3f8, Rb: RTempBase}),
			mol(Atom{Op: ALd, Rd: RTempBase + 1, Ra: RZero, Imm: dev.ConsoleMMIOBase,
				Size: 4, ProtIdx: NoAliasIdx, GIdx: 4}),
			exitMol(),
		},
	}
	if err := order.Validate(); err != nil {
		t.Fatal(err)
	}
	out, _ = runDiff(t, order, setup)
	if out.Fault != FMMIOOrder || out.GIdx != 4 {
		t.Fatalf("outcome %+v", out)
	}
}

func TestCompiledIRQWindow(t *testing.T) {
	code := hotLoop(50)
	if err := code.Validate(); err != nil {
		t.Fatal(err)
	}
	out, _ := runDiff(t, code, func(m *Machine, bus *mem.Bus) {
		var regs [guest.NumRegs]uint32
		m.LoadGuest(&regs, guest.FlagsAlways|guest.FlagIF, 0x1000)
		irq := &dev.IRQController{}
		irq.Raise(dev.IRQTimer)
		m.IRQ = irq
	})
	if out.Fault != FIRQ {
		t.Fatalf("outcome %+v", out)
	}
}

func TestCompiledMidBodyCommit(t *testing.T) {
	// Lone ACommit (specializable) carrying a new committed EIP.
	code := &Code{
		NumExits: 1,
		Mols: []Molecule{
			mol(Atom{Op: AMovI, Rd: GuestReg(guest.EAX), Imm: 11}),
			mol(Atom{Op: ACommit, Imm: 0x2000}),
			mol(Atom{Op: AMovI, Rd: GuestReg(guest.EBX), Imm: 22}),
			exitMol(),
		},
	}
	if err := code.Validate(); err != nil {
		t.Fatal(err)
	}
	out, m := runDiff(t, code, nil)
	if out.Fault != FNone {
		t.Fatalf("outcome %+v", out)
	}
	if m.Commits != 2 {
		t.Fatalf("commits = %d, want 2", m.Commits)
	}

	// ACommit sharing a molecule with a register write commits *pre-write*
	// state: must take the fallback and still match the interpreter.
	mixed := &Code{
		NumExits: 1,
		Mols: []Molecule{
			mol(Atom{Op: AMovI, Rd: GuestReg(guest.EAX), Imm: 77},
				Atom{Op: ACommit, Imm: 0x3000}),
			mol(Atom{Op: AExit, Imm: 0, Commit: false, GIdx: -1}),
		},
	}
	if err := mixed.Validate(); err != nil {
		t.Fatal(err)
	}
	cc := Compile(mixed)
	if cc.Fallbacks() == 0 {
		t.Error("commit+write molecule should take the exact step")
	}
	out, m = runDiff(t, mixed, nil)
	if out.Fault != FNone {
		t.Fatalf("outcome %+v", out)
	}
	// The commit ran before the deferred write: shadow EAX is still 0.
	if m.Shadow[GuestReg(guest.EAX)] != 0 {
		t.Fatalf("shadow eax = %d, want 0 (commit precedes molecule writes)", m.Shadow[GuestReg(guest.EAX)])
	}
	// A store preceding a lone-ish commit is allowed to specialize.
	stThenCommit := &Code{
		NumExits: 1,
		Mols: []Molecule{
			mol(Atom{Op: AMovI, Rd: RTempBase, Imm: 9}),
			mol(Atom{Op: ASt, Ra: RZero, Rb: RTempBase, Imm: 0x7000, Size: 4},
				Atom{Op: ACommit, Imm: 0x4000}),
			exitMol(),
		},
	}
	if err := stThenCommit.Validate(); err != nil {
		t.Fatal(err)
	}
	out, m = runDiff(t, stThenCommit, nil)
	if out.Fault != FNone {
		t.Fatalf("outcome %+v", out)
	}
	if m.CommittedEIP != 0x4000 {
		t.Fatalf("committed eip = %#x", m.CommittedEIP)
	}
}

func TestCompiledIndirectExit(t *testing.T) {
	code := &Code{
		NumExits: 1,
		Mols: []Molecule{
			mol(Atom{Op: AMovI, Rd: RTarget, Imm: 0xBEEF}),
			mol(Atom{Op: AExitInd, Ra: RTarget, Imm: 0, Commit: true, GIdx: -1}),
		},
	}
	if err := code.Validate(); err != nil {
		t.Fatal(err)
	}
	out, _ := runDiff(t, code, nil)
	if !out.Indirect || out.IndTarget != 0xBEEF || out.Exit != 0 {
		t.Fatalf("outcome %+v", out)
	}
}

func TestCompiledFallOffEnd(t *testing.T) {
	code := &Code{
		NumExits: 1,
		Mols: []Molecule{
			mol(Atom{Op: AMovI, Rd: GuestReg(guest.EAX), Imm: 1}),
		},
	}
	out, _ := runDiff(t, code, nil)
	if out.Fault != FBadCode || out.Err == nil {
		t.Fatalf("outcome %+v", out)
	}

	empty := &Code{NumExits: 1}
	out, _ = runDiff(t, empty, nil)
	if out.Fault != FBadCode {
		t.Fatalf("empty code outcome %+v", out)
	}
}

func TestCompiledHazardTakesFallback(t *testing.T) {
	// Same-molecule read-after-write: illegal under validation, but Compile
	// must still reproduce Exec's (deferred-read) behavior via the fallback.
	code := &Code{
		NumExits: 1,
		Mols: []Molecule{
			mol(Atom{Op: AMovI, Rd: GuestReg(guest.EAX), Imm: 5},
				Atom{Op: AMov, Rd: GuestReg(guest.EBX), Ra: GuestReg(guest.EAX)}),
			exitMol(),
		},
	}
	cc := Compile(code)
	if cc.Fallbacks() == 0 {
		t.Error("hazard molecule should take the exact step")
	}
	out, m := runDiff(t, code, nil)
	if out.Fault != FNone {
		t.Fatalf("outcome %+v", out)
	}
	// EBX read EAX's pre-molecule value (0), not 5.
	if m.Shadow[GuestReg(guest.EBX)] != 0 {
		t.Fatalf("ebx = %d, want 0 (read-before-write)", m.Shadow[GuestReg(guest.EBX)])
	}
}

func TestCompiledSetCCAndLogicFlags(t *testing.T) {
	code := &Code{
		NumExits: 1,
		Mols: []Molecule{
			mol(Atom{Op: AMovI, Rd: GuestReg(guest.EAX), Imm: 0xF0},
				Atom{Op: AMovI, Rd: GuestReg(guest.EBX), Imm: 0x0F}),
			mol(Atom{Op: AAndCC, Rd: GuestReg(guest.ECX), Ra: GuestReg(guest.EAX), Rb: GuestReg(guest.EBX)}),
			mol(Atom{Op: ASetCC, Rd: GuestReg(guest.EDX), Cond: guest.CondE}),
			mol(Atom{Op: AXorICC, Rd: GuestReg(guest.ESI), Ra: GuestReg(guest.EAX), Imm: 0xF0}),
			mol(Atom{Op: AAdcICC, Rd: GuestReg(guest.EDI), Ra: GuestReg(guest.EDI), Imm: 1}),
			exitMol(),
		},
	}
	if err := code.Validate(); err != nil {
		t.Fatal(err)
	}
	out, m := runDiff(t, code, nil)
	if out.Fault != FNone {
		t.Fatalf("outcome %+v", out)
	}
	if m.Shadow[GuestReg(guest.EDX)] != 1 {
		t.Fatalf("setcc(e) after and=0: edx = %d, want 1", m.Shadow[GuestReg(guest.EDX)])
	}
}

// TestCompiledRenamedFlagImage exercises the Fs/Fd renaming: the flag image
// lives in a temporary, and the IF bit must still come from the
// architectural RFlags.
func TestCompiledRenamedFlagImage(t *testing.T) {
	ftmp := RTempBase + 8
	code := &Code{
		NumExits: 1,
		Mols: []Molecule{
			mol(Atom{Op: AMovI, Rd: GuestReg(guest.EAX), Imm: 1}),
			mol(Atom{Op: ASubICC, Rd: GuestReg(guest.EAX), Ra: GuestReg(guest.EAX), Imm: 1, Fd: ftmp}),
			mol(Atom{Op: ASetCC, Rd: GuestReg(guest.EBX), Cond: guest.CondE, Fs: ftmp}),
			mol(Atom{Op: ABrCC, Cond: guest.CondE, Fs: ftmp, Target: 5}),
			mol(Atom{Op: AMovI, Rd: GuestReg(guest.ECX), Imm: 111}), // skipped
			mol(Atom{Op: AMovI, Rd: GuestReg(guest.EDX), Imm: 222}), // 5
			exitMol(),
		},
	}
	if err := code.Validate(); err != nil {
		t.Fatal(err)
	}
	out, m := runDiff(t, code, nil)
	if out.Fault != FNone {
		t.Fatalf("outcome %+v", out)
	}
	if m.Shadow[GuestReg(guest.EBX)] != 1 || m.Shadow[GuestReg(guest.ECX)] != 0 ||
		m.Shadow[GuestReg(guest.EDX)] != 222 {
		t.Fatalf("regs: ebx=%d ecx=%d edx=%d", m.Shadow[GuestReg(guest.EBX)],
			m.Shadow[GuestReg(guest.ECX)], m.Shadow[GuestReg(guest.EDX)])
	}
}

func TestCompiledProtFault(t *testing.T) {
	code := &Code{
		NumExits: 1,
		Mols: []Molecule{
			mol(Atom{Op: AMovI, Rd: RTempBase, Imm: 1}),
			mol(Atom{Op: ASt, Ra: RZero, Rb: RTempBase, Imm: 0x5004, Size: 4, GIdx: 2}),
			exitMol(),
		},
	}
	if err := code.Validate(); err != nil {
		t.Fatal(err)
	}
	out, _ := runDiff(t, code, func(m *Machine, bus *mem.Bus) {
		bus.Protect(mem.PageOf(0x5004))
	})
	if out.Fault != FProt || out.Addr != 0x5004 {
		t.Fatalf("outcome %+v", out)
	}
}

func TestCompiledMulDiv(t *testing.T) {
	code := &Code{
		NumExits: 1,
		Mols: []Molecule{
			mol(Atom{Op: AMovI, Rd: GuestReg(guest.EAX), Imm: 0x10000},
				Atom{Op: AMovI, Rd: GuestReg(guest.EBX), Imm: 0x30}),
			mol(Atom{Op: AMul64, Rd: GuestReg(guest.ECX), Rd2: GuestReg(guest.EDX),
				Ra: GuestReg(guest.EAX), Rb: GuestReg(guest.EBX)}),
			mol(), // media latency spacing
			mol(Atom{Op: AMovI, Rd: RTempBase, Imm: 7}),
			mol(Atom{Op: ADivU, Rd: GuestReg(guest.ESI), Rd2: GuestReg(guest.EDI),
				Ra: GuestReg(guest.ECX), Rb: RTempBase, Rc: RZero}),
			mol(), mol(), mol(), // div latency spacing
			exitMol(),
		},
	}
	if err := code.Validate(); err != nil {
		t.Fatal(err)
	}
	out, m := runDiff(t, code, nil)
	if out.Fault != FNone {
		t.Fatalf("outcome %+v", out)
	}
	if m.Shadow[GuestReg(guest.ECX)] != 0x300000 {
		t.Fatalf("mul low = %#x", m.Shadow[GuestReg(guest.ECX)])
	}
}

// BenchmarkExecBackends measures the interpreted and compiled backends on
// the same hot loop.
func BenchmarkExecBackends(b *testing.B) {
	code := hotLoop(1000)
	if err := code.Validate(); err != nil {
		b.Fatal(err)
	}
	cc := Compile(code)
	b.Run("interp", func(b *testing.B) {
		bus := mem.NewBus(1 << 20)
		m := NewMachine(bus)
		var regs [guest.NumRegs]uint32
		for i := 0; i < b.N; i++ {
			m.LoadGuest(&regs, guest.FlagsAlways, 0)
			if out := m.Exec(code); out.Fault != FNone {
				b.Fatal(out)
			}
		}
	})
	b.Run("compiled", func(b *testing.B) {
		bus := mem.NewBus(1 << 20)
		m := NewMachine(bus)
		var regs [guest.NumRegs]uint32
		for i := 0; i < b.N; i++ {
			m.LoadGuest(&regs, guest.FlagsAlways, 0)
			if out := m.ExecCompiled(cc); out.Fault != FNone {
				b.Fatal(out)
			}
		}
	})
}

// BenchmarkExecCompiled is the translated-execution line of the layer ledger
// (vliw.texec_ns_per_mol) taken apart by what a molecule costs there:
// alu_run is the step loop itself — a long straight-line run of register
// atoms, the boundary inline at every mark; store_forward is the gated store
// buffer — an exact-match forward, a partial overlap, a load the summary
// mask lets through, and the commit that drains four words; and
// short_exit_chain is what one execution costs around its molecules — entry,
// exit, commit — on the two-molecule translations chained loops are made of.
func BenchmarkExecCompiled(b *testing.B) {
	eax, ebx, ecx, t0, t1 := GuestReg(guest.EAX), GuestReg(guest.EBX), GuestReg(guest.ECX), RTempBase, RTempBase+1
	aluRun := &Code{NumExits: 1, Mols: []Molecule{mol(Atom{Op: AMovI, Rd: ecx, Imm: 64})}}
	for i := 0; i < 8; i++ {
		aluRun.Mols = append(aluRun.Mols, mol(
			Atom{Op: AAddI, Rd: eax, Ra: eax, Imm: 3}, Atom{Op: AXor, Rd: ebx, Ra: ebx, Rb: ecx}))
	}
	aluRun.Mols = append(aluRun.Mols,
		mol(Atom{Op: ADecCC, Rd: ecx, Ra: ecx}),
		mol(Atom{Op: ABrCC, Cond: guest.CondNE, Target: 1}),
		exitMol())

	ld := func(rd HReg, imm uint32, size uint8) Atom {
		return Atom{Op: ALd, Rd: rd, Ra: t0, Imm: imm, Size: size, ProtIdx: NoAliasIdx}
	}
	st := func(imm uint32) Atom { return Atom{Op: ASt, Ra: t0, Rb: eax, Imm: imm, Size: 4} }
	storeForward := &Code{NumExits: 1, Mols: []Molecule{
		mol(Atom{Op: AMovI, Rd: t0, Imm: 0x2000}, Atom{Op: AAddI, Rd: eax, Ra: eax, Imm: 1}),
		mol(st(0)),
		mol(ld(t1, 0, 4)), // exact match
		mol(st(4)),
		mol(ld(t1, 5, 1)), // partial overlap
		mol(st(8)),
		mol(ld(t1+1, 64, 4)), // the mask lets it through
		mol(st(12)),
		exitMol(),
	}}

	shortExit := &Code{NumExits: 1, Mols: []Molecule{
		mol(Atom{Op: AAddI, Rd: eax, Ra: eax, Imm: 1}),
		exitMol(),
	}}

	for _, bc := range []struct {
		name string
		code *Code
	}{{"alu_run", aluRun}, {"store_forward", storeForward}, {"short_exit_chain", shortExit}} {
		b.Run(bc.name, func(b *testing.B) {
			if err := bc.code.Validate(); err != nil {
				b.Fatal(err)
			}
			cc := Compile(bc.code)
			m := NewMachine(mem.NewBus(1 << 20))
			var regs [guest.NumRegs]uint32
			m.LoadGuest(&regs, guest.FlagsAlways, 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if out := m.ExecCompiled(cc); out.Fault != FNone {
					b.Fatal(out)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(m.Mols), "ns/mol")
		})
	}
}
