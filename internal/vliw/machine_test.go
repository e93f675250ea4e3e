package vliw

import (
	"strings"
	"testing"

	"cms/internal/dev"
	"cms/internal/guest"
	"cms/internal/mem"
)

func mol(atoms ...Atom) Molecule { return Molecule{Atoms: atoms} }

// exitMol is a commit-and-exit molecule for exit 0.
func exitMol() Molecule {
	return mol(Atom{Op: AExit, Imm: 0, Commit: true, GIdx: -1})
}

func newM(t *testing.T) (*Machine, *mem.Bus) {
	t.Helper()
	bus := mem.NewBus(1 << 20)
	return NewMachine(bus), bus
}

func exec(t *testing.T, m *Machine, code *Code) Outcome {
	t.Helper()
	if err := code.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	return m.Exec(code)
}

func TestSimpleComputeAndCommit(t *testing.T) {
	m, _ := newM(t)
	var regs [guest.NumRegs]uint32
	m.LoadGuest(&regs, guest.FlagsAlways, 0)
	code := &Code{
		NumExits: 1,
		Mols: []Molecule{
			mol(Atom{Op: AMovI, Rd: GuestReg(guest.EAX), Imm: 40}),
			mol(Atom{Op: AAddICC, Rd: GuestReg(guest.EAX), Ra: GuestReg(guest.EAX), Imm: 2}),
			exitMol(),
		},
	}
	out := exec(t, m, code)
	if out.Fault != FNone || out.Exit != 0 {
		t.Fatalf("outcome %+v", out)
	}
	var flags uint32
	m.StoreGuest(&regs, &flags)
	if regs[guest.EAX] != 42 {
		t.Errorf("eax = %d", regs[guest.EAX])
	}
	if flags&guest.FlagZF != 0 || flags&guest.FlagsAlways == 0 {
		t.Errorf("flags = %#x", flags)
	}
	if m.Mols != 3 {
		t.Errorf("molecules = %d, want 3", m.Mols)
	}
	if m.Commits != 1 {
		t.Errorf("commits = %d", m.Commits)
	}
}

func TestRollbackRestoresRegisters(t *testing.T) {
	m, _ := newM(t)
	var regs [guest.NumRegs]uint32
	regs[guest.EAX] = 7
	m.LoadGuest(&regs, guest.FlagsAlways, 0)
	// Clobber EAX then divide by zero.
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
	out := exec(t, m, code)
	if out.Fault != FGuest || out.GuestVec != guest.VecDE || out.GIdx != 3 {
		t.Fatalf("outcome %+v", out)
	}
	var flags uint32
	m.StoreGuest(&regs, &flags)
	if regs[guest.EAX] != 7 {
		t.Errorf("rollback lost eax: %d", regs[guest.EAX])
	}
	if m.Rollbacks != 1 {
		t.Errorf("rollbacks = %d", m.Rollbacks)
	}
	// Rollback charges its molecule cost.
	if m.Mols != 2+m.RollbackCost {
		t.Errorf("molecules = %d", m.Mols)
	}
}

func TestGatedStoreBuffer(t *testing.T) {
	m, bus := newM(t)
	var regs [guest.NumRegs]uint32
	m.LoadGuest(&regs, guest.FlagsAlways, 0)
	bus.Write32(0x5000, 0x1111)
	code := &Code{
		NumExits: 1,
		Mols: []Molecule{
			mol(Atom{Op: AMovI, Rd: RTempBase, Imm: 0xabcd}),
			mol(Atom{Op: ASt, Ra: 63, Rb: RTempBase, Imm: 0x5000, Size: 4}),
			// Load it back through the store buffer before commit.
			mol(Atom{Op: ALd, Rd: RTempBase + 1, Ra: 63, Imm: 0x5000, Size: 4, ProtIdx: NoAliasIdx}),
			mol(), mol(), // latency spacing for the load
			mol(Atom{Op: AMov, Rd: GuestReg(guest.EAX), Ra: RTempBase + 1}),
			exitMol(),
		},
	}
	// Pre-fault check: memory must still hold the old value mid-run; we
	// verify by checking after a rollback in a second run below. First the
	// happy path:
	out := exec(t, m, code)
	if out.Fault != FNone {
		t.Fatalf("outcome %+v", out)
	}
	var flags uint32
	m.StoreGuest(&regs, &flags)
	if regs[guest.EAX] != 0xabcd {
		t.Errorf("forwarded load = %#x, want 0xabcd", regs[guest.EAX])
	}
	if bus.Read32(0x5000) != 0xabcd {
		t.Error("commit must drain the store")
	}

	// Now a run that stores and then faults: the store must be dropped.
	bus.Write32(0x5000, 0x2222)
	m.LoadGuest(&regs, guest.FlagsAlways, 0)
	code2 := &Code{
		NumExits: 1,
		Mols: []Molecule{
			mol(Atom{Op: AMovI, Rd: RTempBase, Imm: 0x9999},
				Atom{Op: AMovI, Rd: RTempBase + 2, Imm: 0}),
			mol(Atom{Op: ASt, Ra: 63, Rb: RTempBase, Imm: 0x5000, Size: 4}),
			mol(Atom{Op: ADivU, Rd: RTempBase, Rd2: RTempBase + 1,
				Ra: RTempBase, Rb: RTempBase + 2, Rc: RTempBase + 2}),
			exitMol(),
		},
	}
	out = exec(t, m, code2)
	if out.Fault != FGuest {
		t.Fatalf("outcome %+v", out)
	}
	if bus.Read32(0x5000) != 0x2222 {
		t.Error("gated store leaked past a rollback")
	}
}

func TestByteAccurateForwarding(t *testing.T) {
	m, bus := newM(t)
	var regs [guest.NumRegs]uint32
	m.LoadGuest(&regs, guest.FlagsAlways, 0)
	bus.Write32(0x6000, 0xAABBCCDD)
	code := &Code{
		NumExits: 1,
		Mols: []Molecule{
			mol(Atom{Op: AMovI, Rd: RTempBase, Imm: 0x11}),
			mol(Atom{Op: ASt, Ra: 63, Rb: RTempBase, Imm: 0x6001, Size: 1}),
			mol(Atom{Op: ALd, Rd: RTempBase + 1, Ra: 63, Imm: 0x6000, Size: 4, ProtIdx: NoAliasIdx}),
			mol(), mol(),
			mol(Atom{Op: AMov, Rd: GuestReg(guest.EAX), Ra: RTempBase + 1}),
			exitMol(),
		},
	}
	out := exec(t, m, code)
	if out.Fault != FNone {
		t.Fatalf("%+v", out)
	}
	var flags uint32
	m.StoreGuest(&regs, &flags)
	if regs[guest.EAX] != 0xAABB11DD {
		t.Errorf("merged load = %#x, want 0xAABB11DD", regs[guest.EAX])
	}
}

func TestAliasHardwareDetectsOverlap(t *testing.T) {
	m, bus := newM(t)
	var regs [guest.NumRegs]uint32
	m.LoadGuest(&regs, guest.FlagsAlways, 0)
	bus.Write32(0x7000, 5)
	// A load hoisted above a store (reordered), protected by alias entry 0;
	// the store overlaps it.
	code := &Code{
		NumExits: 1,
		Mols: []Molecule{
			mol(Atom{Op: ALd, Rd: RTempBase, Ra: 63, Imm: 0x7000, Size: 4,
				Reordered: true, ProtIdx: 0, GIdx: 2}),
			mol(Atom{Op: AMovI, Rd: RTempBase + 1, Imm: 9}),
			mol(Atom{Op: ASt, Ra: 63, Rb: RTempBase + 1, Imm: 0x7002, Size: 4,
				CheckMask: 1 << 0, GIdx: 1}),
			exitMol(),
		},
	}
	out := exec(t, m, code)
	if out.Fault != FAlias || out.GIdx != 1 {
		t.Fatalf("outcome %+v, want alias fault", out)
	}

	// Disjoint addresses: no fault.
	m.LoadGuest(&regs, guest.FlagsAlways, 0)
	code.Mols[2].Atoms[0].Imm = 0x7004
	if out := exec(t, m, code); out.Fault != FNone {
		t.Fatalf("disjoint store faulted: %+v", out)
	}
	// The alias table is cleared by commit: rerunning the store-only suffix
	// is not possible here, but a second full run must also pass.
	m.LoadGuest(&regs, guest.FlagsAlways, 0)
	if out := exec(t, m, code); out.Fault != FNone {
		t.Fatalf("second run faulted: %+v", out)
	}
}

func TestReorderedAtomFaultsOnMMIO(t *testing.T) {
	m, bus := newM(t)
	con := dev.NewConsole()
	bus.MapMMIO(dev.ConsoleMMIOBase, dev.ConsoleMMIOSize, con)
	var regs [guest.NumRegs]uint32
	m.LoadGuest(&regs, guest.FlagsAlways, 0)
	code := &Code{
		NumExits: 1,
		Mols: []Molecule{
			mol(Atom{Op: ALd, Rd: RTempBase, Ra: 63, Imm: dev.ConsoleMMIOBase,
				Size: 4, Reordered: true, ProtIdx: NoAliasIdx, GIdx: 7}),
			exitMol(),
		},
	}
	out := exec(t, m, code)
	if out.Fault != FMMIOSpec || out.GIdx != 7 || out.Addr != dev.ConsoleMMIOBase {
		t.Fatalf("outcome %+v, want mmio-spec fault", out)
	}

	// The same access in order succeeds.
	m.LoadGuest(&regs, guest.FlagsAlways, 0)
	code.Mols[0].Atoms[0].Reordered = false
	if out := exec(t, m, code); out.Fault != FNone {
		t.Fatalf("in-order MMIO load faulted: %+v", out)
	}
}

func TestMMIOStoreGatedUntilCommit(t *testing.T) {
	m, bus := newM(t)
	con := dev.NewConsole()
	bus.MapMMIO(dev.ConsoleMMIOBase, dev.ConsoleMMIOSize, con)
	var regs [guest.NumRegs]uint32
	m.LoadGuest(&regs, guest.FlagsAlways, 0)

	// Store to MMIO then fault: the device must never see the write.
	code := &Code{
		NumExits: 1,
		Mols: []Molecule{
			mol(Atom{Op: AMovI, Rd: RTempBase, Imm: 'X'},
				Atom{Op: AMovI, Rd: RTempBase + 2, Imm: 0}),
			mol(Atom{Op: ASt, Ra: 63, Rb: RTempBase, Imm: dev.ConsoleMMIOBase, Size: 1}),
			mol(Atom{Op: ADivU, Rd: RTempBase, Rd2: RTempBase + 1,
				Ra: RTempBase, Rb: RTempBase + 2, Rc: RTempBase + 2}),
			exitMol(),
		},
	}
	out := exec(t, m, code)
	if out.Fault != FGuest {
		t.Fatalf("%+v", out)
	}
	if con.WriteCount != 0 {
		t.Error("MMIO store leaked past rollback — irrevocable I/O duplicated")
	}

	// Same code without the fault: exactly one device write at commit.
	m.LoadGuest(&regs, guest.FlagsAlways, 0)
	code.Mols[2] = mol()
	if out := exec(t, m, code); out.Fault != FNone {
		t.Fatalf("%+v", out)
	}
	if con.WriteCount != 1 || con.Text()[0] != 'X' {
		t.Errorf("device writes = %d, text[0] = %q", con.WriteCount, con.Text()[0])
	}
}

func TestMMIOLoadOrderingFault(t *testing.T) {
	m, bus := newM(t)
	con := dev.NewConsole()
	bus.MapMMIO(dev.ConsoleMMIOBase, dev.ConsoleMMIOSize, con)
	var regs [guest.NumRegs]uint32
	m.LoadGuest(&regs, guest.FlagsAlways, 0)
	// OUT gated in the buffer, then an in-order MMIO load: must fault with
	// mmio-order (the load would otherwise pass the gated OUT).
	code := &Code{
		NumExits: 1,
		Mols: []Molecule{
			mol(Atom{Op: AOut, Imm: dev.ConsoleDataPort, Rb: RTempBase}),
			mol(Atom{Op: ALd, Rd: RTempBase + 1, Ra: 63, Imm: dev.ConsoleMMIOBase,
				Size: 4, ProtIdx: NoAliasIdx, GIdx: 4}),
			exitMol(),
		},
	}
	out := exec(t, m, code)
	if out.Fault != FMMIOOrder || out.GIdx != 4 {
		t.Fatalf("outcome %+v, want mmio-order", out)
	}
}

func TestProtectionFault(t *testing.T) {
	m, bus := newM(t)
	bus.Protect(9)
	var regs [guest.NumRegs]uint32
	m.LoadGuest(&regs, guest.FlagsAlways, 0)
	code := &Code{
		NumExits: 1,
		Mols: []Molecule{
			mol(Atom{Op: ASt, Ra: 63, Rb: RTempBase, Imm: 9 * mem.PageSize, Size: 4, GIdx: 5}),
			exitMol(),
		},
	}
	out := exec(t, m, code)
	if out.Fault != FProt || out.Addr != 9*mem.PageSize || out.GIdx != 5 {
		t.Fatalf("outcome %+v, want prot fault", out)
	}
}

func TestIRQRollsBack(t *testing.T) {
	m, bus := newM(t)
	irq := &dev.IRQController{}
	m.IRQ = irq
	_ = bus
	var regs [guest.NumRegs]uint32
	m.LoadGuest(&regs, guest.FlagsAlways|guest.FlagIF, 0)
	irq.Raise(dev.IRQTimer)
	code := &Code{NumExits: 1, Mols: []Molecule{exitMol()}}
	out := exec(t, m, code)
	if out.Fault != FIRQ {
		t.Fatalf("outcome %+v, want irq", out)
	}
	// With IF clear the code runs.
	m.LoadGuest(&regs, guest.FlagsAlways, 0)
	if out := exec(t, m, code); out.Fault != FNone {
		t.Fatalf("masked irq still interrupted: %+v", out)
	}
}

func TestLoopWithBrCC(t *testing.T) {
	m, _ := newM(t)
	var regs [guest.NumRegs]uint32
	regs[guest.ECX] = 5
	m.LoadGuest(&regs, guest.FlagsAlways, 0)
	eax, ecx := GuestReg(guest.EAX), GuestReg(guest.ECX)
	code := &Code{
		NumExits: 1,
		Mols: []Molecule{
			mol(Atom{Op: AMovI, Rd: eax, Imm: 0}),
			// loop: eax += ecx; ecx--; brcc ne -> loop
			mol(Atom{Op: AAdd, Rd: eax, Ra: eax, Rb: ecx}),
			mol(Atom{Op: ADecCC, Rd: ecx, Ra: ecx}),
			mol(Atom{Op: ABrCC, Cond: guest.CondNE, Target: 1}),
			exitMol(),
		},
	}
	out := exec(t, m, code)
	if out.Fault != FNone {
		t.Fatalf("%+v", out)
	}
	var flags uint32
	m.StoreGuest(&regs, &flags)
	if regs[guest.EAX] != 15 {
		t.Errorf("sum = %d, want 15", regs[guest.EAX])
	}
	// 1 + 5*(3) + 1 exit... loop body is 3 molecules, last iteration's brcc
	// falls through: 1 + 15 + 1 = 17.
	if m.Mols != 17 {
		t.Errorf("molecules = %d, want 17", m.Mols)
	}
}

func TestIndirectExit(t *testing.T) {
	m, _ := newM(t)
	var regs [guest.NumRegs]uint32
	m.LoadGuest(&regs, guest.FlagsAlways, 0)
	code := &Code{
		NumExits: 1,
		Mols: []Molecule{
			mol(Atom{Op: AMovI, Rd: RTarget, Imm: 0x4242}),
			mol(Atom{Op: AExitInd, Ra: RTarget, Imm: 0, Commit: true}),
		},
	}
	out := exec(t, m, code)
	if out.Fault != FNone || !out.Indirect || out.IndTarget != 0x4242 {
		t.Fatalf("outcome %+v", out)
	}
}

func TestReadBeforeWriteSemantics(t *testing.T) {
	m, _ := newM(t)
	var regs [guest.NumRegs]uint32
	regs[guest.EAX] = 1
	regs[guest.EBX] = 2
	m.LoadGuest(&regs, guest.FlagsAlways, 0)
	eax, ebx := GuestReg(guest.EAX), GuestReg(guest.EBX)
	// Both moves read pre-molecule values: a swap in one molecule.
	code := &Code{
		NumExits: 1,
		Mols: []Molecule{
			mol(Atom{Op: AMov, Rd: eax, Ra: ebx}, Atom{Op: AMov, Rd: ebx, Ra: eax}),
			exitMol(),
		},
	}
	if out := exec(t, m, code); out.Fault != FNone {
		t.Fatalf("%+v", out)
	}
	var flags uint32
	m.StoreGuest(&regs, &flags)
	if regs[guest.EAX] != 2 || regs[guest.EBX] != 1 {
		t.Errorf("swap failed: eax=%d ebx=%d", regs[guest.EAX], regs[guest.EBX])
	}
}

func TestEarlyCommitSerializesIO(t *testing.T) {
	m, bus := newM(t)
	con := dev.NewConsole()
	bus.MapPort(dev.ConsoleDataPort, dev.ConsoleStatusPort, con)
	var regs [guest.NumRegs]uint32
	m.LoadGuest(&regs, guest.FlagsAlways, 0)
	code := &Code{
		NumExits: 1,
		Mols: []Molecule{
			mol(Atom{Op: AMovI, Rd: RTempBase, Imm: 'A'}),
			mol(Atom{Op: AOut, Imm: dev.ConsoleDataPort, Rb: RTempBase}),
			mol(Atom{Op: ACommit}),
			// An IN right after the commit sees no pending I/O.
			mol(Atom{Op: AIn, Rd: GuestReg(guest.EAX), Imm: dev.ConsoleStatusPort}),
			mol(),
			exitMol(),
		},
	}
	out := exec(t, m, code)
	if out.Fault != FNone {
		t.Fatalf("%+v", out)
	}
	if con.OutputString() != "A" {
		t.Errorf("console = %q", con.OutputString())
	}
	var flags uint32
	m.StoreGuest(&regs, &flags)
	if regs[guest.EAX] != 1 {
		t.Errorf("status in = %d", regs[guest.EAX])
	}
	if m.Commits != 2 {
		t.Errorf("commits = %d", m.Commits)
	}
}

func TestValidateRejectsBadCode(t *testing.T) {
	cases := []struct {
		name string
		code Code
	}{
		{"too many atoms", Code{Mols: []Molecule{mol(
			Atom{Op: ANop}, Atom{Op: ANop}, Atom{Op: ANop}, Atom{Op: ANop}, Atom{Op: ANop})}}},
		{"three alu", Code{Mols: []Molecule{mol(
			Atom{Op: AAdd}, Atom{Op: ASub}, Atom{Op: AXor})}}},
		{"two mem", Code{Mols: []Molecule{mol(
			Atom{Op: ALd, Size: 4, ProtIdx: NoAliasIdx}, Atom{Op: ASt, Size: 4})}}},
		{"branch target range", Code{Mols: []Molecule{mol(
			Atom{Op: ABr, Target: 9})}}},
		{"exit range", Code{NumExits: 0, Mols: []Molecule{mol(
			Atom{Op: AExit, Imm: 0})}}},
		{"bad mem size", Code{Mols: []Molecule{mol(
			Atom{Op: ALd, Size: 2, ProtIdx: NoAliasIdx})}}},
		{"load latency violation", Code{NumExits: 1, Mols: []Molecule{
			mol(Atom{Op: ALd, Rd: RTempBase, Ra: 63, Imm: 0x100, Size: 4, ProtIdx: NoAliasIdx}),
			mol(Atom{Op: AAdd, Rd: RTempBase + 1, Ra: RTempBase, Rb: RTempBase}),
			{Atoms: []Atom{{Op: AExit, Commit: true}}},
		}}},
	}
	for _, c := range cases {
		if err := c.code.Validate(); err == nil {
			t.Errorf("%s: Validate accepted bad code", c.name)
		}
	}
}

// TestValidateTimesStubsAfterTheirBranch: latency follows control flow, not
// layout. A stub laid out after the body runs right after its side exit's
// branch: a load the body issues past that branch — even into the register
// the stub repairs from — never delays it, while a result still in flight
// at the branch does.
func TestValidateTimesStubsAfterTheirBranch(t *testing.T) {
	const r = RTempBase
	ld := func(rd HReg) Atom {
		return Atom{Op: ALd, Rd: rd, Ra: RZero, Imm: 0x100, Size: 4, ProtIdx: NoAliasIdx}
	}
	stub := mol(Atom{Op: AMov, Rd: 0, Ra: r}, Atom{Op: AExit, Commit: true})
	afterBranch := &Code{NumExits: 1, Mols: []Molecule{
		mol(Atom{Op: ABrNZ, Ra: r + 1, Target: 3}),
		mol(ld(r)), // reuses r once the side exit is behind
		exitMol(),
		stub, // reads r one molecule after the load in layout, but never after it in time
	}}
	if err := afterBranch.Validate(); err != nil {
		t.Errorf("stub timed in layout order: %v", err)
	}
	inFlight := &Code{NumExits: 1, Mols: []Molecule{
		mol(ld(r), Atom{Op: ABrNZ, Ra: r + 1, Target: 5}),
		mol(Atom{Op: ANop}),
		mol(Atom{Op: ANop}),
		mol(Atom{Op: ANop}),
		exitMol(),
		stub, // the taken branch lands here the next cycle: r is two short of ready
	}}
	if err := inFlight.Validate(); err == nil {
		t.Error("Validate accepted a stub reading a load still in flight at its branch")
	}
}

func TestValidateAcceptsLatencySpacing(t *testing.T) {
	code := &Code{
		NumExits: 1,
		Mols: []Molecule{
			mol(Atom{Op: ALd, Rd: RTempBase, Ra: 63, Imm: 0x100, Size: 4, ProtIdx: NoAliasIdx}),
			mol(Atom{Op: ANop}),
			mol(Atom{Op: ANop}),
			mol(Atom{Op: AAdd, Rd: RTempBase + 1, Ra: RTempBase, Rb: RTempBase}),
			exitMol(),
		},
	}
	if err := code.Validate(); err != nil {
		t.Errorf("Validate rejected good code: %v", err)
	}
}

func TestFallOffCodeIsBadCode(t *testing.T) {
	m, _ := newM(t)
	var regs [guest.NumRegs]uint32
	m.LoadGuest(&regs, guest.FlagsAlways, 0)
	code := &Code{NumExits: 1, Mols: []Molecule{mol(Atom{Op: ANop})}}
	out := m.Exec(code)
	if out.Fault != FBadCode {
		t.Fatalf("outcome %+v", out)
	}
}

func TestNumAtomsAndNames(t *testing.T) {
	code := &Code{Mols: []Molecule{mol(Atom{Op: ANop}, Atom{Op: AAdd}), mol(Atom{Op: ALd, Size: 4})}}
	if code.NumAtoms() != 3 {
		t.Errorf("NumAtoms = %d", code.NumAtoms())
	}
	if ALd.String() != "ld" || UnitOf(ALd) != UnitMem {
		t.Error("atom metadata wrong")
	}
	if UnitOf(AImulCC) != UnitMedia || UnitOf(ABr) != UnitBranch || UnitOf(AAdd) != UnitALU {
		t.Error("unit routing wrong")
	}
	if UnitALU.String() != "alu" || FAlias.String() != "alias" {
		t.Error("string names wrong")
	}
}

func TestDisasm(t *testing.T) {
	code := &Code{
		NumExits: 2,
		Mols: []Molecule{
			mol(Atom{Op: AMovI, Rd: RTempBase, Imm: 7},
				Atom{Op: ALd, Rd: RTempBase + 1, Ra: 3, Imm: 8, Size: 4, Reordered: true, ProtIdx: 2, GIdx: 1}),
			mol(Atom{Op: AAddCC, Rd: 0, Ra: 0, Rb: RTempBase, Fs: 20, Fd: 21}),
			mol(Atom{Op: ASt, Ra: 3, Rb: 0, Imm: 8, Size: 4, CheckMask: 4}),
			mol(Atom{Op: ABrCC, Cond: guest.CondNE, Target: 5, Fs: 21}),
			mol(),
			exitMol(),
		},
	}
	var buf strings.Builder
	Disasm(&buf, code)
	out := buf.String()
	for _, want := range []string{
		"movi r16 = 0x7",
		"ld.4 r17 = [r3+0x8] R p2",
		";g1",
		"add.c r0 = r0, r16 [f20->f21]",
		"st.4 [r3+0x8] = r0",
		"cm=0x4",
		"brcc ne(f21) -> 5",
		"(stall)",
		"exit 0 commit",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("disassembly missing %q in:\n%s", want, out)
		}
	}
}

// Every atom opcode executes against benign operands without panicking or
// corrupting the fault machinery — a sweep that catches machine gaps when
// the atom set grows.
func TestEveryAtomExecutes(t *testing.T) {
	for op := ANop; op <= ACommit; op++ {
		m, bus := newM(t)
		bus.WriteRaw(0x100, []byte{1, 2, 3, 4})
		var regs [guest.NumRegs]uint32
		regs[guest.EAX] = 8
		regs[guest.ECX] = 2
		m.LoadGuest(&regs, guest.FlagsAlways, 0)
		a := Atom{Op: op, Rd: RTempBase, Rd2: RTempBase + 1,
			Ra: GuestReg(guest.EAX), Rb: GuestReg(guest.ECX), Rc: GuestReg(guest.EDX),
			Imm: 0x100, Size: 4, ProtIdx: NoAliasIdx, GIdx: -1}
		switch op {
		case ABr, ABrCC, ABrNZ:
			a.Target = 1
		case AExit, AExitInd:
			a.Imm = 0
		}
		code := &Code{NumExits: 1, Mols: []Molecule{
			{Atoms: []Atom{a}},
			{Atoms: []Atom{{Op: AExit, Commit: true, ProtIdx: NoAliasIdx, GIdx: -1}}},
		}}
		out := m.Exec(code)
		if out.Fault == FBadCode {
			t.Errorf("atom %v: bad-code fault: %v", op, out.Err)
		}
	}
}

// Host generations: the validator accepts TM8000-width molecules only for
// the TM8000 config.
func TestHostConfigValidation(t *testing.T) {
	wide := &Code{NumExits: 1, Mols: []Molecule{
		{Atoms: []Atom{
			{Op: AAdd, Rd: 16}, {Op: AAdd, Rd: 17}, {Op: AAdd, Rd: 18},
			{Op: ASub, Rd: 19}, {Op: ALd, Rd: 20, Ra: 63, Size: 4, ProtIdx: NoAliasIdx},
		}},
		{Atoms: []Atom{{Op: AExit, Commit: true, ProtIdx: NoAliasIdx}}},
	}}
	if err := wide.Validate(); err == nil {
		t.Error("TM5800 must reject a 5-atom molecule")
	}
	if err := wide.ValidateWith(TM8000()); err != nil {
		t.Errorf("TM8000 must accept it: %v", err)
	}
	if TM8000().Latency(ALd) >= TM5800().Latency(ALd) {
		t.Error("TM8000 loads should be faster")
	}
	if TM5800().Name != "TM5800" || TM8000().Width != 8 {
		t.Error("preset metadata wrong")
	}
}
