package risc

import (
	"testing"

	"cms/internal/dev"
	"cms/internal/guest"
	"cms/internal/vliw"
)

// The unit tests drive hand-built vliw codes through all three executors —
// the vliw interpreter, the step-array compiled backend, and the risc
// register IR — and demand identical final states via the differential
// harness the fuzz target shares. Shapes are chosen to pin every lowering
// case and every executor branch: the full ALU and flag-ALU matrices, lazy
// materialization through commits, exits, and renamed-image consumers, the
// memory fast and slow paths with alias and MMIO faults, port I/O ordering,
// the IRQ window, and the exact-molecule fallback.

func mol(atoms ...vliw.Atom) vliw.Molecule { return vliw.Molecule{Atoms: atoms} }

func exitMol() vliw.Molecule {
	return mol(vliw.Atom{Op: vliw.AExit, Commit: true, GIdx: -1})
}

func code(mols ...vliw.Molecule) *vliw.Code {
	return &vliw.Code{Mols: mols, NumExits: 3}
}

// checkAll runs code under all three executors from a canonical state and
// fails on any divergence.
func checkAll(t *testing.T, name string, c *vliw.Code, mods ...func(*vliw.Machine)) (interp, compiled, riscv finalState) {
	t.Helper()
	var regs [guest.NumRegs]uint32
	for i := range regs {
		regs[i] = uint32(0x100 + i*0x111)
	}
	flags := uint32(guest.FlagIF | guest.FlagCF)
	ram := make([]byte, 4096)
	for i := range ram {
		ram[i] = byte(i * 13)
	}
	interp = runBackend(modeExec, c, regs, flags, ram, mods...)
	compiled = runBackend(modeCompiled, c, regs, flags, ram, mods...)
	riscv = runBackend(modeRisc, c, regs, flags, ram, mods...)
	diffStates(t, name+": compiled vs interp", interp, compiled)
	diffStates(t, name+": risc vs interp", interp, riscv)
	return
}

func TestLowerNil(t *testing.T) {
	if Lower(nil) != nil {
		t.Fatal("Lower(nil) != nil")
	}
}

func TestLowerCounters(t *testing.T) {
	c := code(
		mol(vliw.Atom{Op: vliw.AMovI, Rd: 16, Imm: 7}),
		// Write-then-read hazard: specialization must refuse it.
		mol(vliw.Atom{Op: vliw.AMovI, Rd: 17, Imm: 1},
			vliw.Atom{Op: vliw.AMov, Rd: 18, Ra: 17}),
		exitMol(),
	)
	lc := Lower(c)
	if lc.Specialized() != 2 || lc.Exact() != 1 {
		t.Fatalf("specialized=%d exact=%d, want 2/1", lc.Specialized(), lc.Exact())
	}
	if lc.Len() != 3 {
		t.Fatalf("Len=%d, want 3", lc.Len())
	}
	checkAll(t, "hazard-exact", c)
}

// TestAluMatrix covers every plain ALU lowering, register and immediate
// forms, plus the data movers.
func TestAluMatrix(t *testing.T) {
	ops := []vliw.AtomOp{
		vliw.AMovI, vliw.AMov,
		vliw.AAdd, vliw.AAddI, vliw.ASub, vliw.ASubI,
		vliw.AAnd, vliw.AAndI, vliw.AOr, vliw.AOrI,
		vliw.AXor, vliw.AXorI, vliw.AShl, vliw.AShlI,
		vliw.AShr, vliw.AShrI, vliw.ASar, vliw.ASarI,
	}
	for _, op := range ops {
		a := vliw.Atom{Op: op, Rd: 16, Ra: 1, Rb: 2, Imm: 0x21}
		checkAll(t, op.String(), code(mol(a), exitMol()))
	}
}

// TestFlagMatrix covers every flag-computing ALU lowering and — in the risc
// backend — every materializer kind, through three consumption paths:
// commit at exit (materializeAll), a renamed image read back by SetCC
// (image), and a renamed image feeding a conditional branch.
func TestFlagMatrix(t *testing.T) {
	ops := []vliw.AtomOp{
		vliw.AAddCC, vliw.AAddICC, vliw.ASubCC, vliw.ASubICC,
		vliw.AAndCC, vliw.AAndICC, vliw.AOrCC, vliw.AOrICC,
		vliw.AXorCC, vliw.AXorICC, vliw.AShlCC, vliw.AShlICC,
		vliw.AShrCC, vliw.AShrICC, vliw.ASarCC, vliw.ASarICC,
		vliw.AIncCC, vliw.ADecCC, vliw.ANegCC,
		vliw.AAdcCC, vliw.AAdcICC, vliw.ASbbCC, vliw.ASbbICC,
		vliw.AImulCC, vliw.AMul64,
	}
	for _, op := range ops {
		arch := vliw.Atom{Op: op, Rd: 16, Rd2: 17, Ra: 1, Rb: 2, Imm: 0x3}
		checkAll(t, op.String()+"/arch", code(mol(arch), exitMol()))

		// Renamed flag image consumed by SetCC and a branch.
		ren := arch
		ren.Fd = 20
		c := code(
			mol(ren),
			mol(vliw.Atom{Op: vliw.ASetCC, Rd: 18, Cond: guest.CondB, Fs: 20},
				vliw.Atom{Op: vliw.ABrCC, Target: 3, Cond: guest.CondNE, Fs: 20}),
			mol(vliw.Atom{Op: vliw.AMovI, Rd: 3, Imm: 0xAA}),
			exitMol(),
		)
		checkAll(t, op.String()+"/renamed", c)
	}
}

// TestShiftByZero pins the shift-count-zero flag semantics (flags pass
// through unchanged) across the lazy materializer.
func TestShiftByZero(t *testing.T) {
	for _, op := range []vliw.AtomOp{vliw.AShlICC, vliw.AShrICC, vliw.ASarICC} {
		a := vliw.Atom{Op: op, Rd: 16, Ra: 1, Imm: 0}
		checkAll(t, op.String()+"/sh0", code(mol(a), exitMol()))
	}
}

func TestDiv(t *testing.T) {
	for _, op := range []vliw.AtomOp{vliw.ADivU, vliw.ADivS} {
		ok := code(
			mol(vliw.Atom{Op: vliw.AMovI, Rd: 16, Imm: 0}),
			mol(vliw.Atom{Op: op, Rd: 17, Rd2: 18, Ra: 1, Rb: 2, Rc: 16, GIdx: 5}),
			exitMol(),
		)
		checkAll(t, op.String()+"/ok", ok)

		de := code(
			mol(vliw.Atom{Op: vliw.AMovI, Rd: 16, Imm: 0}),
			mol(vliw.Atom{Op: op, Rd: 17, Rd2: 18, Ra: 1, Rb: 16, Rc: 16, GIdx: 5}),
			exitMol(),
		)
		interp, _, _ := checkAll(t, op.String()+"/de", de)
		if interp.out.Fault != vliw.FGuest || interp.out.GuestVec != guest.VecDE {
			t.Fatalf("%s: want #DE, got %+v", op, interp.out)
		}
	}
}

func TestMemoryFastAndFaulting(t *testing.T) {
	for _, size := range []uint8{1, 4} {
		c := code(
			mol(vliw.Atom{Op: vliw.ALd, Rd: 16, Ra: 1, Imm: 0x40, Size: size, ProtIdx: vliw.NoAliasIdx}),
			mol(vliw.Atom{Op: vliw.ASt, Ra: 1, Rb: 16, Imm: 0x80, Size: size}),
			exitMol(),
		)
		checkAll(t, "mem/fast", c)
	}

	// Out-of-range access: guest fault, identical vector and address.
	bad := code(
		mol(vliw.Atom{Op: vliw.AMovI, Rd: 16, Imm: 0xFFFF_0000}),
		mol(vliw.Atom{Op: vliw.ALd, Rd: 17, Ra: 16, Size: 4, ProtIdx: vliw.NoAliasIdx, GIdx: 7}),
		exitMol(),
	)
	interp, _, _ := checkAll(t, "mem/fault-ld", bad)
	if interp.out.Fault != vliw.FGuest {
		t.Fatalf("want FGuest, got %+v", interp.out)
	}
	badSt := code(
		mol(vliw.Atom{Op: vliw.AMovI, Rd: 16, Imm: 0xFFFF_0000}),
		mol(vliw.Atom{Op: vliw.ASt, Ra: 16, Rb: 1, Size: 1, GIdx: 7}),
		exitMol(),
	)
	interp, _, _ = checkAll(t, "mem/fault-st", badSt)
	if interp.out.Fault != vliw.FGuest {
		t.Fatalf("want FGuest, got %+v", interp.out)
	}
}

func TestAliasFault(t *testing.T) {
	// The load protects its range through alias entry 2; the store (same
	// address, mask covering entry 2) must raise FAlias everywhere.
	c := code(
		mol(vliw.Atom{Op: vliw.ALd, Rd: 16, Ra: 1, Imm: 0x40, Size: 4, ProtIdx: 2}),
		mol(vliw.Atom{Op: vliw.ASt, Ra: 1, Rb: 2, Imm: 0x40, Size: 4, CheckMask: 1 << 2, GIdx: 9}),
		exitMol(),
	)
	interp, _, _ := checkAll(t, "alias/conflict", c)
	if interp.out.Fault != vliw.FAlias {
		t.Fatalf("want FAlias, got %+v", interp.out)
	}

	// Disjoint ranges: the checked store proceeds.
	clean := code(
		mol(vliw.Atom{Op: vliw.ALd, Rd: 16, Ra: 1, Imm: 0x40, Size: 4, ProtIdx: 2}),
		mol(vliw.Atom{Op: vliw.ASt, Ra: 1, Rb: 2, Imm: 0x400, Size: 4, CheckMask: 1 << 2}),
		exitMol(),
	)
	interp, _, _ = checkAll(t, "alias/clean", clean)
	if interp.out.Fault != vliw.FNone {
		t.Fatalf("want clean exit, got %+v", interp.out)
	}
}

type testMMIO struct{ last uint32 }

func (d *testMMIO) MMIORead(addr uint32, size int) uint32     { return 0xC0DE_0000 | addr }
func (d *testMMIO) MMIOWrite(addr uint32, size int, v uint32) { d.last = v }

func TestMMIO(t *testing.T) {
	const mmioBase = 0xF000
	var devs []*testMMIO
	mapDev := func(m *vliw.Machine) {
		d := &testMMIO{}
		devs = append(devs, d)
		m.Bus.MapMMIO(mmioBase, 0x1000, d)
	}
	base := vliw.Atom{Op: vliw.AMovI, Rd: 16, Imm: mmioBase}

	// In-order MMIO load and store.
	c := code(
		mol(base),
		mol(vliw.Atom{Op: vliw.ALd, Rd: 17, Ra: 16, Imm: 8, Size: 4, ProtIdx: vliw.NoAliasIdx}),
		mol(vliw.Atom{Op: vliw.ASt, Ra: 16, Rb: 1, Imm: 4, Size: 4}),
		exitMol(),
	)
	devs = nil
	interp, _, _ := checkAll(t, "mmio/inorder", c, mapDev)
	if interp.out.Fault != vliw.FNone {
		t.Fatalf("want clean exit, got %+v", interp.out)
	}
	for _, d := range devs[1:] {
		if d.last != devs[0].last {
			t.Fatalf("device writes diverge: %#x vs %#x", devs[0].last, d.last)
		}
	}
	if devs[0].last == 0 {
		t.Fatal("gated MMIO store never reached the device")
	}

	// A reordered access touching MMIO faults (§3.4).
	for _, a := range []vliw.Atom{
		{Op: vliw.ALd, Rd: 17, Ra: 16, Size: 4, Reordered: true, ProtIdx: vliw.NoAliasIdx, GIdx: 3},
		{Op: vliw.ASt, Ra: 16, Rb: 1, Size: 4, Reordered: true, GIdx: 3},
	} {
		interp, _, _ = checkAll(t, "mmio/reordered", code(mol(base), mol(a), exitMol()), mapDev)
		if interp.out.Fault != vliw.FMMIOSpec {
			t.Fatalf("want FMMIOSpec, got %+v", interp.out)
		}
	}

	// An MMIO read behind a pending gated MMIO store must serialize.
	pend := code(
		mol(base),
		mol(vliw.Atom{Op: vliw.ASt, Ra: 16, Rb: 2, Imm: 0x40, Size: 4},
			vliw.Atom{Op: vliw.ALd, Rd: 17, Ra: 16, Size: 4, ProtIdx: vliw.NoAliasIdx, GIdx: 4}),
		exitMol(),
	)
	interp, _, _ = checkAll(t, "mmio/pending", pend, mapDev)
	if interp.out.Fault != vliw.FMMIOOrder {
		t.Fatalf("want FMMIOOrder, got %+v", interp.out)
	}
}

type testPort struct{ last uint32 }

func (d *testPort) PortRead(port uint16) uint32     { return 0xAB00 | uint32(port) }
func (d *testPort) PortWrite(port uint16, v uint32) { d.last = v }

func TestPortIO(t *testing.T) {
	var devs []*testPort
	mapDev := func(m *vliw.Machine) {
		d := &testPort{}
		devs = append(devs, d)
		m.Bus.MapPort(0, 0xFF, d)
	}

	devs = nil
	c := code(
		mol(vliw.Atom{Op: vliw.AIn, Rd: 16, Imm: 0x42}),
		mol(vliw.Atom{Op: vliw.AOut, Rb: 1, Imm: 0x43}),
		exitMol(),
	)
	interp, _, _ := checkAll(t, "port/inout", c, mapDev)
	if interp.out.Fault != vliw.FNone {
		t.Fatalf("want clean exit, got %+v", interp.out)
	}
	for _, d := range devs[1:] {
		if d.last != devs[0].last {
			t.Fatalf("port writes diverge: %#x vs %#x", devs[0].last, d.last)
		}
	}

	// AIn behind a pending gated OUT serializes, like MMIO reads.
	pend := code(
		mol(vliw.Atom{Op: vliw.AOut, Rb: 2, Imm: 0x41},
			vliw.Atom{Op: vliw.AIn, Rd: 16, Imm: 0x42, GIdx: 6}),
		exitMol(),
	)
	interp, _, _ = checkAll(t, "port/pending", pend, mapDev)
	if interp.out.Fault != vliw.FMMIOOrder {
		t.Fatalf("want FMMIOOrder, got %+v", interp.out)
	}
}

func TestControlFlow(t *testing.T) {
	// Unconditional and conditional branches, architectural and renamed
	// images, taken and fallthrough.
	c := code(
		mol(vliw.Atom{Op: vliw.AAddCC, Rd: 16, Ra: 1, Rb: 2, Fd: 20},
			vliw.Atom{Op: vliw.ABrCC, Target: 2, Cond: guest.CondO, Fs: 20}),
		mol(vliw.Atom{Op: vliw.AMovI, Rd: 3, Imm: 1}, vliw.Atom{Op: vliw.ABr, Target: 3}),
		mol(vliw.Atom{Op: vliw.AMovI, Rd: 3, Imm: 2}),
		mol(vliw.Atom{Op: vliw.AMovI, Rd: 16, Imm: 0},
			vliw.Atom{Op: vliw.ABrNZ, Target: 5, Ra: 1}),
		mol(vliw.Atom{Op: vliw.AMovI, Rd: 4, Imm: 9}),
		mol(vliw.Atom{Op: vliw.ABrCC, Target: 7, Cond: guest.CondB}), // architectural CF set
		mol(vliw.Atom{Op: vliw.AMovI, Rd: 5, Imm: 7}),
		exitMol(),
	)
	checkAll(t, "ctrl/branches", c)

	// ABrNZ not taken.
	nz := code(
		mol(vliw.Atom{Op: vliw.AMovI, Rd: 16, Imm: 0}),
		mol(vliw.Atom{Op: vliw.ABrNZ, Target: 3, Ra: 16}),
		mol(vliw.Atom{Op: vliw.AMovI, Rd: 3, Imm: 5}),
		exitMol(),
	)
	checkAll(t, "ctrl/brnz-fall", nz)
}

func TestExits(t *testing.T) {
	// Exit without commit: working state beyond the last commit is
	// materialized but not promoted.
	nc := code(
		mol(vliw.Atom{Op: vliw.AAddCC, Rd: 0, Ra: 1, Rb: 2}),
		mol(vliw.Atom{Op: vliw.AExit, Imm: 1}),
	)
	interp, _, _ := checkAll(t, "exit/nocommit", nc)
	if interp.out.Exit != 1 || interp.commits != 0 {
		t.Fatalf("want uncommitted exit 1, got %+v commits=%d", interp.out, interp.commits)
	}

	// Indirect exit: target register read before the commit.
	ind := code(
		mol(vliw.Atom{Op: vliw.AMovI, Rd: vliw.RTarget, Imm: 0x1234}),
		mol(vliw.Atom{Op: vliw.AExitInd, Imm: 2, Ra: vliw.RTarget, Commit: true}),
	)
	interp, _, _ = checkAll(t, "exit/indirect", ind)
	if !interp.out.Indirect || interp.out.IndTarget != 0x1234 || interp.out.Exit != 2 {
		t.Fatalf("want indirect exit to 0x1234, got %+v", interp.out)
	}

	// Mid-code commit (store-only molecule, commit-safe specialization)
	// updates CommittedEIP and drains the gated buffer.
	mid := code(
		mol(vliw.Atom{Op: vliw.ASt, Ra: 1, Rb: 2, Imm: 0x40, Size: 4},
			vliw.Atom{Op: vliw.ACommit, Imm: 0x777}),
		mol(vliw.Atom{Op: vliw.AMovI, Rd: 0, Imm: 3}),
		exitMol(),
	)
	interp, _, _ = checkAll(t, "exit/midcommit", mid)
	if interp.commits != 2 {
		t.Fatalf("want 2 commits, got %d", interp.commits)
	}

	// Commit-unsafe ACommit molecule (an ALU atom rides along): exact path.
	unsafe := code(
		mol(vliw.Atom{Op: vliw.AMovI, Rd: 16, Imm: 1},
			vliw.Atom{Op: vliw.ACommit, Imm: 0x778}),
		exitMol(),
	)
	if lc := Lower(unsafe); lc.Exact() != 1 {
		t.Fatalf("commit-unsafe molecule should lower exact, got %d", lc.Exact())
	}
	checkAll(t, "exit/midcommit-exact", unsafe)
}

func TestBadPC(t *testing.T) {
	// Control falls off the end: FBadCode after rollback, identically.
	c := code(mol(vliw.Atom{Op: vliw.AMovI, Rd: 16, Imm: 1}))
	interp, _, _ := checkAll(t, "badpc", c)
	if interp.out.Fault != vliw.FBadCode || interp.rollbacks != 1 {
		t.Fatalf("want FBadCode with one rollback, got %+v rollbacks=%d", interp.out, interp.rollbacks)
	}
}

func TestExactMolecules(t *testing.T) {
	// Two control atoms in one molecule: never specialized, still equal.
	c := code(
		mol(vliw.Atom{Op: vliw.ABr, Target: 1},
			vliw.Atom{Op: vliw.AExit, Imm: 1}),
		exitMol(),
	)
	if lc := Lower(c); lc.Exact() != 1 {
		t.Fatalf("two-control molecule should lower exact, got %d", lc.Exact())
	}
	checkAll(t, "exact/twoctrl", c)

	// Nops vanish from lowered blocks.
	n := code(
		mol(vliw.Atom{Op: vliw.ANop}, vliw.Atom{Op: vliw.AMovI, Rd: 16, Imm: 2}),
		exitMol(),
	)
	lc := Lower(n)
	if len(lc.Blocks[0].Insns) != 1 { // just the movi; fallthrough is implicit
		t.Fatalf("nop survived lowering: %d insns", len(lc.Blocks[0].Insns))
	}
	checkAll(t, "exact/nop", n)
}

func TestIRQWindow(t *testing.T) {
	irq := func(m *vliw.Machine) {
		c := &dev.IRQController{}
		c.Raise(3)
		m.IRQ = c
	}
	c := code(mol(vliw.Atom{Op: vliw.AMovI, Rd: 0, Imm: 1}), exitMol())
	interp, _, _ := checkAll(t, "irq", c, irq)
	if interp.out.Fault != vliw.FIRQ {
		t.Fatalf("want FIRQ, got %+v", interp.out)
	}
}

// TestWrongCarryHook proves the planted-bug hook changes only the
// materialized flag image, not the data result — exactly the bug class the
// oracle's mutation test demands the ninth leg catch.
func TestWrongCarryHook(t *testing.T) {
	TestWrongCarry = true
	defer func() { TestWrongCarry = false }()

	c := code(
		mol(vliw.Atom{Op: vliw.AAdcCC, Rd: 16, Ra: 1, Rb: 2}),
		exitMol(),
	)
	var regs [guest.NumRegs]uint32
	for i := range regs {
		regs[i] = uint32(0x100 + i)
	}
	ram := make([]byte, 64)
	compiled := runBackend(modeCompiled, c, regs, guest.FlagCF, ram)
	riscv := runBackend(modeRisc, c, regs, guest.FlagCF, ram)
	if riscv.shadow[vliw.RFlags] == compiled.shadow[vliw.RFlags] {
		t.Fatal("wrong-carry hook did not perturb the materialized flags")
	}
	if riscv.regs[16] != compiled.regs[16] {
		t.Fatal("wrong-carry hook leaked into the data result")
	}

	TestWrongCarry = false
	riscv = runBackend(modeRisc, c, regs, guest.FlagCF, ram)
	if riscv.shadow != compiled.shadow {
		t.Fatal("hook off: risc still diverges")
	}
	TestWrongCarry = true
}
