package risc

import (
	"reflect"
	"testing"

	"cms/internal/guest"
	"cms/internal/mem"
	"cms/internal/vliw"
)

// FuzzRiscLowerRoundtrip synthesizes a well-formed vliw.Code from the fuzz
// input, lowers it, and runs the same initial machine state through all
// three executors — the vliw interpreter, the step-array compiled
// backend, and the risc register IR — demanding identical outcomes,
// architectural state, RAM images, and molecule accounting.
//
// The synthesizer places control atoms last in their molecule, matching
// what the translator emits; a control atom ahead of a flag writer is
// statically legal but has interpreter-vs-specialized divergence that the
// backends deliberately share (molHazard only gates write-then-read), so
// such shapes are out of scope here and covered by the differential oracle
// on real translator output instead. Port I/O is skipped (the bare test bus
// has no port device); MMIO ordering is exercised by the oracle legs.
//
// Translation temporaries (r16..r62) are compared only on clean exits: at a
// fault the three executors may have advanced the non-shadowed file to
// different depths before rolling back, and rollback restores only the
// shadowed registers — the repo-wide tolerated divergence.

const fuzzRAMSize = 1 << 16

// cursor is a wrapping byte reader: short inputs still drive the whole
// synthesizer, and every decision is a pure function of the input.
type cursor struct {
	data []byte
	i    int
	// straight selects the second program shape (the top bit of the first
	// input byte): control atoms are rare, so straight-line runs of four and
	// more molecules are the rule, and every memory atom addresses one small
	// window off RZero, so loads meet buffered stores — exact matches, byte
	// and word partial overlaps, words straddling a word boundary, and pairs
	// 256 bytes apart that share a bit of the store buffer's summary mask.
	straight bool
}

// window is the straight shape's address pool, relative to windowBase.
var window = [...]uint32{0, 1, 2, 3, 4, 5, 7, 8, 0x100, 0x101, 0x104, 0x200}

const windowBase = 0x800

// memOperand picks a memory atom's base register and displacement.
func (c *cursor) memOperand() (vliw.HReg, uint32) {
	if c.straight {
		return vliw.RZero, windowBase + window[int(c.next())%len(window)]
	}
	return c.guestReg(), uint32(c.next()) << 2
}

func (c *cursor) next() byte {
	if len(c.data) == 0 {
		return 0
	}
	b := c.data[c.i%len(c.data)]
	c.i++
	return b
}

func (c *cursor) u32() uint32 {
	return uint32(c.next()) | uint32(c.next())<<8 | uint32(c.next())<<16 | uint32(c.next())<<24
}

// reg picks any register both backends treat uniformly: the 16 shadowed
// slots plus the first 8 temporaries. RZero is excluded (never written by
// translator convention).
func (c *cursor) reg() vliw.HReg { return vliw.HReg(c.next() % 24) }

// guestReg picks a guest GPR; memory atoms use these as bases so that the
// small-value initial registers keep a useful fraction of accesses in RAM.
func (c *cursor) guestReg() vliw.HReg { return vliw.HReg(c.next() % 8) }

// flagReg picks a flag source/destination: the architectural RFlags (the
// zero value) or one of two renamed temporaries, mirroring the translator's
// EFLAGS rename pass.
func (c *cursor) flagReg() vliw.HReg {
	switch c.next() % 3 {
	case 1:
		return 20
	case 2:
		return 21
	}
	return 0
}

func (c *cursor) size() uint8 {
	if c.next()&1 == 0 {
		return 1
	}
	return 4
}

func (c *cursor) synthPlain() vliw.Atom {
	b := c.next()
	gi := int16(c.next() % 32)
	rd, ra, rb := c.reg(), c.reg(), c.reg()
	switch b % 12 {
	case 0:
		return vliw.Atom{Op: vliw.AMovI, Rd: rd, Imm: c.u32(), GIdx: gi}
	case 1:
		return vliw.Atom{Op: vliw.AMov, Rd: rd, Ra: ra, GIdx: gi}
	case 2:
		ops := []vliw.AtomOp{vliw.AAdd, vliw.ASub, vliw.AAnd, vliw.AOr,
			vliw.AXor, vliw.AShl, vliw.AShr, vliw.ASar}
		return vliw.Atom{Op: ops[c.next()%8], Rd: rd, Ra: ra, Rb: rb, GIdx: gi}
	case 3:
		ops := []vliw.AtomOp{vliw.AAddI, vliw.ASubI, vliw.AAndI, vliw.AOrI,
			vliw.AXorI, vliw.AShlI, vliw.AShrI, vliw.ASarI}
		return vliw.Atom{Op: ops[c.next()%8], Rd: rd, Ra: ra, Imm: c.u32(), GIdx: gi}
	case 4:
		ops := []vliw.AtomOp{vliw.AAddCC, vliw.ASubCC, vliw.AAndCC, vliw.AOrCC,
			vliw.AXorCC, vliw.AShlCC, vliw.AShrCC, vliw.ASarCC, vliw.AAdcCC, vliw.ASbbCC}
		return vliw.Atom{Op: ops[c.next()%10], Rd: rd, Ra: ra, Rb: rb,
			Fs: c.flagReg(), Fd: c.flagReg(), GIdx: gi}
	case 5:
		ops := []vliw.AtomOp{vliw.AAddICC, vliw.ASubICC, vliw.AAndICC, vliw.AOrICC,
			vliw.AXorICC, vliw.AShlICC, vliw.AShrICC, vliw.ASarICC, vliw.AAdcICC, vliw.ASbbICC}
		return vliw.Atom{Op: ops[c.next()%10], Rd: rd, Ra: ra, Imm: c.u32(),
			Fs: c.flagReg(), Fd: c.flagReg(), GIdx: gi}
	case 6:
		ops := []vliw.AtomOp{vliw.AIncCC, vliw.ADecCC, vliw.ANegCC}
		return vliw.Atom{Op: ops[c.next()%3], Rd: rd, Ra: ra,
			Fs: c.flagReg(), Fd: c.flagReg(), GIdx: gi}
	case 7:
		if c.next()&1 == 0 {
			return vliw.Atom{Op: vliw.AImulCC, Rd: rd, Ra: ra, Rb: rb,
				Fs: c.flagReg(), Fd: c.flagReg(), GIdx: gi}
		}
		rd2 := c.reg()
		if rd2 == rd {
			rd2 = (rd + 1) % 24
		}
		return vliw.Atom{Op: vliw.AMul64, Rd: rd, Rd2: rd2, Ra: ra, Rb: rb,
			Fs: c.flagReg(), Fd: c.flagReg(), GIdx: gi}
	case 8:
		op := vliw.ADivU
		if c.next()&1 == 0 {
			op = vliw.ADivS
		}
		rd2 := c.reg()
		if rd2 == rd {
			rd2 = (rd + 1) % 24
		}
		return vliw.Atom{Op: op, Rd: rd, Rd2: rd2, Ra: ra, Rb: rb, Rc: c.reg(), GIdx: gi}
	case 9:
		return vliw.Atom{Op: vliw.ASetCC, Rd: rd, Cond: guest.Cond(c.next() % 16),
			Fs: c.flagReg(), GIdx: gi}
	case 10:
		base, disp := c.memOperand()
		a := vliw.Atom{Op: vliw.ALd, Rd: rd, Ra: base, Imm: disp, Size: c.size(), GIdx: gi}
		if c.next()&1 == 0 {
			a.ProtIdx = int8(c.next() % vliw.AliasTableSize)
		} else {
			a.ProtIdx = vliw.NoAliasIdx
		}
		a.Reordered = c.next()&3 == 0
		return a
	default:
		base, disp := c.memOperand()
		a := vliw.Atom{Op: vliw.ASt, Ra: base, Rb: rb, Imm: disp, Size: c.size(), GIdx: gi}
		if c.next()&1 == 0 {
			a.CheckMask = uint64(c.next())
		}
		a.Reordered = c.next()&3 == 0
		return a
	}
}

// synthCtrl builds the molecule's trailing control atom. Branch targets are
// strictly forward (idx+1 .. nm, where nm is the appended terminal exit), so
// every synthesized program terminates.
func (c *cursor) synthCtrl(idx, nm int) vliw.Atom {
	b := c.next()
	gi := int16(c.next() % 32)
	fwd := func() int32 { return int32(idx + 1 + int(c.next())%(nm-idx)) }
	switch b % 6 {
	case 0:
		return vliw.Atom{Op: vliw.ABr, Target: fwd(), GIdx: gi}
	case 1:
		return vliw.Atom{Op: vliw.ABrCC, Target: fwd(),
			Cond: guest.Cond(c.next() % 16), Fs: c.flagReg(), GIdx: gi}
	case 2:
		return vliw.Atom{Op: vliw.ABrNZ, Target: fwd(), Ra: c.reg(), GIdx: gi}
	case 3:
		return vliw.Atom{Op: vliw.ACommit, Imm: c.u32(), GIdx: gi}
	case 4:
		return vliw.Atom{Op: vliw.AExit, Imm: uint32(c.next() % 3),
			Commit: c.next()&1 == 0, GIdx: gi}
	default:
		return vliw.Atom{Op: vliw.AExitInd, Imm: uint32(c.next() % 3),
			Ra: c.reg(), Commit: c.next()&1 == 0, GIdx: gi}
	}
}

func synthCode(c *cursor) *vliw.Code {
	shape := c.next()
	nm := int(shape%8) + 1
	c.straight = shape&0x80 != 0
	mols := make([]vliw.Molecule, 0, nm+1)
	for i := 0; i < nm; i++ {
		var mol vliw.Molecule
		n := int(c.next()%3) + 1
		for a := 0; a < n; a++ {
			mol.Atoms = append(mol.Atoms, c.synthPlain())
		}
		if b := c.next(); b%4 != 3 && (!c.straight || b%8 == 0) {
			mol.Atoms = append(mol.Atoms, c.synthCtrl(i, nm))
		}
		mols = append(mols, mol)
	}
	// Terminal molecule: every fallthrough and every forward branch lands on
	// a committing exit.
	mols = append(mols, vliw.Molecule{Atoms: []vliw.Atom{
		{Op: vliw.AExit, Imm: 0, Commit: true, GIdx: -1},
	}})
	return &vliw.Code{Mols: mols, NumExits: 3}
}

// finalState is everything the executors must agree on.
type finalState struct {
	out       vliw.Outcome
	regs      [vliw.NumHRegs]uint32
	shadow    [vliw.NumShadowed]uint32
	mols      uint64
	commits   uint64
	rollbacks uint64
	ceip      uint32
	ram       string
}

const (
	modeExec = iota
	modeCompiled
	modeRisc
)

// runBackend executes code from a canonical initial state under one of the
// three executors. Optional mods run after LoadGuest and can reach the bus
// through m.Bus (the unit tests use them to map MMIO/port devices and arm
// the IRQ controller).
func runBackend(mode int, code *vliw.Code, regs [guest.NumRegs]uint32, flags uint32, ram []byte, mods ...func(*vliw.Machine)) finalState {
	bus := mem.NewBus(fuzzRAMSize)
	bus.WriteRaw(0, ram)
	m := vliw.NewMachine(bus)
	m.LoadGuest(&regs, flags, 0x100)
	for _, mod := range mods {
		mod(m)
	}

	var out vliw.Outcome
	switch mode {
	case modeExec:
		out = m.Exec(code)
	case modeCompiled:
		out = *m.ExecCompiled(vliw.Compile(code))
	default:
		out = *Exec(m, Lower(code))
	}
	// Err carries human-oriented detail; the scalar fields are the verdict.
	out.Err = nil

	fs := finalState{
		out: out, regs: m.Regs, shadow: m.Shadow,
		mols: m.Mols, commits: m.Commits, rollbacks: m.Rollbacks,
		ceip: m.CommittedEIP, ram: string(bus.ReadRaw(0, fuzzRAMSize)),
	}
	if out.Fault != vliw.FNone {
		// Temporaries are not restored by rollback; blank them at faults.
		for i := vliw.NumShadowed; i < vliw.NumHRegs; i++ {
			fs.regs[i] = 0
		}
	}
	return fs
}

func diffStates(t *testing.T, label string, want, got finalState) {
	t.Helper()
	if want.out != got.out {
		t.Fatalf("%s: outcome mismatch:\nwant %+v\ngot  %+v", label, want.out, got.out)
	}
	if want.regs != got.regs {
		for i := range want.regs {
			if want.regs[i] != got.regs[i] {
				t.Fatalf("%s: r%d: want %#x got %#x", label, i, want.regs[i], got.regs[i])
			}
		}
	}
	if want.shadow != got.shadow {
		t.Fatalf("%s: shadow mismatch:\nwant %#v\ngot  %#v", label, want.shadow, got.shadow)
	}
	if want.mols != got.mols || want.commits != got.commits || want.rollbacks != got.rollbacks {
		t.Fatalf("%s: counters: want mols=%d commits=%d rollbacks=%d, got mols=%d commits=%d rollbacks=%d",
			label, want.mols, want.commits, want.rollbacks, got.mols, got.commits, got.rollbacks)
	}
	if want.ceip != got.ceip {
		t.Fatalf("%s: CommittedEIP: want %#x got %#x", label, want.ceip, got.ceip)
	}
	if want.ram != got.ram {
		for i := 0; i < len(want.ram); i++ {
			if want.ram[i] != got.ram[i] {
				t.Fatalf("%s: ram[%#x]: want %#x got %#x", label, i, want.ram[i], got.ram[i])
			}
		}
	}
}

func FuzzRiscLowerRoundtrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08})
	f.Add([]byte("risc-backend-differential-seed"))
	f.Add([]byte{0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, 0x99, 0x88, 0x77, 0x66,
		0x55, 0x44, 0x33, 0x22, 0x11, 0x00})
	f.Add([]byte{7, 4, 200, 13, 13, 13, 8, 8, 8, 8, 250, 1, 0, 0, 0, 0, 0,
		42, 42, 42, 9, 9, 9, 31, 64, 128, 192, 255})
	f.Add([]byte{8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8})
	// The straight shape, memory-heavy: plain-atom selectors 10 and 11 are
	// the load and the store.
	for seed := byte(0); seed < 24; seed++ {
		data := []byte{0x87 + seed%8*8}
		for i := byte(0); i < 61; i++ {
			data = append(data, 10+(i*7+seed*13)%2, seed*31+i*17, i+seed)
		}
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		c := &cursor{data: data}
		code := synthCode(c)

		lowered := Lower(code)
		if !reflect.DeepEqual(lowered, Lower(code)) {
			t.Fatal("Lower is nondeterministic")
		}
		if lowered.Specialized()+lowered.Exact() != len(code.Mols) {
			t.Fatalf("lowering lost molecules: %d specialized + %d exact != %d",
				lowered.Specialized(), lowered.Exact(), len(code.Mols))
		}

		var regs [guest.NumRegs]uint32
		for i := range regs {
			v := c.u32()
			if i%2 == 0 {
				// Small values keep a useful fraction of Ld/St in RAM.
				v &= 0x3fff
			}
			regs[i] = v
		}
		flags := c.u32()
		ram := make([]byte, 4096)
		salt := c.next()
		for i := range ram {
			ram[i] = byte(i*7) + salt
		}

		interp := runBackend(modeExec, code, regs, flags, ram)
		compiled := runBackend(modeCompiled, code, regs, flags, ram)
		riscv := runBackend(modeRisc, code, regs, flags, ram)

		diffStates(t, "compiled vs interp", interp, compiled)
		diffStates(t, "risc vs interp", interp, riscv)
		diffStates(t, "risc vs compiled", compiled, riscv)
	})
}
