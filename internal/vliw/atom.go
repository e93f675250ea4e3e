// Package vliw models the Crusoe-like native VLIW host: its instruction set
// (molecules of RISC-like atoms), its register file with shadowed guest
// state, and the speculation hardware the paper's recovery model rests on —
// commit and rollback (§3.1), the gated store buffer, the alias table
// (§3.5), the reordered-access attribute that faults on memory-mapped I/O
// (§3.4), and write-protection faults for translation consistency (§3.6).
//
// The machine counts dynamic molecules, the metric the paper's own simulator
// reports ("accurate dynamic molecule counts but not cycle accuracy").
package vliw

import (
	"fmt"

	"cms/internal/guest"
)

// HReg is a host register number. The file has 64 general registers; the
// low 16 are shadowed (working + shadow copy) and hold guest architectural
// state plus CMS-reserved slots, leaving r16..r63 as translation temporaries
// that never survive a commit boundary.
type HReg uint8

const (
	// NumHRegs is the host register file size.
	NumHRegs = 64
	// NumShadowed is how many low registers have shadow copies.
	NumShadowed = 16

	// RGuestBase..RGuestBase+7 hold the working copies of the eight guest
	// GPRs, in guest.Reg order.
	RGuestBase HReg = 0
	// RFlags holds the working guest EFLAGS image.
	RFlags HReg = 8
	// RTarget holds the guest EIP target of an indirect exit.
	RTarget HReg = 9
	// RScratch0 and up are CMS-reserved shadowed scratch registers.
	RScratch0 HReg = 10

	// RTempBase is the first non-shadowed temporary.
	RTempBase HReg = 16
	// RTempLast is the last register the translator may allocate.
	RTempLast HReg = 62
	// RZero is by convention always zero: the translator never allocates or
	// writes it, and LoadGuest clears it. It serves as the base register of
	// absolute-address memory atoms.
	RZero HReg = 63
)

// GuestReg returns the host register pinned to guest register r.
func GuestReg(r guest.Reg) HReg { return RGuestBase + HReg(r) }

// AtomOp enumerates host atom opcodes.
type AtomOp uint8

const (
	ANop AtomOp = iota

	// Data movement.
	AMovI // Rd = Imm
	AMov  // Rd = Ra

	// Plain ALU, register and immediate forms: Rd = Ra <op> (Rb | Imm).
	AAdd
	AAddI
	ASub
	ASubI
	AAnd
	AAndI
	AOr
	AOrI
	AXor
	AXorI
	AShl
	AShlI
	AShr
	AShrI
	ASar
	ASarI

	// Flag-computing ALU: as above but also writing guest EFLAGS into
	// RFlags with exact g86 semantics (the x86-support atoms the paper says
	// were added to the TM5000 family). Ra/Rb/Imm as the plain forms.
	AAddCC
	AAddICC
	ASubCC
	ASubICC
	AAndCC
	AAndICC
	AOrCC
	AOrICC
	AXorCC
	AXorICC
	AShlCC
	AShlICC
	AShrCC
	AShrICC
	ASarCC
	ASarICC
	AIncCC // Rd = Ra+1, CF preserved
	ADecCC
	ANegCC
	AAdcCC  // Rd = Ra+Rb+CF
	AAdcICC // Rd = Ra+Imm+CF
	ASbbCC  // Rd = Ra-Rb-CF
	ASbbICC // Rd = Ra-Imm-CF

	// Media-unit arithmetic: multiplies and divides.
	AImulCC // Rd = low32(Ra*Rb) signed, flags per g86 IMUL
	AMul64  // Rd = low32(Ra*Rb) unsigned, Rd2 = high32, flags per g86 MUL
	ADivU   // Rd = (Rb2:Ra)/Rb quotient, Rd2 = remainder; guest #DE on failure (Rb2 is Rc)
	ADivS   // signed form

	// SetCC: Rd = 1 if Cond holds in RFlags else 0.
	ASetCC

	// Memory. Address is Ra+Imm; Size is 1 or 4.
	ALd // Rd = mem[Ra+Imm]
	ASt // mem[Ra+Imm] = Rb

	// Port I/O. AIn reads the device immediately (the translator serializes
	// it); AOut enters the gated store buffer and reaches the device at
	// commit, in program order.
	AIn  // Rd = port[Imm]
	AOut // port[Imm] = Rb

	// Control flow within the translation. Target is a molecule index.
	ABr   // unconditional
	ABrCC // taken if Cond holds in RFlags
	ABrNZ // taken if Ra != 0 (used by self-checking translations, §3.6.3)

	// Translation exits. Exit carries the exit index in Imm; a commit is
	// performed first when Commit is set (the normal case). AExitInd takes
	// its guest target from Ra (conventionally RTarget).
	AExit
	AExitInd

	// ACommit performs a commit without leaving the translation (used to
	// serialize irrevocable I/O mid-translation).
	ACommit
)

var atomNames = map[AtomOp]string{
	ANop: "nop", AMovI: "movi", AMov: "mov",
	AAdd: "add", AAddI: "addi", ASub: "sub", ASubI: "subi",
	AAnd: "and", AAndI: "andi", AOr: "or", AOrI: "ori",
	AXor: "xor", AXorI: "xori", AShl: "shl", AShlI: "shli",
	AShr: "shr", AShrI: "shri", ASar: "sar", ASarI: "sari",
	AAddCC: "add.c", AAddICC: "addi.c", ASubCC: "sub.c", ASubICC: "subi.c",
	AAndCC: "and.c", AAndICC: "andi.c", AOrCC: "or.c", AOrICC: "ori.c",
	AXorCC: "xor.c", AXorICC: "xori.c", AShlCC: "shl.c", AShlICC: "shli.c",
	AShrCC: "shr.c", AShrICC: "shri.c", ASarCC: "sar.c", ASarICC: "sari.c",
	AIncCC: "inc.c", ADecCC: "dec.c", ANegCC: "neg.c",
	AAdcCC: "adc.c", AAdcICC: "adci.c", ASbbCC: "sbb.c", ASbbICC: "sbbi.c",
	AImulCC: "imul.c", AMul64: "mul64", ADivU: "divu", ADivS: "divs",
	ASetCC: "setcc", ALd: "ld", ASt: "st", AIn: "in", AOut: "out",
	ABr: "br", ABrCC: "brcc", ABrNZ: "brnz", AExit: "exit", AExitInd: "exit.ind", ACommit: "commit",
}

// String returns the atom opcode mnemonic.
func (op AtomOp) String() string {
	if n, ok := atomNames[op]; ok {
		return n
	}
	return fmt.Sprintf("atom?%d", uint8(op))
}

// Unit is a functional-unit class of the host pipeline.
type Unit uint8

// The TM5800's functional units: two ALUs, one memory unit, one
// floating-point/media unit (multiplies and divides issue here), and one
// branch unit.
const (
	UnitALU Unit = iota
	UnitMem
	UnitMedia
	UnitBranch
)

var unitNames = [...]string{"alu", "mem", "media", "branch"}

// String returns the unit name.
func (u Unit) String() string { return unitNames[u] }

// UnitOf returns the functional unit that executes op.
func UnitOf(op AtomOp) Unit {
	switch op {
	case ALd, ASt, AIn, AOut:
		return UnitMem
	case AImulCC, AMul64, ADivU, ADivS:
		return UnitMedia
	case ABr, ABrCC, ABrNZ, AExit, AExitInd, ACommit:
		return UnitBranch
	default:
		return UnitALU
	}
}

// HostConfig describes a host microarchitecture generation. The paper's
// point about co-design is that these can change freely between generations
// — "future generations of the hardware can change operation latencies, or
// other aspects of the native ISA or microarchitecture, without affecting
// the visible x86 architecture" — because only CMS needs to know.
type HostConfig struct {
	Name string
	// Width is the maximum atoms issued per molecule.
	Width int
	// Unit capacities per molecule.
	ALUs, MemUnits, MediaUnits, BranchUnits int
	// LoadLatency is the cache-hit load-to-use latency in molecules.
	LoadLatency int
	// MulLatency and DivLatency are the media-unit latencies.
	MulLatency, DivLatency int
}

// TM5800 is the paper's processor: molecules of 2 or 4 atoms over two ALUs,
// a memory unit, a floating-point/media unit, and a branch unit.
func TM5800() HostConfig {
	return HostConfig{
		Name: "TM5800", Width: 4,
		ALUs: 2, MemUnits: 1, MediaUnits: 1, BranchUnits: 1,
		LoadLatency: 3, MulLatency: 2, DivLatency: 4,
	}
}

// TM8000 models the next generation the paper announces ("a complete
// re-design of the instruction formats; this will all be invisible to x86
// code"): a wider machine in the shape of the later Efficeon.
func TM8000() HostConfig {
	return HostConfig{
		Name: "TM8000", Width: 8,
		ALUs: 4, MemUnits: 2, MediaUnits: 2, BranchUnits: 1,
		LoadLatency: 2, MulLatency: 2, DivLatency: 4,
	}
}

// Latency returns the result latency of op under the host configuration.
func (h HostConfig) Latency(op AtomOp) int {
	switch op {
	case ALd, AIn:
		return h.LoadLatency
	case AImulCC, AMul64:
		return h.MulLatency
	case ADivU, ADivS:
		return h.DivLatency
	default:
		return 1
	}
}

// Latency returns the TM5800 latency of op (the default host).
func Latency(op AtomOp) int { return TM5800().Latency(op) }

// FlagSrc returns the effective flag-source register of an atom.
func FlagSrc(a Atom) HReg {
	if a.Fs == 0 {
		return RFlags
	}
	return a.Fs
}

// FlagDst returns the effective flag-destination register of an atom.
func FlagDst(a Atom) HReg {
	if a.Fd == 0 {
		return RFlags
	}
	return a.Fd
}

// NoAliasIdx marks a load that allocates no alias-table entry.
const NoAliasIdx = -1

// Atom is one RISC-like host operation.
type Atom struct {
	Op   AtomOp
	Rd   HReg
	Rd2  HReg // second destination (AMul64, ADiv*)
	Ra   HReg
	Rb   HReg
	Rc   HReg // third source (ADiv* high word)
	Imm  uint32
	Cond guest.Cond // ABrCC, ASetCC

	// Fs and Fd are the flag source and destination registers of
	// flag-computing and flag-consuming atoms. The zero value means the
	// architectural RFlags: translations that rename the guest EFLAGS (see
	// the translator's rename pass) point these at temporaries instead,
	// which is what lets carry chains and branch conditions schedule as
	// freely as renamed data.
	Fs HReg
	Fd HReg

	// Size is the access width of ALd/ASt (1 or 4).
	Size uint8

	// Reordered marks a memory atom that has been moved with respect to the
	// original guest program order. The hardware faults if such an access
	// touches an MMIO page (§3.4).
	Reordered bool

	// ProtIdx, if not NoAliasIdx, is the alias-table entry this load
	// allocates, protecting its address range (§3.5).
	ProtIdx int8

	// CheckMask is the set of alias-table entries this store must be
	// checked against; an overlap raises an alias fault.
	CheckMask uint64

	// Target is the molecule index for ABr/ABrCC.
	Target int32

	// Commit applies to AExit/AExitInd: commit state before leaving.
	Commit bool

	// GIdx is the index (within the translation's guest region) of the
	// guest instruction this atom implements, or -1. Fault handlers use it
	// for adaptive retranslation decisions.
	GIdx int16
}

// Molecule is one VLIW instruction: up to four atoms issued together. All
// atoms read their source registers before any atom writes (VLIW
// read-before-write semantics).
type Molecule struct {
	Atoms []Atom
}

// MaxAtomsPerMolecule is the issue width of the default (TM5800) host.
const MaxAtomsPerMolecule = 4

// Code is an executable unit: the scheduled molecules of one translation.
type Code struct {
	Mols []Molecule
	// NumExits is how many exit indices the code may reference.
	NumExits int
}

// Validate checks the code against the default TM5800 host.
func (c *Code) Validate() error { return c.ValidateWith(TM5800()) }

// ValidateWith checks the static well-formedness rules the given hardware
// generation implies: per-molecule unit capacity, issue width, branch
// targets in range, register numbers in range, and no-interlock latency (a
// result may not be consumed earlier than its latency allows, including the
// same molecule).
//
// Latency is timed along the paths control can take, not along the layout:
// a molecule a branch jumps to runs right after the branching molecule, so it
// sees the results still in flight at the branch — and none of the results
// issued by molecules the branch skipped. Exit stubs are the case that
// matters: they are laid out after the body but run directly after their
// side exit's branch. (Backward branches are not followed; the translator
// emits none.)
func (c *Code) ValidateWith(h HostConfig) error {
	// ready[r] is the molecule index at which r is readable on the path
	// that falls into the current molecule.
	var ready [NumHRegs]int
	// inflight holds, per forward branch, the results not yet readable in
	// the molecule after it. Branches rarely leave any, so the list stays in
	// its stack buffer.
	type pendingReg struct {
		target, left int
		reg          HReg
	}
	var inflightBuf [16]pendingReg
	inflight := inflightBuf[:0]
	var regBuf [4]HReg
	falls := true // the previous molecule can fall through into this one
	for mi := range c.Mols {
		mol := &c.Mols[mi]
		if !falls {
			ready = [NumHRegs]int{}
		}
		for _, p := range inflight {
			if p.target == mi && mi+p.left > ready[p.reg] {
				ready[p.reg] = mi + p.left
			}
		}
		if len(mol.Atoms) > h.Width {
			return fmt.Errorf("vliw: molecule %d issues %d atoms (width %d)", mi, len(mol.Atoms), h.Width)
		}
		var alu, memu, media, br int
		for ai := range mol.Atoms {
			a := &mol.Atoms[ai]
			switch UnitOf(a.Op) {
			case UnitALU:
				alu++
			case UnitMem:
				memu++
			case UnitMedia:
				media++
			case UnitBranch:
				br++
			}
			if err := c.validateAtom(mi, ai, a, &ready); err != nil {
				return err
			}
		}
		if alu > h.ALUs || memu > h.MemUnits || media > h.MediaUnits || br > h.BranchUnits {
			return fmt.Errorf("vliw: molecule %d exceeds %s unit capacity (alu %d, mem %d, media %d, br %d)", mi, h.Name, alu, memu, media, br)
		}
		// Writes become visible after the whole molecule.
		for ai := range mol.Atoms {
			a := &mol.Atoms[ai]
			for _, d := range AppendDestRegs(regBuf[:0], a) {
				ready[d] = mi + h.Latency(a.Op)
			}
		}
		falls = true
		for ai := range mol.Atoms {
			a := &mol.Atoms[ai]
			switch a.Op {
			case AExit, AExitInd:
				falls = false
			case ABr, ABrCC, ABrNZ:
				if a.Op == ABr {
					falls = false
				}
				if int(a.Target) <= mi {
					continue
				}
				for r, at := range ready {
					if at > mi+1 {
						inflight = append(inflight, pendingReg{target: int(a.Target), left: at - (mi + 1), reg: HReg(r)})
					}
				}
			}
		}
	}
	return nil
}

func (c *Code) validateAtom(mi, ai int, a *Atom, ready *[NumHRegs]int) error {
	var regBuf [4]HReg
	for _, s := range AppendSourceRegs(regBuf[:0], a) {
		if int(s) >= NumHRegs {
			return fmt.Errorf("vliw: molecule %d atom %d reads r%d out of range", mi, ai, s)
		}
		if ready[s] > mi {
			return fmt.Errorf("vliw: molecule %d atom %d (%v) reads r%d before it is ready (at %d)", mi, ai, a.Op, s, ready[s])
		}
	}
	for _, d := range AppendDestRegs(regBuf[:0], a) {
		if int(d) >= NumHRegs {
			return fmt.Errorf("vliw: molecule %d atom %d writes r%d out of range", mi, ai, d)
		}
	}
	switch a.Op {
	case ABr, ABrCC, ABrNZ:
		if int(a.Target) < 0 || int(a.Target) >= len(c.Mols) {
			return fmt.Errorf("vliw: molecule %d branch target %d out of range", mi, a.Target)
		}
	case AExit, AExitInd:
		if int(a.Imm) >= c.NumExits {
			return fmt.Errorf("vliw: molecule %d exit %d out of range (%d exits)", mi, a.Imm, c.NumExits)
		}
	case ALd, ASt:
		if a.Size != 1 && a.Size != 4 {
			return fmt.Errorf("vliw: molecule %d atom %d bad memory size %d", mi, ai, a.Size)
		}
	}
	return nil
}

// AppendSourceRegs appends the registers an atom reads to dst and returns
// it. No atom reads more than three, so a caller's small stack buffer makes
// the walk allocation-free — the translator's dependence analysis, Validate
// and Compile's hazard check all visit every atom.
func AppendSourceRegs(dst []HReg, a *Atom) []HReg {
	switch a.Op {
	case ANop, AMovI, AIn:
		return dst
	case AMov:
		return append(dst, a.Ra)
	case AAddI, ASubI, AAndI, AOrI, AXorI, AShlI, AShrI, ASarI:
		return append(dst, a.Ra)
	case AAddICC, ASubICC, AAndICC, AOrICC, AXorICC, AShlICC, AShrICC, ASarICC:
		return append(dst, a.Ra, FlagSrc(*a))
	case AAdd, ASub, AAnd, AOr, AXor, AShl, AShr, ASar:
		return append(dst, a.Ra, a.Rb)
	case AAddCC, ASubCC, AAndCC, AOrCC, AXorCC, AShlCC, AShrCC, ASarCC, AImulCC, AMul64,
		AAdcCC, ASbbCC:
		return append(dst, a.Ra, a.Rb, FlagSrc(*a))
	case AAdcICC, ASbbICC:
		return append(dst, a.Ra, FlagSrc(*a))
	case AIncCC, ADecCC, ANegCC:
		return append(dst, a.Ra, FlagSrc(*a))
	case ADivU, ADivS:
		return append(dst, a.Ra, a.Rb, a.Rc)
	case ASetCC:
		return append(dst, FlagSrc(*a))
	case ALd:
		return append(dst, a.Ra)
	case ASt:
		return append(dst, a.Ra, a.Rb)
	case AOut:
		return append(dst, a.Rb)
	case ABrCC:
		return append(dst, FlagSrc(*a))
	case ABrNZ:
		return append(dst, a.Ra)
	case AExitInd:
		return append(dst, a.Ra)
	}
	return dst
}

// AppendDestRegs appends the registers an atom writes (at most three) to
// dst and returns it.
func AppendDestRegs(dst []HReg, a *Atom) []HReg {
	switch a.Op {
	case ANop, ASt, AOut, ABr, ABrCC, ABrNZ, AExit, AExitInd, ACommit:
		return dst
	case AMul64:
		return append(dst, a.Rd, a.Rd2, FlagDst(*a))
	case ADivU, ADivS: // divides leave guest flags unchanged
		return append(dst, a.Rd, a.Rd2)
	case AAddCC, AAddICC, ASubCC, ASubICC, AAndCC, AAndICC, AOrCC, AOrICC,
		AXorCC, AXorICC, AShlCC, AShlICC, AShrCC, AShrICC, ASarCC, ASarICC,
		AIncCC, ADecCC, ANegCC, AImulCC, AAdcCC, AAdcICC, ASbbCC, ASbbICC:
		return append(dst, a.Rd, FlagDst(*a))
	default:
		return append(dst, a.Rd)
	}
}

// NumAtoms returns the total atom count of the code (static code size).
func (c *Code) NumAtoms() int {
	n := 0
	for _, m := range c.Mols {
		n += len(m.Atoms)
	}
	return n
}
