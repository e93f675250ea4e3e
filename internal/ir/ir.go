// Package ir defines the translator's intermediate representation: a linear
// sequence of typed operations over virtual registers, produced from a guest
// trace region and consumed by the optimizer and the VLIW scheduler.
//
// The region shape follows the paper's translations: a single-entry trace
// with side exits. There are no joins and no internal back edges, so forward
// dataflow is exact and cheap; loops execute by chaining a translation's
// exit back to its own entry.
//
// Virtual register conventions:
//   - VRegs 0..7 are the guest GPRs (live-in and live-out at every exit),
//   - VReg 8 (VFlags) is the guest EFLAGS image,
//   - temporaries start at VTemp0 and are dead at exits.
//
// The IR and the Region/exit shape are backend-neutral: the same optimized
// sequence feeds both the vliw scheduler (internal/vliw) and, after atom
// scheduling, the risc register-IR lowering (internal/risc). In particular
// the optimizer's dead-flag analysis — which renames flag defs that no exit
// observes away from VFlags so the scheduler can speculate past them — is
// exactly the property the risc backend reuses for lazy EFLAGS
// materialization: a renamed flag def becomes a deferred flag image, and
// only defs still targeting VFlags force an architectural materialization.
package ir

import (
	"cmp"
	"fmt"
	"slices"

	"cms/internal/guest"
)

// VReg is a virtual register.
type VReg int16

const (
	// VFlags is the guest EFLAGS variable.
	VFlags VReg = 8
	// VTemp0 is the first temporary.
	VTemp0 VReg = 16
	// NoVReg marks an unused operand slot.
	NoVReg VReg = -1
)

// GuestVReg returns the virtual register bound to a guest GPR.
func GuestVReg(r guest.Reg) VReg { return VReg(r) }

// Op is an IR operation code.
type Op uint8

const (
	OpNop Op = iota

	OpConst // Dst = Imm
	OpMov   // Dst = A

	// Plain ALU (no flag effects): Dst = A <op> B, or A <op> Imm when B is
	// NoVReg.
	OpAdd
	OpSub
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	OpSar

	// Flag-computing ALU: additionally write VFlags with g86 semantics.
	OpAddCC
	OpSubCC
	OpAndCC
	OpOrCC
	OpXorCC
	OpShlCC
	OpShrCC
	OpSarCC
	OpIncCC
	OpDecCC
	OpNegCC
	OpImulCC
	OpAdcCC // add with carry-in
	OpSbbCC // subtract with borrow-in

	// Wide multiply / divide. Mul64: Dst = lo, Dst2 = hi, flags. Div: Dst =
	// quotient, Dst2 = remainder; A = low dividend, C = high dividend, B =
	// divisor; faults #DE.
	OpMul64
	OpDivU
	OpDivS

	// Memory. Address is A + Imm (A may be NoVReg for absolute).
	OpLd8  // Dst = zx(mem8[A+Imm])
	OpLd32 // Dst = mem32[A+Imm]
	OpSt8  // mem8[A+Imm] = B
	OpSt32 // mem32[A+Imm] = B

	// Port I/O. Imm is the port.
	OpIn  // Dst = port[Imm]
	OpOut // port[Imm] = B

	// Control. Exits index the region's exit table.
	OpExitIf  // if Cond(VFlags) leave through Exit
	OpExit    // unconditionally leave through Exit
	OpExitInd // leave through Exit with dynamic guest target A

	// OpBoundary marks a guest instruction boundary: the point before the
	// GIdx-th instruction of the region. It generates no code but carries
	// the precise-state bookkeeping.
	OpBoundary
)

var opNames = map[Op]string{
	OpNop: "nop", OpConst: "const", OpMov: "mov",
	OpAdd: "add", OpSub: "sub", OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpShl: "shl", OpShr: "shr", OpSar: "sar",
	OpAddCC: "add.cc", OpSubCC: "sub.cc", OpAndCC: "and.cc", OpOrCC: "or.cc",
	OpXorCC: "xor.cc", OpShlCC: "shl.cc", OpShrCC: "shr.cc", OpSarCC: "sar.cc",
	OpIncCC: "inc.cc", OpDecCC: "dec.cc", OpNegCC: "neg.cc", OpImulCC: "imul.cc",
	OpAdcCC: "adc.cc", OpSbbCC: "sbb.cc",
	OpMul64: "mul64", OpDivU: "divu", OpDivS: "divs",
	OpLd8: "ld8", OpLd32: "ld32", OpSt8: "st8", OpSt32: "st32",
	OpIn: "in", OpOut: "out",
	OpExitIf: "exit.if", OpExit: "exit", OpExitInd: "exit.ind",
	OpBoundary: "boundary",
}

// String returns the op mnemonic.
func (o Op) String() string {
	if n, ok := opNames[o]; ok {
		return n
	}
	return fmt.Sprintf("ir?%d", uint8(o))
}

// IsLoad reports whether o reads memory.
func (o Op) IsLoad() bool { return o == OpLd8 || o == OpLd32 }

// IsStore reports whether o writes memory.
func (o Op) IsStore() bool { return o == OpSt8 || o == OpSt32 }

// IsExit reports whether o leaves the translation.
func (o Op) IsExit() bool { return o == OpExitIf || o == OpExit || o == OpExitInd }

// SetsFlags reports whether o writes VFlags.
func (o Op) SetsFlags() bool {
	switch o {
	case OpAddCC, OpSubCC, OpAndCC, OpOrCC, OpXorCC, OpShlCC, OpShrCC,
		OpSarCC, OpIncCC, OpDecCC, OpNegCC, OpImulCC, OpMul64,
		OpAdcCC, OpSbbCC:
		return true
	}
	return false
}

// ReadsFlags reports whether o consumes the arithmetic flag bits as data
// (not merely to preserve IF): carry-chained arithmetic and conditional
// exits.
func (o Op) ReadsFlags() bool {
	switch o {
	case OpAdcCC, OpSbbCC, OpExitIf:
		return true
	}
	return false
}

// PlainOf maps a flag-computing ALU op to its plain counterpart, for dead
// flag elimination. ok is false when no plain form exists (inc/dec/neg
// become add/sub; imul/mul64 keep their value semantics elsewhere).
func PlainOf(o Op) (Op, bool) {
	switch o {
	case OpAddCC, OpIncCC:
		return OpAdd, true
	case OpSubCC, OpDecCC, OpNegCC:
		return OpSub, true
	case OpAndCC:
		return OpAnd, true
	case OpOrCC:
		return OpOr, true
	case OpXorCC:
		return OpXor, true
	case OpShlCC:
		return OpShl, true
	case OpShrCC:
		return OpShr, true
	case OpSarCC:
		return OpSar, true
	}
	return o, false
}

// Instr is one IR operation.
type Instr struct {
	Op   Op
	Dst  VReg
	Dst2 VReg // mul64 hi / div remainder
	A    VReg
	B    VReg
	C    VReg // div high dividend
	Imm  uint32
	Cond guest.Cond
	Exit int32 // exit table index for exits

	// FIn and FOut are the renamed flag-image operands of flag-reading and
	// flag-writing operations. NoVReg means the architectural VFlags (the
	// state before the rename pass runs).
	FIn  VReg
	FOut VReg

	// GIdx is the region instruction index this op belongs to.
	GIdx int32

	// Serialize marks a memory/I-O op that must be executed at a committed
	// boundary (adaptive MMIO policy, §3.4; always set for IN).
	Serialize bool
	// NoReorder pins a memory op in program order without full
	// serialization.
	NoReorder bool
	// SMCCheck marks a load emitted by the self-check machinery; its alias
	// entry must be checked by every subsequent store (§3.6.3).
	SMCCheck bool
}

// New returns an Instr of the given op with every operand slot set to
// NoVReg. Always build instructions through New: the zero value of VReg is
// guest EAX, so struct literals with unset operands silently reference it.
func New(op Op) Instr {
	return Instr{Op: op, Dst: NoVReg, Dst2: NoVReg, A: NoVReg, B: NoVReg, C: NoVReg,
		FIn: NoVReg, FOut: NoVReg, GIdx: -1}
}

// Uses appends the vregs read by the instruction to dst and returns it.
func (i *Instr) Uses(dst []VReg) []VReg {
	add := func(v VReg) {
		if v != NoVReg {
			dst = append(dst, v)
		}
	}
	fin := func() {
		if i.FIn != NoVReg {
			dst = append(dst, i.FIn)
		} else {
			dst = append(dst, VFlags)
		}
	}
	switch i.Op {
	case OpNop, OpConst, OpBoundary:
	case OpMov:
		add(i.A)
	case OpAdd, OpSub, OpAnd, OpOr, OpXor, OpShl, OpShr, OpSar:
		add(i.A)
		add(i.B)
	case OpAddCC, OpSubCC, OpAndCC, OpOrCC, OpXorCC, OpShlCC, OpShrCC, OpSarCC,
		OpImulCC, OpMul64, OpAdcCC, OpSbbCC:
		add(i.A)
		add(i.B)
		fin() // CC ops merge into the existing flag image
	case OpIncCC, OpDecCC, OpNegCC:
		add(i.A)
		fin()
	case OpDivU, OpDivS:
		add(i.A)
		add(i.B)
		add(i.C)
	case OpLd8, OpLd32:
		add(i.A)
	case OpSt8, OpSt32:
		add(i.A)
		add(i.B)
	case OpIn:
	case OpOut:
		add(i.B)
	case OpExitIf:
		fin()
	case OpExit:
	case OpExitInd:
		add(i.A)
	}
	return dst
}

// Defs appends the vregs written by the instruction to dst and returns it.
func (i *Instr) Defs(dst []VReg) []VReg {
	add := func(v VReg) {
		if v != NoVReg {
			dst = append(dst, v)
		}
	}
	fout := func() {
		if i.FOut != NoVReg {
			dst = append(dst, i.FOut)
		} else {
			dst = append(dst, VFlags)
		}
	}
	switch i.Op {
	case OpNop, OpBoundary, OpSt8, OpSt32, OpOut, OpExitIf, OpExit, OpExitInd:
	case OpMul64:
		add(i.Dst)
		add(i.Dst2)
		fout()
	case OpDivU, OpDivS:
		add(i.Dst)
		add(i.Dst2)
	default:
		add(i.Dst)
		if i.Op.SetsFlags() {
			fout()
		}
	}
	return dst
}

// ExitKind classifies a region exit.
type ExitKind uint8

const (
	// ExitJump leaves to a static guest address.
	ExitJump ExitKind = iota
	// ExitIndirect leaves to a dynamic guest address.
	ExitIndirect
	// ExitInterp leaves to a static guest address that must be interpreted
	// (used by zero-instruction translations and INT-like instructions).
	ExitInterp
	// ExitSelfCheckFail signals that the self-check found modified source
	// bytes; the runtime must revalidate or retranslate (§3.6.3).
	ExitSelfCheckFail
)

var exitKindNames = [...]string{"jump", "indirect", "interp", "selfcheck-fail"}

// String names the exit kind.
func (k ExitKind) String() string { return exitKindNames[k] }

// Fixup is a copy a side-exit stub must perform before committing: the
// renamed current value of a guest register moves back to its pinned home.
type Fixup struct {
	Guest VReg // 0..7
	Src   VReg
}

// Exit describes one way out of a region.
type Exit struct {
	Kind ExitKind
	// Target is the static guest continuation address (ExitJump/ExitInterp).
	Target uint32
	// Insns is how many guest instructions of the region have fully
	// retired when the translation leaves through this exit; the runtime
	// uses it for retired-instruction accounting (timers, metrics).
	Insns int
	// Fixups are the register-renaming repair copies the exit stub performs
	// (side exits only; see the rename pass).
	Fixups []Fixup
}

// Region is the translator's unit of work: a decoded guest trace plus its
// IR and exits.
type Region struct {
	Entry uint32
	Insns []guest.Insn
	Code  []Instr
	Exits []Exit
}

// AddExit appends an exit and returns its index.
func (r *Region) AddExit(e Exit) int32 {
	r.Exits = append(r.Exits, e)
	return int32(len(r.Exits) - 1)
}

// SrcRange is a byte range of guest code covered by a region.
type SrcRange struct {
	Addr uint32
	Len  uint32
}

// SrcRanges returns the coalesced source byte ranges of the region's
// instructions. Unrolled regions visit the same addresses repeatedly, so
// the ranges are sorted and merged: every source byte appears exactly once.
func (r *Region) SrcRanges() []SrcRange {
	return SrcRangesOf(r.Insns)
}

// SrcRangesOf coalesces the source byte ranges of an instruction list
// without requiring a lowered region (a frozen translation request captures
// source bytes before it is lowered).
func SrcRangesOf(insns []guest.Insn) []SrcRange {
	return slices.Clone(AppendSrcRanges(make([]SrcRange, 0, len(insns)), insns))
}

// AppendSrcRanges is SrcRangesOf into a caller's buffer: it appends the
// coalesced ranges to dst (using its spare capacity as working space) and
// returns it.
func AppendSrcRanges(dst []SrcRange, insns []guest.Insn) []SrcRange {
	base := len(dst)
	for _, in := range insns {
		dst = append(dst, SrcRange{Addr: in.Addr, Len: in.Len})
	}
	raw := dst[base:]
	slices.SortFunc(raw, func(a, b SrcRange) int { return cmp.Compare(a.Addr, b.Addr) })
	out := raw[:0]
	for _, sr := range raw {
		if n := len(out); n > 0 && sr.Addr <= out[n-1].Addr+out[n-1].Len {
			if end := sr.Addr + sr.Len; end > out[n-1].Addr+out[n-1].Len {
				out[n-1].Len = end - out[n-1].Addr
			}
			continue
		}
		out = append(out, sr)
	}
	return dst[:base+len(out)]
}

// String renders an instruction for debugging.
func (i Instr) String() string {
	s := i.Op.String()
	if i.Dst != NoVReg && i.Dst != 0 || i.Op == OpConst || i.Op == OpMov || i.Op.IsLoad() {
		s += fmt.Sprintf(" v%d", i.Dst)
	}
	if i.A != NoVReg {
		s += fmt.Sprintf(", v%d", i.A)
	}
	if i.B != NoVReg {
		s += fmt.Sprintf(", v%d", i.B)
	}
	if i.Op == OpConst || i.Op.IsLoad() || i.Op.IsStore() || i.Op == OpIn || i.Op == OpOut {
		s += fmt.Sprintf(", imm=%#x", i.Imm)
	}
	if i.Op.IsExit() {
		s += fmt.Sprintf(" -> exit%d", i.Exit)
	}
	return s
}
