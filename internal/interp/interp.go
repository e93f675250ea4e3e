// Package interp is the g86 interpreter: the precise, slow execution engine
// at the heart of the CMS recovery story. It decodes and executes one guest
// instruction at a time with exact architectural semantics — every fault is
// detected before any side effect, every I/O lands in program order, and
// interrupts are taken only at instruction boundaries — while optionally
// collecting the execution profiles (block heads, branch bias, MMIO-touching
// instructions) that drive the translator.
//
// After a translation rolls back, CMS re-executes the region here; the final
// states must agree bit-for-bit, which is guaranteed by sharing the flag
// helpers in package guest with the VLIW host.
package interp

import (
	"fmt"

	"cms/internal/dev"
	"cms/internal/guest"
	"cms/internal/mem"
)

// CPU is the architectural guest state.
type CPU struct {
	Regs   [guest.NumRegs]uint32
	EIP    uint32
	Flags  uint32
	Halted bool
}

// NewCPU returns a reset CPU: flags hold only the always-set bit and IF.
func NewCPU(entry uint32) CPU {
	return CPU{EIP: entry, Flags: guest.FlagsAlways | guest.FlagIF}
}

// StopKind says why a Step did not simply retire an instruction.
type StopKind uint8

const (
	// StopNone: the instruction retired normally (or an exception was
	// delivered and execution continues in the handler).
	StopNone StopKind = iota
	// StopHalt: the guest executed HLT.
	StopHalt
	// StopProt: a store hit CMS-protected memory. No guest state changed;
	// the caller must resolve the protection (invalidate translations) and
	// re-execute the same instruction.
	StopProt
	// StopError: unrecoverable — an exception had no handler (IVT entry 0)
	// or delivery itself faulted. The machine is halted.
	StopError
)

// Result reports the outcome of one Step. Step fills one Result the
// interpreter owns and returns a pointer to it, valid until the next Step or
// Run: handing a caller the struct by value cost a wide stack copy of fields
// just stored, which stalls on store-to-load forwarding on every step.
type Result struct {
	Stop StopKind
	// Prot is set for StopProt.
	Prot *mem.ProtHit
	// Err is set for StopError.
	Err error
	// Retired reports whether a guest instruction actually retired.
	Retired bool
	// IRQ reports that this step delivered an external interrupt instead of
	// executing an instruction.
	IRQ bool
	// Vector is the exception/interrupt vector delivered this step, or -1.
	Vector int
	// Cost is the molecule charge for this step under the interpreter cost
	// model (see cost.go).
	Cost uint64
}

// BranchStat is the interpreter's branch profile for one conditional branch.
type BranchStat struct {
	Taken    uint64
	NotTaken uint64
}

// Bias returns the probability the branch is taken.
func (b BranchStat) Bias() float64 {
	n := b.Taken + b.NotTaken
	if n == 0 {
		return 0.5
	}
	return float64(b.Taken) / float64(n)
}

// Profile accumulates the execution statistics the paper's interpreter
// gathers: execution frequency of code section heads, branch directions,
// and which instructions performed memory-mapped I/O.
type Profile struct {
	Heads     map[uint32]uint64
	Branches  map[uint32]*BranchStat
	MMIOInsns map[uint32]bool
}

// NewProfile returns an empty profile.
func NewProfile() *Profile {
	return &Profile{
		Heads:     make(map[uint32]uint64),
		Branches:  make(map[uint32]*BranchStat),
		MMIOInsns: make(map[uint32]bool),
	}
}

func (p *Profile) branch(addr uint32, taken bool) {
	s := p.Branches[addr]
	if s == nil {
		s = &BranchStat{}
		p.Branches[addr] = s
	}
	if taken {
		s.Taken++
	} else {
		s.NotTaken++
	}
}

// Interp executes g86 code on a bus.
type Interp struct {
	CPU CPU
	Bus *mem.Bus

	// IRQ, if non-nil, is polled at instruction boundaries.
	IRQ *dev.IRQController
	// Timer, if non-nil, advances one tick per retired instruction.
	Timer *dev.Timer
	// Prof, if non-nil, collects execution profiles.
	Prof *Profile
	// CheckProt enables CMS write-protection checks (on under CMS, off for
	// standalone reference runs).
	CheckProt bool

	// Retired counts retired guest instructions.
	Retired uint64
	// Delivered counts delivered interrupts and exceptions.
	Delivered uint64

	fetchBuf [maxInsnLen]byte
	ic       icache
	res      Result
}

// ICacheStats reports the decoded-instruction cache's lookup counters.
func (ip *Interp) ICacheStats() (hits, misses uint64) {
	return ip.ic.Hits, ip.ic.Misses
}

// maxInsnLen bounds the encoded length of any g86 instruction.
const maxInsnLen = 16

// New returns an interpreter over the bus with a reset CPU at entry 0.
func New(bus *mem.Bus) *Interp {
	return &Interp{CPU: NewCPU(0), Bus: bus}
}

// guestFault is an internal signal that an instruction faulted before any
// side effect; exec returns it and Step delivers the exception.
type guestFault struct {
	vec int
}

// protStop signals a CMS protection hit.
type protStop struct {
	hit *mem.ProtHit
}

// intRequest signals that the instruction was a software INT whose delivery
// Step must sequence.
type intRequest struct {
	vec int
}

// Step executes one instruction boundary: delivers a pending interrupt if
// IF allows, else decodes and executes one instruction, delivering any
// exception it raises. The Result is the interpreter's own, overwritten by
// the next call.
func (ip *Interp) Step() *Result {
	res := &ip.res
	if ip.CPU.Halted {
		*res = Result{Stop: StopHalt, Vector: -1}
		return res
	}
	// Interrupt window: boundaries only, IF set.
	if ip.IRQ != nil && ip.CPU.Flags&guest.FlagIF != 0 {
		if line, ok := ip.IRQ.Pending(); ok {
			vec := guest.VecIRQBase + line
			ip.deliver(vec, ip.CPU.EIP)
			if res.Stop == StopNone {
				ip.IRQ.Ack(line)
				res.IRQ = true
				res.Vector = vec
				ip.Delivered++
				res.Cost = DeliveryCost
			}
			return res
		}
	}

	slot, ff := ip.fetchDecode()
	if ff != nil {
		ip.deliverAndCount(ff.vec, ip.CPU.EIP)
		return res
	}

	switch out := ip.exec(slot.in).(type) {
	case nil:
		ip.retire()
		*res = Result{Retired: true, Vector: -1, Cost: uint64(slot.cost)}
	case guestFault:
		ip.deliverAndCount(out.vec, slot.in.Addr)
		res.Cost = uint64(slot.cost) + DeliveryCost
	case protStop:
		*res = Result{Stop: StopProt, Prot: out.hit, Vector: -1, Cost: costBase}
	case intRequest:
		ip.deliverAndCount(out.vec, slot.in.Next())
		if res.Stop == StopNone {
			ip.retire()
			res.Retired = true
			res.Cost = uint64(slot.cost) + DeliveryCost
		}
	default:
		panic("interp: impossible exec outcome")
	}
	return res
}

func (ip *Interp) retire() {
	ip.Retired++
	if ip.Timer != nil {
		ip.Timer.Advance(1)
	}
}

func (ip *Interp) deliverAndCount(vec int, retEIP uint32) {
	ip.deliver(vec, retEIP)
	if ip.res.Stop == StopNone {
		ip.res.Vector = vec
		ip.Delivered++
	}
}

// deliver pushes Flags and retEIP, clears IF, and vectors through the IVT,
// writing the outcome to ip.res. It mutates no guest state on failure.
// The common case needs only the bus fast paths (fastDelivery); anything
// else takes deliverChecked, which makes every check. Both enter the
// handler the same way, so they leave identical state.
func (ip *Interp) deliver(vec int, retEIP uint32) {
	sp := ip.CPU.Regs[guest.ESP]
	if handler, ok := ip.fastDelivery(vec, sp); ok {
		ip.enter(vec, retEIP, sp, handler)
		return
	}
	ip.deliverChecked(vec, retEIP)
}

// fastDelivery returns vec's handler when delivery needs no further check:
// the IVT word is in RAM and nonzero, and both stack words below sp lie in
// one present, writable, non-MMIO page without CMS protection. ok false
// says nothing about whether delivery would fail.
func (ip *Interp) fastDelivery(vec int, sp uint32) (handler uint32, ok bool) {
	handler, ok = ip.Bus.LoadRAM32(guest.IVTBase + 4*uint32(vec))
	return handler, ok && handler != 0 && ip.Bus.FastWrite(sp-8, 8)
}

// deliverChecked is deliver with every check made: an unreadable IVT entry,
// a zero handler, a faulting stack push or a CMS protection hit ends it
// with the matching Result and no guest state changed.
func (ip *Interp) deliverChecked(vec int, retEIP uint32) {
	entry := guest.IVTBase + 4*uint32(vec)
	if f := ip.Bus.CheckRead(entry, 4); f != nil {
		ip.CPU.Halted = true
		ip.res = Result{Stop: StopError, Err: fmt.Errorf("interp: IVT unreadable for vector %d: %w", vec, f), Vector: vec}
		return
	}
	handler := ip.Bus.Read32(entry)
	if handler == 0 {
		ip.CPU.Halted = true
		ip.res = Result{Stop: StopError, Err: fmt.Errorf("interp: unhandled exception vector %d at eip %#x", vec, retEIP), Vector: vec}
		return
	}
	sp := ip.CPU.Regs[guest.ESP]
	a1, a2 := sp-4, sp-8
	for _, a := range []uint32{a1, a2} {
		if f := ip.Bus.CheckWrite(a, 4); f != nil {
			ip.CPU.Halted = true
			ip.res = Result{Stop: StopError, Err: fmt.Errorf("interp: double fault: stack push failed delivering vector %d: %w", vec, f), Vector: vec}
			return
		}
	}
	if ip.CheckProt {
		if hit := ip.Bus.CheckProt(a2, 8, mem.SrcCPU); hit != nil {
			// Deliverable only after the caller resolves protection; nothing
			// has changed, so the trigger re-occurs on re-execution.
			ip.res = Result{Stop: StopProt, Prot: hit, Vector: -1}
			return
		}
	}
	ip.enter(vec, retEIP, sp, handler)
}

// enter completes a delivery whose checks have passed: it pushes Flags and
// retEIP below sp, clears IF and jumps to handler.
func (ip *Interp) enter(vec int, retEIP, sp, handler uint32) {
	ip.Bus.Write32(sp-4, ip.CPU.Flags)
	ip.Bus.Write32(sp-8, retEIP)
	ip.CPU.Regs[guest.ESP] = sp - 8
	ip.CPU.Flags &^= guest.FlagIF
	ip.CPU.EIP = handler
	if ip.Prof != nil {
		ip.Prof.Heads[handler]++
	}
	ip.res = Result{Vector: vec}
}

// fetchDecode fetches and decodes the instruction at EIP, consulting the
// decoded-instruction cache first. Cache validity is tied to the bus's
// per-page modification generations, so any write to the underlying bytes
// (SMC store, DMA, raw load) or mapping change forces a fresh decode. The
// returned slot stays valid until the next fetchDecode.
func (ip *Interp) fetchDecode() (*icEntry, *guestFault) {
	if slot := ip.ic.lookup(ip.Bus, ip.CPU.EIP); slot != nil {
		return slot, nil
	}
	n := ip.Bus.FetchBytes(ip.CPU.EIP, ip.fetchBuf[:])
	if n == 0 {
		return nil, &guestFault{vec: guest.VecNP}
	}
	in, err := guest.Decode(ip.fetchBuf[:n], ip.CPU.EIP)
	if err != nil {
		// Distinguish "runs off a mapped page" (#NP) from garbage (#UD).
		op := guest.Op(ip.fetchBuf[0])
		if n < maxInsnLen && op.Valid() && guest.EncodedLen(op) > uint32(n) {
			return nil, &guestFault{vec: guest.VecNP}
		}
		return nil, &guestFault{vec: guest.VecUD}
	}
	return ip.ic.fill(ip.Bus, in), nil
}

// Run steps until a stop condition or the step limit. It returns the last
// Result and the number of steps taken.
func (ip *Interp) Run(maxSteps uint64) (Result, uint64) {
	var steps uint64
	for steps < maxSteps {
		res := ip.Step()
		steps++
		if res.Stop != StopNone {
			return *res, steps
		}
	}
	return Result{}, steps
}

// --- instruction execution ---------------------------------------------------

// load32 checks and performs a 32-bit load, recording MMIO profile data.
func (ip *Interp) load32(in guest.Insn, addr uint32) (uint32, any) {
	if f := ip.Bus.CheckRead(addr, 4); f != nil {
		return 0, guestFault{vec: f.Vector}
	}
	ip.noteMMIO(in, addr)
	return ip.Bus.Read32(addr), nil
}

func (ip *Interp) load8(in guest.Insn, addr uint32) (uint32, any) {
	if f := ip.Bus.CheckRead(addr, 1); f != nil {
		return 0, guestFault{vec: f.Vector}
	}
	ip.noteMMIO(in, addr)
	return uint32(ip.Bus.Read8(addr)), nil
}

// checkStore verifies a store of size bytes is permitted (guest attributes
// and CMS protection), without performing it.
func (ip *Interp) checkStore(in guest.Insn, addr uint32, size int) any {
	if f := ip.Bus.CheckWrite(addr, size); f != nil {
		return guestFault{vec: f.Vector}
	}
	if ip.CheckProt {
		if hit := ip.Bus.CheckProt(addr, size, mem.SrcCPU); hit != nil {
			return protStop{hit: hit}
		}
	}
	ip.noteMMIO(in, addr)
	return nil
}

func (ip *Interp) noteMMIO(in guest.Insn, addr uint32) {
	if ip.Prof != nil && ip.Bus.IsMMIO(addr) {
		ip.Prof.MMIOInsns[in.Addr] = true
	}
}

func (ip *Interp) jumpTo(target uint32) {
	ip.CPU.EIP = target
	if ip.Prof != nil {
		ip.Prof.Heads[target]++
	}
}

// exec executes one decoded instruction. It returns nil on normal retire,
// guestFault to raise an exception (no state has changed), or protStop.
func (ip *Interp) exec(in guest.Insn) any {
	c := &ip.CPU
	next := in.Next()
	ea := func() uint32 { return in.Mem.EffectiveAddr(&c.Regs) }

	switch in.Op {
	case guest.OpNOP:
	case guest.OpHLT:
		c.EIP = next
		c.Halted = true
		return nil
	case guest.OpCLI:
		c.Flags &^= guest.FlagIF
	case guest.OpSTI:
		c.Flags |= guest.FlagIF

	case guest.OpMOVrr:
		c.Regs[in.Dst] = c.Regs[in.Src]
	case guest.OpMOVri:
		c.Regs[in.Dst] = in.Imm
	case guest.OpMOVrm:
		v, f := ip.load32(in, ea())
		if f != nil {
			return f
		}
		c.Regs[in.Dst] = v
	case guest.OpMOVmr:
		a := ea()
		if f := ip.checkStore(in, a, 4); f != nil {
			return f
		}
		ip.Bus.Write32(a, c.Regs[in.Src])
	case guest.OpMOVmi:
		a := ea()
		if f := ip.checkStore(in, a, 4); f != nil {
			return f
		}
		ip.Bus.Write32(a, in.Imm)
	case guest.OpMOVBrm:
		v, f := ip.load8(in, ea())
		if f != nil {
			return f
		}
		c.Regs[in.Dst] = v
	case guest.OpMOVBmr:
		a := ea()
		if f := ip.checkStore(in, a, 1); f != nil {
			return f
		}
		ip.Bus.Write8(a, uint8(c.Regs[in.Src]))
	case guest.OpLEA:
		c.Regs[in.Dst] = ea()
	case guest.OpMOVSXB:
		v, f := ip.load8(in, ea())
		if f != nil {
			return f
		}
		c.Regs[in.Dst] = uint32(int32(int8(v)))

	case guest.OpADDrr, guest.OpADDri, guest.OpADDrm, guest.OpADDmr,
		guest.OpSUBrr, guest.OpSUBri, guest.OpSUBrm, guest.OpSUBmr,
		guest.OpANDrr, guest.OpANDri, guest.OpANDrm, guest.OpANDmr,
		guest.OpORrr, guest.OpORri, guest.OpORrm, guest.OpORmr,
		guest.OpXORrr, guest.OpXORri, guest.OpXORrm, guest.OpXORmr:
		if f := ip.execALU(in); f != nil {
			return f
		}

	case guest.OpCMPrr:
		_, c.Flags = guest.FlagsSub(c.Flags, c.Regs[in.Dst], c.Regs[in.Src])
	case guest.OpCMPri:
		_, c.Flags = guest.FlagsSub(c.Flags, c.Regs[in.Dst], in.Imm)
	case guest.OpCMPrm:
		v, f := ip.load32(in, ea())
		if f != nil {
			return f
		}
		_, c.Flags = guest.FlagsSub(c.Flags, c.Regs[in.Dst], v)
	case guest.OpCMPmi:
		v, f := ip.load32(in, ea())
		if f != nil {
			return f
		}
		_, c.Flags = guest.FlagsSub(c.Flags, v, in.Imm)
	case guest.OpTESTrr:
		c.Flags = guest.FlagsLogic(c.Flags, c.Regs[in.Dst]&c.Regs[in.Src])
	case guest.OpTESTri:
		c.Flags = guest.FlagsLogic(c.Flags, c.Regs[in.Dst]&in.Imm)
	case guest.OpADCrr:
		c.Regs[in.Dst], c.Flags = guest.FlagsAdc(c.Flags, c.Regs[in.Dst], c.Regs[in.Src])
	case guest.OpADCri:
		c.Regs[in.Dst], c.Flags = guest.FlagsAdc(c.Flags, c.Regs[in.Dst], in.Imm)
	case guest.OpSBBrr:
		c.Regs[in.Dst], c.Flags = guest.FlagsSbb(c.Flags, c.Regs[in.Dst], c.Regs[in.Src])
	case guest.OpSBBri:
		c.Regs[in.Dst], c.Flags = guest.FlagsSbb(c.Flags, c.Regs[in.Dst], in.Imm)
	case guest.OpXCHG:
		c.Regs[in.Dst], c.Regs[in.Src] = c.Regs[in.Src], c.Regs[in.Dst]
	case guest.OpCDQ:
		c.Regs[guest.EDX] = uint32(int32(c.Regs[guest.EAX]) >> 31)

	case guest.OpINC:
		c.Regs[in.Dst], c.Flags = guest.FlagsInc(c.Flags, c.Regs[in.Dst])
	case guest.OpDEC:
		c.Regs[in.Dst], c.Flags = guest.FlagsDec(c.Flags, c.Regs[in.Dst])
	case guest.OpNEG:
		c.Regs[in.Dst], c.Flags = guest.FlagsNeg(c.Flags, c.Regs[in.Dst])
	case guest.OpNOT:
		c.Regs[in.Dst] = ^c.Regs[in.Dst]

	case guest.OpSHLri:
		c.Regs[in.Dst], c.Flags = guest.FlagsShl(c.Flags, c.Regs[in.Dst], in.Imm)
	case guest.OpSHRri:
		c.Regs[in.Dst], c.Flags = guest.FlagsShr(c.Flags, c.Regs[in.Dst], in.Imm)
	case guest.OpSARri:
		c.Regs[in.Dst], c.Flags = guest.FlagsSar(c.Flags, c.Regs[in.Dst], in.Imm)
	case guest.OpSHLrc:
		c.Regs[in.Dst], c.Flags = guest.FlagsShl(c.Flags, c.Regs[in.Dst], c.Regs[guest.ECX])
	case guest.OpSHRrc:
		c.Regs[in.Dst], c.Flags = guest.FlagsShr(c.Flags, c.Regs[in.Dst], c.Regs[guest.ECX])
	case guest.OpSARrc:
		c.Regs[in.Dst], c.Flags = guest.FlagsSar(c.Flags, c.Regs[in.Dst], c.Regs[guest.ECX])

	case guest.OpIMULrr:
		c.Regs[in.Dst], c.Flags = guest.FlagsImul(c.Flags, c.Regs[in.Dst], c.Regs[in.Src])
	case guest.OpIMULri:
		c.Regs[in.Dst], c.Flags = guest.FlagsImul(c.Flags, c.Regs[in.Dst], in.Imm)
	case guest.OpMUL:
		var lo, hi uint32
		lo, hi, c.Flags = guest.FlagsMul(c.Flags, c.Regs[guest.EAX], c.Regs[in.Dst])
		c.Regs[guest.EAX], c.Regs[guest.EDX] = lo, hi
	case guest.OpDIV:
		q, r, ok := guest.DivU(c.Regs[guest.EDX], c.Regs[guest.EAX], c.Regs[in.Dst])
		if !ok {
			return guestFault{vec: guest.VecDE}
		}
		c.Regs[guest.EAX], c.Regs[guest.EDX] = q, r
	case guest.OpIDIV:
		q, r, ok := guest.DivS(c.Regs[guest.EDX], c.Regs[guest.EAX], c.Regs[in.Dst])
		if !ok {
			return guestFault{vec: guest.VecDE}
		}
		c.Regs[guest.EAX], c.Regs[guest.EDX] = q, r

	case guest.OpPUSHr, guest.OpPUSHi, guest.OpPUSHF:
		var v uint32
		switch in.Op {
		case guest.OpPUSHr:
			v = c.Regs[in.Dst]
		case guest.OpPUSHi:
			v = in.Imm
		default:
			v = c.Flags
		}
		a := c.Regs[guest.ESP] - 4
		if f := ip.checkStore(in, a, 4); f != nil {
			return f
		}
		ip.Bus.Write32(a, v)
		c.Regs[guest.ESP] = a
	case guest.OpPOPr:
		v, f := ip.load32(in, c.Regs[guest.ESP])
		if f != nil {
			return f
		}
		c.Regs[guest.ESP] += 4
		c.Regs[in.Dst] = v
	case guest.OpPOPF:
		v, f := ip.load32(in, c.Regs[guest.ESP])
		if f != nil {
			return f
		}
		c.Regs[guest.ESP] += 4
		c.Flags = v&(guest.ArithFlags|guest.FlagIF) | guest.FlagsAlways

	case guest.OpJMPrel:
		ip.jumpTo(in.BranchTarget())
		return nil
	case guest.OpJMPr:
		ip.jumpTo(c.Regs[in.Dst])
		return nil
	case guest.OpJMPm:
		v, f := ip.load32(in, ea())
		if f != nil {
			return f
		}
		ip.jumpTo(v)
		return nil
	case guest.OpCALLrel, guest.OpCALLr:
		a := c.Regs[guest.ESP] - 4
		if f := ip.checkStore(in, a, 4); f != nil {
			return f
		}
		target := in.BranchTarget()
		if in.Op == guest.OpCALLr {
			target = c.Regs[in.Dst]
		}
		ip.Bus.Write32(a, next)
		c.Regs[guest.ESP] = a
		ip.jumpTo(target)
		return nil
	case guest.OpRET:
		v, f := ip.load32(in, c.Regs[guest.ESP])
		if f != nil {
			return f
		}
		c.Regs[guest.ESP] += 4
		ip.jumpTo(v)
		return nil

	case guest.OpIN:
		c.Regs[in.Dst] = ip.Bus.PortRead(uint16(in.Imm))
		if ip.Prof != nil {
			ip.Prof.MMIOInsns[in.Addr] = true
		}
	case guest.OpOUT:
		ip.Bus.PortWrite(uint16(in.Imm), c.Regs[in.Src])
		if ip.Prof != nil {
			ip.Prof.MMIOInsns[in.Addr] = true
		}
	case guest.OpINT:
		// Software interrupt: delivery is sequenced by Step so that stop
		// conditions propagate and the retire is counted exactly once.
		return intRequest{vec: int(in.Imm)}
	case guest.OpIRET:
		sp := c.Regs[guest.ESP]
		eip, f := ip.load32(in, sp)
		if f != nil {
			return f
		}
		fl, f2 := ip.load32(in, sp+4)
		if f2 != nil {
			return f2
		}
		c.Regs[guest.ESP] = sp + 8
		c.Flags = fl&(guest.ArithFlags|guest.FlagIF) | guest.FlagsAlways
		ip.jumpTo(eip)
		return nil

	default:
		cond, ok := in.Op.IsJcc()
		if !ok {
			return guestFault{vec: guest.VecUD}
		}
		taken := cond.Eval(c.Flags)
		if ip.Prof != nil {
			ip.Prof.branch(in.Addr, taken)
		}
		if taken {
			ip.jumpTo(in.BranchTarget())
			return nil
		}
	}
	c.EIP = next
	return nil
}

// execALU handles the two-operand ALU family (add/sub/and/or/xor in all
// addressing forms), including the read-modify-write forms whose store is
// checked before any state changes.
func (ip *Interp) execALU(in guest.Insn) any {
	c := &ip.CPU
	kind := (in.Op - guest.OpADDrr) / 4
	form := (in.Op - guest.OpADDrr) % 4

	apply := func(a, b uint32) uint32 {
		var res uint32
		switch kind {
		case 0:
			res, c.Flags = guest.FlagsAdd(c.Flags, a, b)
		case 1:
			res, c.Flags = guest.FlagsSub(c.Flags, a, b)
		case 2:
			res = a & b
			c.Flags = guest.FlagsLogic(c.Flags, res)
		case 3:
			res = a | b
			c.Flags = guest.FlagsLogic(c.Flags, res)
		case 4:
			res = a ^ b
			c.Flags = guest.FlagsLogic(c.Flags, res)
		}
		return res
	}

	switch form {
	case 0: // rr
		c.Regs[in.Dst] = apply(c.Regs[in.Dst], c.Regs[in.Src])
	case 1: // ri
		c.Regs[in.Dst] = apply(c.Regs[in.Dst], in.Imm)
	case 2: // rm
		v, f := ip.load32(in, in.Mem.EffectiveAddr(&c.Regs))
		if f != nil {
			return f
		}
		c.Regs[in.Dst] = apply(c.Regs[in.Dst], v)
	case 3: // mr: read-modify-write
		a := in.Mem.EffectiveAddr(&c.Regs)
		// Check the write before performing the read so a protection stop
		// leaves no side effects (the read may be MMIO).
		if f := ip.checkStore(in, a, 4); f != nil {
			return f
		}
		v, f := ip.load32(in, a)
		if f != nil {
			return f
		}
		ip.Bus.Write32(a, apply(v, c.Regs[in.Src]))
	}
	return nil
}
