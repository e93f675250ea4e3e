package vliw

import (
	"fmt"
	"math/bits"

	"cms/internal/dev"
	"cms/internal/guest"
	"cms/internal/mem"
)

// FaultClass classifies the host exceptions that interrupt a translation.
// Every one of them triggers a rollback to the last committed state; the
// runtime then decides what to do (§3 of the paper).
type FaultClass uint8

const (
	// FNone: no fault; the translation left through an exit.
	FNone FaultClass = iota
	// FGuest: a potentially guest-visible fault (page fault, divide error).
	// The interpreter decides whether it is genuine or an artifact of
	// speculation (§3.2).
	FGuest
	// FAlias: the alias hardware detected that reordered memory references
	// actually overlapped (§3.5).
	FAlias
	// FMMIOSpec: a reordered memory atom touched a memory-mapped I/O page
	// (§3.4).
	FMMIOSpec
	// FMMIOOrder: an in-order MMIO access could not proceed because earlier
	// I/O is still gated in the store buffer; the reference needs
	// serialization.
	FMMIOOrder
	// FProt: a store hit CMS-protected memory (self-modifying code or mixed
	// code and data, §3.6).
	FProt
	// FIRQ: an external interrupt is pending; the translation rolled back
	// so the runtime can deliver it at a consistent boundary (§3.3).
	FIRQ
	// FBadCode: the translation violated a hardware invariant (translator
	// bug); unrecoverable.
	FBadCode
)

var faultNames = [...]string{"none", "guest", "alias", "mmio-spec", "mmio-order", "prot", "irq", "bad-code"}

// String names the fault class.
func (f FaultClass) String() string { return faultNames[f] }

// Outcome reports how a translation execution ended.
type Outcome struct {
	// Fault is FNone when the code left through an exit.
	Fault FaultClass
	// Exit is the exit index taken (valid when Fault == FNone).
	Exit int
	// IndTarget is the dynamic guest target of an indirect exit.
	IndTarget uint32
	// Indirect reports whether the exit was indirect.
	Indirect bool

	// GuestVec is the guest exception vector for FGuest.
	GuestVec int
	// Addr is the faulting address for memory faults.
	Addr uint32
	// GIdx is the guest-instruction index of the faulting atom, or -1.
	GIdx int
	// Err carries detail for FBadCode.
	Err error
}

// sbKind distinguishes gated-store-buffer entries.
type sbKind uint8

const (
	sbRAM sbKind = iota
	sbMMIO
	sbOut
)

type sbEntry struct {
	addr uint32 // address or port
	val  uint32
	size uint8
	kind sbKind
}

// aliasEntry is one translator-managed protect slot. An entry is live when
// its epoch matches the machine's current aliasEpoch; bumping the epoch
// invalidates the whole table in O(1) (a zero-valued entry has size 0, so it
// can never overlap a store even at epoch 0).
type aliasEntry struct {
	addr  uint32
	size  uint8
	epoch uint64
}

// AliasTableSize is the number of protect entries the alias hardware offers.
// The paper notes Crusoe's table is explicitly translator-managed, unlike
// the associative MCB/ALAT designs.
const AliasTableSize = 48

// Machine is the VLIW host processor.
type Machine struct {
	// Regs is the working register file.
	Regs [NumHRegs]uint32
	// Shadow holds the committed copies of the low registers.
	Shadow [NumShadowed]uint32

	Bus *mem.Bus
	// IRQ, when non-nil, is polled at molecule boundaries; a pending
	// interrupt (with IF set in the working flags) rolls back and reports
	// FIRQ.
	IRQ *dev.IRQController

	alias      [AliasTableSize]aliasEntry
	aliasEpoch uint64

	// The gated store buffer. gate is its only writer and dropGated its only
	// way to empty, which is what keeps the two summaries exact.
	sb []sbEntry
	// sbMask summarizes the buffered RAM stores: bit (a>>2)&63 is set for
	// every word any of them touches. A load whose words miss the mask
	// overlaps nothing buffered and never scans; a hit may be a collision
	// (words 256 bytes apart share a bit), which the scan resolves.
	sbMask uint64
	// sbIO counts the buffered MMIO stores and OUTs.
	sbIO int

	// Counters.
	Mols      uint64 // dynamic molecules executed (the paper's metric)
	Commits   uint64
	Rollbacks uint64

	// RollbackCost is the molecule charge per rollback ("less than a couple
	// of branch mispredictions").
	RollbackCost uint64

	// CommittedEIP is the guest instruction address of the last committed
	// boundary. LoadGuest sets it; ACommit atoms update it from their Imm
	// field, so that after a fault the runtime knows where re-interpretation
	// must start even when a translation committed mid-body to serialize
	// irrevocable I/O.
	CommittedEIP uint32

	// cout is the outcome slot of the compiled backends: ExecCompiled and
	// risc.Exec return a pointer to it for every outcome but an atom's fault
	// (which Machine.fault allocates). Keeping the slot on the machine keeps
	// the compiled hot path free of per-exit allocations, mirroring how Exec
	// returns its Outcome by value.
	cout Outcome
}

// NewMachine returns a machine over the bus.
func NewMachine(bus *mem.Bus) *Machine {
	return &Machine{Bus: bus, RollbackCost: 4}
}

// LoadGuest installs the guest architectural state into both working and
// shadow registers and clears all speculative state; the machine is then at
// a committed boundary at guest address eip.
func (m *Machine) LoadGuest(regs *[guest.NumRegs]uint32, flags uint32, eip uint32) {
	for i := 0; i < guest.NumRegs; i++ {
		m.Regs[GuestReg(guest.Reg(i))] = regs[i]
	}
	m.Regs[RFlags] = flags
	m.Regs[RZero] = 0
	m.CommittedEIP = eip
	copy(m.Shadow[:], m.Regs[:NumShadowed])
	m.dropGated()
}

// StoreGuest reads the committed guest state back out.
func (m *Machine) StoreGuest(regs *[guest.NumRegs]uint32, flags *uint32) {
	for i := 0; i < guest.NumRegs; i++ {
		regs[i] = m.Shadow[GuestReg(guest.Reg(i))]
	}
	*flags = m.Shadow[RFlags]
}

// wordMask returns the sbMask bits of the words [addr, addr+size) touches.
func wordMask(addr uint32, size uint8) uint64 {
	return 1<<(addr>>2&63) | 1<<((addr+uint32(size)-1)>>2&63)
}

// gate appends one entry to the gated store buffer; it drains at the next
// commit and vanishes on rollback.
func (m *Machine) gate(kind sbKind, addr, val uint32, size uint8) {
	m.sb = append(m.sb, sbEntry{addr: addr, val: val, size: size, kind: kind})
	if kind == sbRAM {
		m.sbMask |= wordMask(addr, size)
	} else {
		m.sbIO++
	}
}

// dropGated empties the store buffer and the alias table: the speculative
// state that never survives a commit, a rollback or LoadGuest.
func (m *Machine) dropGated() {
	m.sb = m.sb[:0]
	m.sbMask, m.sbIO = 0, 0
	m.aliasEpoch++
}

// commit copies working state to shadow and drains the gated store buffer
// to the memory system in program order. Commits are architecturally free
// (§3.1: "commit operations are effectively free").
func (m *Machine) commit() {
	copy(m.Shadow[:], m.Regs[:NumShadowed])
	for _, e := range m.sb {
		switch {
		case e.kind == sbOut:
			m.Bus.PortWrite(uint16(e.addr), e.val)
		case e.size == 1:
			m.Bus.Write8(e.addr, uint8(e.val))
		case e.kind == sbRAM && m.Bus.StoreRAM32(e.addr, e.val):
			// Validated as RAM when it was gated: no MMIO dispatch.
		default:
			m.Bus.Write32(e.addr, e.val)
		}
	}
	m.dropGated()
	m.Commits++
}

// rollback restores the last committed state: shadow registers back to
// working, gated stores dropped, alias table cleared.
func (m *Machine) rollback() {
	copy(m.Regs[:NumShadowed], m.Shadow[:])
	m.dropGated()
	m.Rollbacks++
	m.Mols += m.RollbackCost
}

// pendingIO reports whether gated I/O (MMIO stores or OUTs) is buffered.
func (m *Machine) pendingIO() bool { return m.sbIO != 0 }

// sbLoad performs a RAM load that snoops the gated store buffer: younger
// buffered bytes forward over memory contents.
func (m *Machine) sbLoad(addr uint32, size uint8) uint32 {
	var v uint32
	if size == 1 {
		v = uint32(m.Bus.Read8(addr))
	} else {
		v = m.Bus.Read32(addr)
	}
	if m.sbMask&wordMask(addr, size) != 0 {
		v = m.forward(addr, size, v)
	}
	return v
}

// forward applies the buffered RAM stores that overlap [addr, addr+size) to
// v, the memory contents there, oldest first. Callers test sbMask first.
func (m *Machine) forward(addr uint32, size uint8, v uint32) uint32 {
	end := addr + uint32(size)
	for _, e := range m.sb {
		if e.kind != sbRAM || e.addr >= end || addr >= e.addr+uint32(e.size) {
			continue
		}
		if e.addr == addr && e.size == 4 && size == 4 {
			v = e.val // the whole word: no byte of v survives
			continue
		}
		// Apply overlapping bytes of e onto the loaded window, in order.
		for i := uint32(0); i < uint32(e.size); i++ {
			b := e.addr + i
			if b >= addr && b < end {
				sh := 8 * (b - addr)
				v = v&^(0xFF<<sh) | (uint32(uint8(e.val>>(8*i))) << sh)
			}
		}
	}
	return v
}

// fault rolls back and builds a fault outcome for the atom at guest index
// gidx. It returns a pointer so the (rare) fault path carries the only heap
// allocation; the exec hot path stays allocation-free.
func (m *Machine) fault(f FaultClass, gidx int, addr uint32, vec int) *Outcome {
	m.rollback()
	return &Outcome{Fault: f, Addr: addr, GuestVec: vec, GIdx: gidx, Exit: -1}
}

// regWrite is a deferred register write produced by an atom.
type regWrite struct {
	reg HReg
	val uint32
}

// atomResult collects an atom's deferred effects: register writes (applied
// after the whole molecule, per VLIW read-before-write semantics) and any
// control transfer.
type atomResult struct {
	writes [3]regWrite
	nw     int

	branch    bool
	target    int32
	exits     bool
	exit      int
	indTarget uint32
	indirect  bool
}

func (ar *atomResult) write(reg HReg, val uint32) {
	ar.writes[ar.nw] = regWrite{reg, val}
	ar.nw++
}

// Exec runs code from its first molecule until an exit or a fault. The
// caller must have established a committed boundary with LoadGuest or be
// arriving from a committed exit of a chained translation.
func (m *Machine) Exec(code *Code) Outcome {
	pc := 0
	// maxWidth bounds any host generation's issue width. The result slots
	// live outside the molecule loop; execAtom resets the live fields of its
	// slot, so nothing here is re-zeroed per molecule.
	const maxWidth = 16
	var results [maxWidth]atomResult
	for {
		// Interrupt window at molecule boundaries (§3.3): rollback and let
		// the runtime deliver at the last committed boundary.
		if m.irqPending() {
			return *m.irqOutcome()
		}
		if pc < 0 || pc >= len(code.Mols) {
			m.rollback()
			return Outcome{Fault: FBadCode, Exit: -1, GIdx: -1,
				Err: fmt.Errorf("vliw: control fell off code at molecule %d", pc)}
		}
		mol := &code.Mols[pc]
		m.Mols++

		next := pc + 1
		n := len(mol.Atoms)
		for i := 0; i < n; i++ {
			// Index (not range) so the fat Atom struct is never copied.
			if fault := m.execAtom(&mol.Atoms[i], &results[i]); fault != nil {
				return *fault
			}
		}
		// Apply deferred writes in atom order, then resolve control.
		for i := 0; i < n; i++ {
			for w := 0; w < results[i].nw; w++ {
				m.Regs[results[i].writes[w].reg] = results[i].writes[w].val
			}
		}
		for i := 0; i < n; i++ {
			if results[i].exits {
				// Exits commit the post-molecule state; the commit already
				// happened in execAtom *before* deferred writes... so exits
				// are sequenced here instead: see execAtom, which never
				// commits; commits for exit atoms happen now.
				if mol.Atoms[i].Commit {
					m.commit()
				}
				return Outcome{Exit: results[i].exit, IndTarget: results[i].indTarget,
					Indirect: results[i].indirect, GIdx: -1}
			}
			if results[i].branch {
				next = int(results[i].target)
			}
		}
		pc = next
	}
}

// execAtom executes one atom against the pre-molecule register state,
// recording deferred writes in ar. A non-nil return is a fault Outcome
// (the machine has already rolled back).
func (m *Machine) execAtom(a *Atom, ar *atomResult) *Outcome {
	// Reset the slot's live fields (the slots are reused across molecules;
	// indTarget/exit/target are only read behind these flags).
	ar.nw = 0
	ar.branch = false
	ar.exits = false
	ar.indirect = false

	r := &m.Regs
	// The flag-image input: arithmetic bits come from the atom's flag
	// source (a renamed image or the architectural register); the IF bit
	// always comes from the architectural RFlags, which CLI/STI update
	// directly. This is what lets full flag writers execute without any
	// dependence on the previous flag image. (FlagSrc/FlagDst inlined: a
	// zero Fs/Fd means the architectural RFlags.)
	fs, fd := a.Fs, a.Fd
	if fs == 0 {
		fs = RFlags
	}
	if fd == 0 {
		fd = RFlags
	}
	flags := r[fs]
	if fs != RFlags {
		flags = flags&^guest.FlagIF | r[RFlags]&guest.FlagIF
	}
	gi := int(a.GIdx)

	switch a.Op {
	case ANop:
	case AMovI:
		ar.write(a.Rd, a.Imm)
	case AMov:
		ar.write(a.Rd, r[a.Ra])

	case AAdd:
		ar.write(a.Rd, r[a.Ra]+r[a.Rb])
	case AAddI:
		ar.write(a.Rd, r[a.Ra]+a.Imm)
	case ASub:
		ar.write(a.Rd, r[a.Ra]-r[a.Rb])
	case ASubI:
		ar.write(a.Rd, r[a.Ra]-a.Imm)
	case AAnd:
		ar.write(a.Rd, r[a.Ra]&r[a.Rb])
	case AAndI:
		ar.write(a.Rd, r[a.Ra]&a.Imm)
	case AOr:
		ar.write(a.Rd, r[a.Ra]|r[a.Rb])
	case AOrI:
		ar.write(a.Rd, r[a.Ra]|a.Imm)
	case AXor:
		ar.write(a.Rd, r[a.Ra]^r[a.Rb])
	case AXorI:
		ar.write(a.Rd, r[a.Ra]^a.Imm)
	case AShl:
		ar.write(a.Rd, r[a.Ra]<<(r[a.Rb]&31))
	case AShlI:
		ar.write(a.Rd, r[a.Ra]<<(a.Imm&31))
	case AShr:
		ar.write(a.Rd, r[a.Ra]>>(r[a.Rb]&31))
	case AShrI:
		ar.write(a.Rd, r[a.Ra]>>(a.Imm&31))
	case ASar:
		ar.write(a.Rd, uint32(int32(r[a.Ra])>>(r[a.Rb]&31)))
	case ASarI:
		ar.write(a.Rd, uint32(int32(r[a.Ra])>>(a.Imm&31)))

	case AAddCC, AAddICC, ASubCC, ASubICC, AShlCC, AShlICC,
		AShrCC, AShrICC, ASarCC, ASarICC:
		b := r[a.Rb]
		switch a.Op {
		case AAddICC, ASubICC, AShlICC, AShrICC, ASarICC:
			b = a.Imm
		}
		var res, f uint32
		switch a.Op {
		case AAddCC, AAddICC:
			res, f = guest.FlagsAdd(flags, r[a.Ra], b)
		case ASubCC, ASubICC:
			res, f = guest.FlagsSub(flags, r[a.Ra], b)
		case AShlCC, AShlICC:
			res, f = guest.FlagsShl(flags, r[a.Ra], b)
		case AShrCC, AShrICC:
			res, f = guest.FlagsShr(flags, r[a.Ra], b)
		case ASarCC, ASarICC:
			res, f = guest.FlagsSar(flags, r[a.Ra], b)
		}
		ar.write(a.Rd, res)
		ar.write(fd, f)

	case AAndCC, AAndICC, AOrCC, AOrICC, AXorCC, AXorICC:
		b := r[a.Rb]
		switch a.Op {
		case AAndICC, AOrICC, AXorICC:
			b = a.Imm
		}
		var res uint32
		switch a.Op {
		case AAndCC, AAndICC:
			res = r[a.Ra] & b
		case AOrCC, AOrICC:
			res = r[a.Ra] | b
		case AXorCC, AXorICC:
			res = r[a.Ra] ^ b
		}
		ar.write(a.Rd, res)
		ar.write(fd, guest.FlagsLogic(flags, res))

	case AAdcCC, AAdcICC, ASbbCC, ASbbICC:
		b := r[a.Rb]
		if a.Op == AAdcICC || a.Op == ASbbICC {
			b = a.Imm
		}
		var res, f uint32
		if a.Op == AAdcCC || a.Op == AAdcICC {
			res, f = guest.FlagsAdc(flags, r[a.Ra], b)
		} else {
			res, f = guest.FlagsSbb(flags, r[a.Ra], b)
		}
		ar.write(a.Rd, res)
		ar.write(fd, f)
	case AIncCC:
		res, f := guest.FlagsInc(flags, r[a.Ra])
		ar.write(a.Rd, res)
		ar.write(fd, f)
	case ADecCC:
		res, f := guest.FlagsDec(flags, r[a.Ra])
		ar.write(a.Rd, res)
		ar.write(fd, f)
	case ANegCC:
		res, f := guest.FlagsNeg(flags, r[a.Ra])
		ar.write(a.Rd, res)
		ar.write(fd, f)

	case AImulCC:
		res, f := guest.FlagsImul(flags, r[a.Ra], r[a.Rb])
		ar.write(a.Rd, res)
		ar.write(fd, f)
	case AMul64:
		lo, hi, f := guest.FlagsMul(flags, r[a.Ra], r[a.Rb])
		ar.write(a.Rd, lo)
		ar.write(a.Rd2, hi)
		ar.write(fd, f)
	case ADivU:
		q, rem, ok := guest.DivU(r[a.Rc], r[a.Ra], r[a.Rb])
		if !ok {
			return m.fault(FGuest, gi, 0, guest.VecDE)
		}
		ar.write(a.Rd, q)
		ar.write(a.Rd2, rem)
	case ADivS:
		q, rem, ok := guest.DivS(r[a.Rc], r[a.Ra], r[a.Rb])
		if !ok {
			return m.fault(FGuest, gi, 0, guest.VecDE)
		}
		ar.write(a.Rd, q)
		ar.write(a.Rd2, rem)

	case ASetCC:
		v := uint32(0)
		if a.Cond.Eval(flags) {
			v = 1
		}
		ar.write(a.Rd, v)

	case ALd:
		addr := r[a.Ra] + a.Imm
		if gf := m.Bus.CheckRead(addr, int(a.Size)); gf != nil {
			return m.fault(FGuest, gi, addr, gf.Vector)
		}
		if m.Bus.IsMMIO(addr) {
			if a.Reordered {
				return m.fault(FMMIOSpec, gi, addr, 0)
			}
			if m.pendingIO() {
				return m.fault(FMMIOOrder, gi, addr, 0)
			}
			if a.Size == 1 {
				ar.write(a.Rd, uint32(m.Bus.Read8(addr)))
			} else {
				ar.write(a.Rd, m.Bus.Read32(addr))
			}
		} else {
			ar.write(a.Rd, m.sbLoad(addr, a.Size))
		}
		if a.ProtIdx != NoAliasIdx {
			m.alias[a.ProtIdx] = aliasEntry{addr: addr, size: a.Size, epoch: m.aliasEpoch}
		}

	case ASt:
		addr := r[a.Ra] + a.Imm
		if gf := m.Bus.CheckWrite(addr, int(a.Size)); gf != nil {
			return m.fault(FGuest, gi, addr, gf.Vector)
		}
		isMMIO := m.Bus.IsMMIO(addr)
		if isMMIO && a.Reordered {
			return m.fault(FMMIOSpec, gi, addr, 0)
		}
		if !isMMIO {
			if hit := m.Bus.CheckProt(addr, int(a.Size), mem.SrcCPU); hit != nil {
				return m.fault(FProt, gi, addr, 0)
			}
		}
		// Walk only the set bits of the protect mask rather than all 48
		// table slots — stores with small masks dominate.
		for mask := a.CheckMask; mask != 0; mask &= mask - 1 {
			e := &m.alias[bits.TrailingZeros64(mask)]
			if e.epoch == m.aliasEpoch && addr < e.addr+uint32(e.size) && e.addr < addr+uint32(a.Size) {
				return m.fault(FAlias, gi, addr, 0)
			}
		}
		kind := sbRAM
		if isMMIO {
			kind = sbMMIO
		}
		m.gate(kind, addr, r[a.Rb], a.Size)

	case AIn:
		if m.pendingIO() {
			return m.fault(FMMIOOrder, gi, 0, 0)
		}
		ar.write(a.Rd, m.Bus.PortRead(uint16(a.Imm)))
	case AOut:
		m.gate(sbOut, a.Imm, r[a.Rb], 4)

	case ABr:
		ar.branch, ar.target = true, a.Target
	case ABrCC:
		if a.Cond.Eval(flags) {
			ar.branch, ar.target = true, a.Target
		}
	case ABrNZ:
		if r[a.Ra] != 0 {
			ar.branch, ar.target = true, a.Target
		}
	case AExit:
		ar.exits, ar.exit = true, int(a.Imm)
	case AExitInd:
		ar.exits, ar.exit = true, int(a.Imm)
		ar.indTarget, ar.indirect = r[a.Ra], true
	case ACommit:
		m.commit()
		m.CommittedEIP = a.Imm

	default:
		o := m.fault(FBadCode, gi, 0, 0)
		o.Err = fmt.Errorf("vliw: unknown atom op %d", a.Op)
		return o
	}
	return nil
}
