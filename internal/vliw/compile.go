// The compiled step-array backend: the software analogue of emitting native
// molecules. Compile turns a validated Code into one flat array of steps per
// translation — one step per atom, with operand registers, immediates,
// flag-source renaming, and alias-check masks resolved at compile time —
// which ExecCompiled threads in a single loop without ever consulting the
// Atom structs again. The interpretive Exec re-decodes every atom through
// its big switch on every execution; the compiled form pays that decode
// exactly once, when the translator builds the translation.
//
// A step is either dispatched inline by the loop's dense switch — register
// moves and ALU ops that touch no flags, the word-sized load/store fast
// paths, and every control atom; these carry no closure — or it is a
// pre-specialized closure: everything that can fault, computes or consumes a
// flag image, moves bytes, does I/O, checks the alias table, or leaves the
// single-present-RAM-page fast path. A word load or store carries both: the
// switch tries the fast path and calls the closure, which is the whole atom,
// when it declines, so every slow path has exactly one implementation.
//
// Every molecule's steps are contiguous and molecules follow each other in
// code order, so a straight-line run of molecules is a contiguous slice of
// the array: the loop walks from step to step and performs the molecule
// boundary — interrupt window, then molecule count — inline at each
// end-of-molecule mark. entry[k] is molecule k's offset into the same array;
// a branch into the middle of a run starts there and shares every later step
// with the entries before it. (Giving each entry its own copy is quadratic
// in run length.)
//
// The recovery contract is the whole design constraint. Compiled code must
// commit, roll back, fault, and deoptimize to the interpreter bit-
// identically to Exec (the obligation formalized in Flückiger et al.,
// "Correctness of Speculative Optimizations with Dynamic Deoptimization"):
// identical Mols/Commits/Rollbacks counts, identical fault Outcomes at the
// same boundaries, identical gated-store-buffer and alias-table effects,
// and the same interrupt windows at every molecule boundary. Only wall
// clock is allowed to move.
//
// How that is kept:
//
//   - Exec gives every atom of a molecule the pre-molecule register state
//     (VLIW read-before-write) by deferring writes; the steps write at once.
//     The two are indistinguishable unless an atom reads a register an
//     earlier atom of the same molecule writes — legal, the read sees the
//     old value, but rare in scheduled code. Compile checks this hazard per
//     molecule (SpecializableMol) and emits one exact-semantics step
//     (ExecMoleculeExact: execAtom + deferred writes) for any molecule that
//     has it.
//   - Memory effects (gated stores, store-buffer forwarding, alias-table
//     allocation and checking, port I/O) already happen in atom order in
//     Exec, so the steps simply preserve atom order; the control atom is
//     resolved last.
//   - Molecules containing ACommit alongside register writes or trailing
//     memory atoms take the exact step: ACommit commits *mid-molecule*
//     state, which immediate register writes would corrupt.
//   - One fault-path divergence is tolerated by design: when an atom faults,
//     earlier atoms of the same molecule have already written their
//     (non-shadowed) temporaries, where Exec would have discarded the
//     deferred writes. Rollback restores every shadowed register either way,
//     and temporaries never carry state across a committed boundary — Exec
//     itself leaves stale temporaries from *earlier* molecules of the failed
//     execution — so no translation can observe the difference.
//
// Fused closures: flag-computing ALU closures produce the result and the
// EFLAGS image in one call (ALU+flags), and load closures allocate their
// alias protection entry inline (load+alias-record).
package vliw

import (
	"cms/internal/guest"
	"cms/internal/mem"
)

// atomFn executes one non-control atom. A non-nil return is a fault Outcome
// (the machine has already rolled back).
type atomFn func(m *Machine) *Outcome

// stepOp selects how ExecCompiled's loop performs a step.
type stepOp uint8

const (
	opFn  stepOp = iota // call fn: the whole atom is a closure
	opNop               // an empty molecule's only step; carries the mark
	// Register-only atoms, performed inline; fn is nil.
	opMovI
	opMov
	opAdd
	opAddI
	opSub
	opSubI
	opAnd
	opAndI
	opOr
	opOrI
	opXor
	opXorI
	opShl
	opShlI
	opShr
	opShrI
	opSar
	opSarI
	// Word load/store: the single-present-RAM-page fast path inline, fn (the
	// whole atom) when it declines.
	opLd4
	opSt4
	// Control atoms, always a molecule's last step; fn is nil.
	opBr
	opBrCC
	opBrNZ
	opExit
	opExitInd
	opCommit
	// The whole molecule through ExecMoleculeExact; imm is its index.
	opExact
)

// inlineOp maps the register-only atoms to their inline step.
var inlineOp = [ASarI + 1]stepOp{
	AMovI: opMovI, AMov: opMov,
	AAdd: opAdd, AAddI: opAddI, ASub: opSub, ASubI: opSubI,
	AAnd: opAnd, AAndI: opAndI, AOr: opOr, AOrI: opOrI, AXor: opXor, AXorI: opXorI,
	AShl: opShl, AShlI: opShlI, AShr: opShr, AShrI: opShrI, ASar: opSar, ASarI: opSarI,
}

// End-of-molecule marks.
const (
	eomFall uint8 = 1 + iota // the next step starts the next molecule
	eomLast                  // the code's last molecule: falling through is FBadCode
)

// step is one atom of a compiled translation (or, for opExact, one whole
// molecule).
type step struct {
	fn     atomFn
	imm    uint32 // immediate; branch target; exit index; commit EIP; molecule index
	op     stepOp
	rd     HReg
	ra     HReg // first source; the flag source of opBrCC
	rb     HReg
	prot   int8       // alias slot an opLd4 records, or NoAliasIdx
	cond   guest.Cond // opBrCC
	commit bool       // opExit/opExitInd: commit before leaving
	eom    uint8      // non-zero on a molecule's last step
}

// CompiledCode is the step-array form of one translation's Code.
type CompiledCode struct {
	code  *Code
	steps []step  // every molecule's steps, in code order
	entry []int32 // molecule index -> offset of its first step

	// Compile-shape statistics (introspection and tests).
	fallbacks int
	fused     int
}

// Len returns the number of compiled molecules.
func (cc *CompiledCode) Len() int { return len(cc.entry) }

// Fallbacks returns how many molecules compile to the exact-semantics
// interpreted step rather than specialized steps.
func (cc *CompiledCode) Fallbacks() int { return cc.fallbacks }

// Fused returns how many molecules the loop runs straight into their
// successor: those without a branch-unit atom, other than the last.
func (cc *CompiledCode) Fused() int { return cc.fused }

// ExecCompiled runs compiled code from its first molecule until an exit or a
// fault, exactly as Exec runs the interpreted form: the same interrupt
// window at every molecule boundary, the same molecule accounting, and the
// same fall-off-the-end fault. The returned Outcome — the machine's own slot
// for an exit, the fault's own allocation for a fault — is valid until the
// next Exec/ExecCompiled call: the hot dispatch loop reads it in place rather
// than copying the struct on every execution.
func (m *Machine) ExecCompiled(cc *CompiledCode) *Outcome {
	steps, entry := cc.steps, cc.entry
	r := &m.Regs
	m.ResetOutcome()
	pc := int32(0)
	for {
		// A control transfer lands here: interrupt window (§3.3), bounds,
		// molecule count — the boundary Exec performs before every molecule.
		if m.irqPending() {
			return m.irqOutcome()
		}
		if uint32(pc) >= uint32(len(entry)) {
			return m.BadPC(pc)
		}
		m.Mols++
	run:
		for i := entry[pc]; ; i++ {
			s := &steps[i]
			switch s.op {
			case opFn:
				if o := s.fn(m); o != nil {
					return o
				}
			case opNop:
			case opMovI:
				r[s.rd] = s.imm
			case opMov:
				r[s.rd] = r[s.ra]
			case opAdd:
				r[s.rd] = r[s.ra] + r[s.rb]
			case opAddI:
				r[s.rd] = r[s.ra] + s.imm
			case opSub:
				r[s.rd] = r[s.ra] - r[s.rb]
			case opSubI:
				r[s.rd] = r[s.ra] - s.imm
			case opAnd:
				r[s.rd] = r[s.ra] & r[s.rb]
			case opAndI:
				r[s.rd] = r[s.ra] & s.imm
			case opOr:
				r[s.rd] = r[s.ra] | r[s.rb]
			case opOrI:
				r[s.rd] = r[s.ra] | s.imm
			case opXor:
				r[s.rd] = r[s.ra] ^ r[s.rb]
			case opXorI:
				r[s.rd] = r[s.ra] ^ s.imm
			case opShl:
				r[s.rd] = r[s.ra] << (r[s.rb] & 31)
			case opShlI:
				r[s.rd] = r[s.ra] << (s.imm & 31)
			case opShr:
				r[s.rd] = r[s.ra] >> (r[s.rb] & 31)
			case opShrI:
				r[s.rd] = r[s.ra] >> (s.imm & 31)
			case opSar:
				r[s.rd] = uint32(int32(r[s.ra]) >> (r[s.rb] & 31))
			case opSarI:
				r[s.rd] = uint32(int32(r[s.ra]) >> (s.imm & 31))

			case opLd4:
				addr := r[s.ra] + s.imm
				v, ok := m.Bus.LoadRAM32(addr)
				if !ok {
					if o := s.fn(m); o != nil {
						return o
					}
					break
				}
				if m.sbMask&wordMask(addr, 4) != 0 {
					v = m.forward(addr, 4, v)
				}
				r[s.rd] = v
				if s.prot != NoAliasIdx {
					m.alias[s.prot] = aliasEntry{addr: addr, size: 4, epoch: m.aliasEpoch}
				}
			case opSt4:
				addr := r[s.ra] + s.imm
				if m.Bus.FastWrite(addr, 4) {
					m.gate(sbRAM, addr, r[s.rb], 4)
				} else if o := s.fn(m); o != nil {
					return o
				}

			case opBr:
				pc = int32(s.imm)
				break run
			case opBrCC:
				if s.cond.Eval(flagImage(m, s.ra)) {
					pc = int32(s.imm)
					break run
				}
			case opBrNZ:
				if r[s.ra] != 0 {
					pc = int32(s.imm)
					break run
				}
			case opExit:
				if s.commit {
					m.commit()
				}
				return m.ExitOutcome(int(s.imm), 0, false)
			case opExitInd:
				target := r[s.ra] // read before commit, like Exec's atom pass
				if s.commit {
					m.commit()
				}
				return m.ExitOutcome(int(s.imm), target, true)
			case opCommit:
				m.commit()
				m.CommittedEIP = s.imm

			case opExact:
				next, o := m.ExecMoleculeExact(&cc.code.Mols[s.imm], int32(s.imm)+1)
				if o != nil {
					return o
				}
				if next != int32(s.imm)+1 {
					pc = next
					break run
				}
			}
			if s.eom == 0 {
				continue
			}
			// Straight on into the next molecule: the same boundary, inline.
			if m.irqPending() {
				return m.irqOutcome()
			}
			if s.eom == eomLast {
				return m.BadPC(int32(len(entry)))
			}
			m.Mols++
		}
	}
}

// Compile builds the step-array form of code. It never fails: any molecule
// it cannot specialize becomes one step with the exact interpreted
// semantics, so Compile(code) and code itself are always behaviorally
// interchangeable.
func Compile(code *Code) *CompiledCode {
	if code == nil {
		return nil
	}
	nsteps := 0
	for i := range code.Mols {
		nsteps += max(1, len(code.Mols[i].Atoms))
	}
	cc := &CompiledCode{code: code, steps: make([]step, 0, nsteps), entry: make([]int32, len(code.Mols))}
	for i := range code.Mols {
		cc.entry[i] = int32(len(cc.steps))
		cc.compileMol(i)
	}
	return cc
}

// compileMol appends the steps of molecule idx.
func (cc *CompiledCode) compileMol(idx int) {
	mol := &cc.code.Mols[idx]
	start := len(cc.steps)
	ctrlIdx, ok := SpecializableMol(mol)
	for i := 0; ok && i < len(mol.Atoms); i++ {
		a := &mol.Atoms[i]
		if i == ctrlIdx || a.Op == ANop {
			continue
		}
		var s step
		if s, ok = compileAtom(a); ok {
			cc.steps = append(cc.steps, s)
		}
	}
	switch {
	case !ok:
		// Unknown ops included: execAtom owns their fault behavior.
		cc.fallbacks++
		cc.steps = append(cc.steps[:start], step{op: opExact, imm: uint32(idx)})
	case ctrlIdx >= 0:
		cc.steps = append(cc.steps, compileCtrl(&mol.Atoms[ctrlIdx]))
	case len(cc.steps) == start:
		cc.steps = append(cc.steps, step{op: opNop})
	}
	last := &cc.steps[len(cc.steps)-1]
	if idx == len(cc.entry)-1 {
		last.eom = eomLast
		return
	}
	last.eom = eomFall
	if ctrlIdx < 0 {
		cc.fused++
	}
}

// molHazard reports whether any atom reads a register that an earlier atom
// of the same molecule writes: the one case where writing registers as atoms
// execute differs from Exec's deferred writes.
func molHazard(mol *Molecule) bool {
	var written uint64
	var regBuf [4]HReg
	for i := range mol.Atoms {
		a := &mol.Atoms[i]
		fs := FlagSrc(*a)
		for _, s := range AppendSourceRegs(regBuf[:0], a) {
			if written&(1<<s) != 0 {
				return true
			}
			// execAtom merges the IF bit from the architectural RFlags into
			// any renamed flag image, so a flag-consuming atom also reads
			// RFlags.
			if s == fs && fs != RFlags && written&(1<<RFlags) != 0 {
				return true
			}
		}
		for _, d := range AppendDestRegs(regBuf[:0], a) {
			written |= 1 << d
		}
	}
	return false
}

// commitSafe reports whether an ACommit at ctrlIdx (if any) may run at the
// end of the molecule. Exec performs ACommit at its atom position, before
// the molecule's deferred register writes land and before later memory
// atoms enter the store buffer; hoisting it to the control slot is only
// legal when nothing it could reorder against exists: every other atom is a
// gated store (ASt/AOut) issued before it.
func commitSafe(mol *Molecule, ctrlIdx int) bool {
	if ctrlIdx < 0 || mol.Atoms[ctrlIdx].Op != ACommit {
		return true
	}
	for i := range mol.Atoms {
		if i == ctrlIdx {
			continue
		}
		switch mol.Atoms[i].Op {
		case ANop:
		case ASt, AOut:
			if i > ctrlIdx {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// compileCtrl builds the step for the molecule's single branch-unit atom.
func compileCtrl(a *Atom) step {
	s := step{imm: a.Imm, ra: a.Ra, commit: a.Commit}
	switch a.Op {
	case ABr:
		s.op, s.imm = opBr, uint32(a.Target)
	case ABrCC:
		s.op, s.imm, s.ra, s.cond = opBrCC, uint32(a.Target), FlagSrc(*a), a.Cond
	case ABrNZ:
		s.op, s.imm = opBrNZ, uint32(a.Target)
	case AExit:
		s.op = opExit
	case AExitInd:
		s.op = opExitInd
	case ACommit:
		s.op = opCommit
	}
	return s
}

// compileAtom builds the step for one non-control atom, with every operand
// pre-resolved. ok is false for ops it does not know (the molecule then
// takes the exact step).
func compileAtom(a *Atom) (s step, ok bool) {
	if int(a.Op) < len(inlineOp) && inlineOp[a.Op] != opFn {
		return step{op: inlineOp[a.Op], rd: a.Rd, ra: a.Ra, rb: a.Rb, imm: a.Imm}, true
	}
	switch {
	case a.Op == ALd && a.Size == 4:
		s = step{op: opLd4, rd: a.Rd, ra: a.Ra, imm: a.Imm, prot: a.ProtIdx}
	case a.Op == ASt && a.Size == 4 && a.CheckMask == 0:
		s = step{op: opSt4, ra: a.Ra, rb: a.Rb, imm: a.Imm}
	}
	s.fn = atomClosure(a)
	return s, s.fn != nil
}

// atomClosure builds the specialized closure for one atom that is not
// dispatched inline. It returns nil for ops it does not know.
func atomClosure(a *Atom) atomFn {
	rd, rd2, ra, rb, rc := a.Rd, a.Rd2, a.Ra, a.Rb, a.Rc
	imm := a.Imm
	gi := int(a.GIdx)
	fs, fd := FlagSrc(*a), FlagDst(*a)

	switch a.Op {
	// Flag-computing ALU: result and EFLAGS image in one fused closure.
	case AAddCC, AAddICC, ASubCC, ASubICC, AShlCC, AShlICC,
		AShrCC, AShrICC, ASarCC, ASarICC:
		var alu func(flags, a, b uint32) (uint32, uint32)
		switch a.Op {
		case AAddCC, AAddICC:
			alu = guest.FlagsAdd
		case ASubCC, ASubICC:
			alu = guest.FlagsSub
		case AShlCC, AShlICC:
			alu = guest.FlagsShl
		case AShrCC, AShrICC:
			alu = guest.FlagsShr
		case ASarCC, ASarICC:
			alu = guest.FlagsSar
		}
		immForm := false
		switch a.Op {
		case AAddICC, ASubICC, AShlICC, AShrICC, ASarICC:
			immForm = true
		}
		if immForm {
			return func(m *Machine) *Outcome {
				res, f := alu(flagImage(m, fs), m.Regs[ra], imm)
				m.Regs[rd] = res
				m.Regs[fd] = f
				return nil
			}
		}
		return func(m *Machine) *Outcome {
			res, f := alu(flagImage(m, fs), m.Regs[ra], m.Regs[rb])
			m.Regs[rd] = res
			m.Regs[fd] = f
			return nil
		}

	case AAndCC, AAndICC, AOrCC, AOrICC, AXorCC, AXorICC:
		var logic func(a, b uint32) uint32
		switch a.Op {
		case AAndCC, AAndICC:
			logic = func(x, y uint32) uint32 { return x & y }
		case AOrCC, AOrICC:
			logic = func(x, y uint32) uint32 { return x | y }
		case AXorCC, AXorICC:
			logic = func(x, y uint32) uint32 { return x ^ y }
		}
		immForm := a.Op == AAndICC || a.Op == AOrICC || a.Op == AXorICC
		// The flag image must be read before the result write: when rd is
		// RFlags itself, writing first would feed the result into the IF
		// merge (atoms read all sources before any write).
		if immForm {
			return func(m *Machine) *Outcome {
				res := logic(m.Regs[ra], imm)
				f := guest.FlagsLogic(flagImage(m, fs), res)
				m.Regs[rd] = res
				m.Regs[fd] = f
				return nil
			}
		}
		return func(m *Machine) *Outcome {
			res := logic(m.Regs[ra], m.Regs[rb])
			f := guest.FlagsLogic(flagImage(m, fs), res)
			m.Regs[rd] = res
			m.Regs[fd] = f
			return nil
		}

	case AAdcCC, AAdcICC, ASbbCC, ASbbICC:
		alu := guest.FlagsAdc
		if a.Op == ASbbCC || a.Op == ASbbICC {
			alu = guest.FlagsSbb
		}
		if a.Op == AAdcICC || a.Op == ASbbICC {
			return func(m *Machine) *Outcome {
				res, f := alu(flagImage(m, fs), m.Regs[ra], imm)
				m.Regs[rd] = res
				m.Regs[fd] = f
				return nil
			}
		}
		return func(m *Machine) *Outcome {
			res, f := alu(flagImage(m, fs), m.Regs[ra], m.Regs[rb])
			m.Regs[rd] = res
			m.Regs[fd] = f
			return nil
		}
	case AIncCC:
		return func(m *Machine) *Outcome {
			res, f := guest.FlagsInc(flagImage(m, fs), m.Regs[ra])
			m.Regs[rd] = res
			m.Regs[fd] = f
			return nil
		}
	case ADecCC:
		return func(m *Machine) *Outcome {
			res, f := guest.FlagsDec(flagImage(m, fs), m.Regs[ra])
			m.Regs[rd] = res
			m.Regs[fd] = f
			return nil
		}
	case ANegCC:
		return func(m *Machine) *Outcome {
			res, f := guest.FlagsNeg(flagImage(m, fs), m.Regs[ra])
			m.Regs[rd] = res
			m.Regs[fd] = f
			return nil
		}

	case AImulCC:
		return func(m *Machine) *Outcome {
			res, f := guest.FlagsImul(flagImage(m, fs), m.Regs[ra], m.Regs[rb])
			m.Regs[rd] = res
			m.Regs[fd] = f
			return nil
		}
	case AMul64:
		return func(m *Machine) *Outcome {
			lo, hi, f := guest.FlagsMul(flagImage(m, fs), m.Regs[ra], m.Regs[rb])
			m.Regs[rd] = lo
			m.Regs[rd2] = hi
			m.Regs[fd] = f
			return nil
		}
	case ADivU:
		return func(m *Machine) *Outcome {
			q, rem, ok := guest.DivU(m.Regs[rc], m.Regs[ra], m.Regs[rb])
			if !ok {
				return m.fault(FGuest, gi, 0, guest.VecDE)
			}
			m.Regs[rd] = q
			m.Regs[rd2] = rem
			return nil
		}
	case ADivS:
		return func(m *Machine) *Outcome {
			q, rem, ok := guest.DivS(m.Regs[rc], m.Regs[ra], m.Regs[rb])
			if !ok {
				return m.fault(FGuest, gi, 0, guest.VecDE)
			}
			m.Regs[rd] = q
			m.Regs[rd2] = rem
			return nil
		}

	case ASetCC:
		cond := a.Cond
		return func(m *Machine) *Outcome {
			v := uint32(0)
			if cond.Eval(flagImage(m, fs)) {
				v = 1
			}
			m.Regs[rd] = v
			return nil
		}

	case ALd:
		return compileLoad(a)
	case ASt:
		return compileStore(a)

	case AIn:
		port := uint16(imm)
		return func(m *Machine) *Outcome {
			if m.pendingIO() {
				return m.fault(FMMIOOrder, gi, 0, 0)
			}
			m.Regs[rd] = m.Bus.PortRead(port)
			return nil
		}
	case AOut:
		return func(m *Machine) *Outcome {
			m.gate(sbOut, imm, m.Regs[rb], 4)
			return nil
		}
	}
	return nil
}

// flagImage reads the flag input execAtom would present: the (possibly
// renamed) arithmetic bits with the IF bit always taken from the
// architectural RFlags.
func flagImage(m *Machine, fs HReg) uint32 {
	if fs == RFlags {
		return m.Regs[RFlags]
	}
	return m.Regs[fs]&^guest.FlagIF | m.Regs[RFlags]&guest.FlagIF
}

// compileLoad specializes ALd, fusing the alias-table allocation
// (load+alias-record) into the same closure.
func compileLoad(a *Atom) atomFn {
	rd, ra := a.Rd, a.Ra
	imm := a.Imm
	gi := int(a.GIdx)
	size := a.Size
	sizeInt := int(a.Size)
	usize := uint32(a.Size)
	reordered := a.Reordered
	protIdx := a.ProtIdx
	return func(m *Machine) *Outcome {
		addr := m.Regs[ra] + imm
		// Single present non-MMIO page: CheckRead is nil and the value comes
		// from RAM (through the store buffer); skip the per-check page walks.
		if !m.Bus.FastRead(addr, usize) {
			if gf := m.Bus.CheckRead(addr, sizeInt); gf != nil {
				return m.fault(FGuest, gi, addr, gf.Vector)
			}
			if m.Bus.IsMMIO(addr) {
				if reordered {
					return m.fault(FMMIOSpec, gi, addr, 0)
				}
				if m.pendingIO() {
					return m.fault(FMMIOOrder, gi, addr, 0)
				}
				if size == 1 {
					m.Regs[rd] = uint32(m.Bus.Read8(addr))
				} else {
					m.Regs[rd] = m.Bus.Read32(addr)
				}
				if protIdx != NoAliasIdx {
					m.RecordAlias(protIdx, addr, size)
				}
				return nil
			}
		}
		m.Regs[rd] = m.sbLoad(addr, size)
		if protIdx != NoAliasIdx {
			m.RecordAlias(protIdx, addr, size)
		}
		return nil
	}
}

// compileStore specializes ASt with the alias-check mask resolved at compile
// time.
func compileStore(a *Atom) atomFn {
	ra, rb := a.Ra, a.Rb
	imm := a.Imm
	gi := int(a.GIdx)
	size := a.Size
	sizeInt := int(a.Size)
	usize := uint32(a.Size)
	reordered := a.Reordered
	checkMask := a.CheckMask
	return func(m *Machine) *Outcome {
		addr := m.Regs[ra] + imm
		kind := sbRAM
		// Single present writable non-MMIO unprotected page: CheckWrite and
		// CheckProt are both nil with no side effects.
		if !m.Bus.FastWrite(addr, usize) {
			if gf := m.Bus.CheckWrite(addr, sizeInt); gf != nil {
				return m.fault(FGuest, gi, addr, gf.Vector)
			}
			if m.Bus.IsMMIO(addr) {
				if reordered {
					return m.fault(FMMIOSpec, gi, addr, 0)
				}
				kind = sbMMIO
			} else if hit := m.Bus.CheckProt(addr, sizeInt, mem.SrcCPU); hit != nil {
				return m.fault(FProt, gi, addr, 0)
			}
		}
		if m.AliasConflict(checkMask, addr, size) {
			return m.fault(FAlias, gi, addr, 0)
		}
		m.gate(kind, addr, m.Regs[rb], size)
		return nil
	}
}
