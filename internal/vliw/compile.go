// The compiled closure-threaded backend: the software analogue of emitting
// native molecules. Compile turns a validated Code into a flat array of
// pre-specialized Go closures — one per molecule, with operand registers,
// immediates, flag-source renaming, and alias-check masks resolved at
// compile time — which ExecCompiled threads through without ever consulting
// the Atom structs again. The interpretive Exec re-decodes every atom
// through its big switch on every execution; the compiled form pays that
// decode exactly once, at translation-install time (on the translation
// pipeline workers, off the engine thread).
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
//   - VLIW read-before-write semantics make immediate register writes legal:
//     validated code never reads a register written earlier in the same
//     molecule (results have latency >= 1), so applying writes in atom order
//     as they execute is indistinguishable from Exec's deferred-write slots.
//     Compile re-checks this hazard per molecule and falls back to an
//     exact-semantics interpreted closure (execAtom + deferred writes) for
//     any molecule that violates it, so even hand-built unvalidated code
//     behaves identically.
//   - Memory effects (gated stores, store-buffer forwarding, alias-table
//     allocation and checking, port I/O) already happen in atom order in
//     Exec, so the compiled closures simply preserve atom order.
//   - Molecules containing ACommit alongside register writes or trailing
//     memory atoms take the fallback closure: ACommit commits *mid-molecule*
//     state, which immediate register writes would corrupt.
//   - One fault-path divergence is tolerated by design: when an atom faults,
//     earlier atoms of the same molecule have already written their
//     (non-shadowed) temporaries, where Exec would have discarded the
//     deferred writes. Rollback restores every shadowed register either way,
//     and temporaries never carry state across a committed boundary — Exec
//     itself leaves stale temporaries from *earlier* molecules of the failed
//     execution — so no translation can observe the difference.
//
// Fused fast paths: flag-computing ALU closures produce the result and the
// EFLAGS image in one call (ALU+flags); load closures allocate their alias
// protection entry inline (load+alias-record); and a fall-through molecule
// is fused with a successor molecule that ends in a branch or exit
// (compare+branch — the `dec.c` / `brcc` tail of every hot loop), with the
// inter-molecule interrupt window and molecule count preserved exactly.
package vliw

import (
	"fmt"
	"math/bits"

	"cms/internal/guest"
	"cms/internal/mem"
)

// Sentinels returned by molecule closures in place of a next-molecule index.
const (
	// ccDone: the execution is over; the Outcome is in Machine.cout.
	ccDone int32 = -1
	// ccBadPC stands in for a (garbage) branch target that would collide
	// with ccDone; it is out of range, so ExecCompiled faults on it just as
	// Exec faults on any out-of-range pc.
	ccBadPC int32 = -2
)

// compiledMol executes one molecule and returns the next molecule index, or
// ccDone with the Outcome in m.cout.
type compiledMol func(m *Machine) int32

// atomFn executes one non-control atom. A non-nil return is a fault Outcome
// (the machine has already rolled back).
type atomFn func(m *Machine) *Outcome

// ctrlFn resolves a molecule's control transfer after its atoms ran.
type ctrlFn func(m *Machine) int32

// CompiledCode is the closure-threaded form of one translation's Code.
type CompiledCode struct {
	mols []compiledMol

	// Compile-shape statistics (introspection and tests).
	specialized int
	fallbacks   int
	fused       int
}

// Len returns the number of compiled molecules.
func (cc *CompiledCode) Len() int { return len(cc.mols) }

// Fallbacks returns how many molecules compile to the exact-semantics
// interpreted fallback rather than a specialized closure.
func (cc *CompiledCode) Fallbacks() int { return cc.fallbacks }

// Fused returns how many fall-through molecules were fused with their
// branch-ending successor.
func (cc *CompiledCode) Fused() int { return cc.fused }

// ExecCompiled runs compiled code from its first molecule until an exit or a
// fault, exactly as Exec runs the interpreted form: the same interrupt
// window at every molecule boundary, the same molecule accounting, and the
// same fall-off-the-end fault. The returned Outcome is machine-owned and
// valid until the next Exec/ExecCompiled call — the hot dispatch loop reads
// it in place rather than copying the struct on every execution.
func (m *Machine) ExecCompiled(cc *CompiledCode) *Outcome {
	pc := int32(0)
	mols := cc.mols
	irq := m.IRQ // loop-invariant; nil only in harnesses
	// Exit closures store only scalar fields into cout (a whole-struct
	// assignment would drag a GC write barrier for the Err pointer into
	// every single execution); the one pointer field is cleared here.
	m.cout.Err = nil
	for {
		// Interrupt window at molecule boundaries (§3.3). Pending is the
		// rare side of the conjunction, so it is tested first.
		if irq != nil && irq.HasPending() && m.Shadow[RFlags]&guest.FlagIF != 0 {
			m.rollback()
			m.cout = Outcome{Fault: FIRQ, Exit: -1, GIdx: -1}
			return &m.cout
		}
		if uint32(pc) >= uint32(len(mols)) {
			m.rollback()
			m.cout = Outcome{Fault: FBadCode, Exit: -1, GIdx: -1,
				Err: fmt.Errorf("vliw: control fell off code at molecule %d", pc)}
			return &m.cout
		}
		m.Mols++
		pc = mols[pc](m)
		if pc == ccDone {
			return &m.cout
		}
	}
}

// Compile builds the closure-threaded form of code. It never fails: any
// molecule it cannot specialize gets a fallback closure with the exact
// interpreted semantics, so Compile(code) and code itself are always
// behaviorally interchangeable.
func Compile(code *Code) *CompiledCode {
	if code == nil {
		return nil
	}
	cc := &CompiledCode{mols: make([]compiledMol, len(code.Mols))}
	for i := range code.Mols {
		cc.mols[i] = cc.compileMol(&code.Mols[i], int32(i+1), int32(len(code.Mols)))
	}
	// Run fusion: a maximal straight-line run — fall-through molecules
	// ending at a branch, exit, or the last molecule — executes as one flat
	// closure call, replicating each inter-molecule boundary (interrupt
	// window + molecule count) inline. The software-pipelined loop body
	// with its `dec.c`/`brcc` tail is one call per iteration instead of one
	// dispatch per molecule. Every molecule stays independently addressable
	// for direct jumps into it: later entries of a run reuse the same base
	// closures via a shorter slice of the shared backing array.
	base := make([]compiledMol, len(cc.mols))
	copy(base, cc.mols)
	for i := 0; i < len(code.Mols); {
		if hasControlAtom(&code.Mols[i]) {
			i++
			continue
		}
		j := i
		for j < len(code.Mols)-1 && !hasControlAtom(&code.Mols[j]) {
			j++
		}
		run := base[i : j+1]
		for k := i; k < j; k++ {
			cc.mols[k] = fuseRun(run[k-i:], int32(k))
			cc.fused++
		}
		i = j + 1
	}
	return cc
}

// hasControlAtom reports whether the molecule contains a branch-unit
// control atom (branch, exit, or commit).
func hasControlAtom(mol *Molecule) bool {
	for i := range mol.Atoms {
		switch mol.Atoms[i].Op {
		case ABr, ABrCC, ABrNZ, AExit, AExitInd, ACommit:
			return true
		}
	}
	return false
}

// fuseRun welds a straight-line run of molecules into one flat closure.
// bodies[k] is the base closure for molecule first+k; all but the last fall
// through. A body that leaves the straight line (a fallback molecule
// branching, or the terminal control molecule resolving) returns its target
// to the dispatch loop; between bodies the inter-molecule boundary —
// interrupt window, then molecule count — runs inline, exactly as
// ExecCompiled would perform it.
func fuseRun(bodies []compiledMol, first int32) compiledMol {
	last := len(bodies) - 1
	return func(m *Machine) int32 {
		pc := first
		for k := 0; ; k++ {
			r := bodies[k](m)
			if k == last || r != pc+1 {
				return r
			}
			pc = r
			if m.IRQ != nil && m.IRQ.HasPending() && m.Shadow[RFlags]&guest.FlagIF != 0 {
				m.rollback()
				m.cout = Outcome{Fault: FIRQ, Exit: -1, GIdx: -1}
				return ccDone
			}
			m.Mols++
		}
	}
}

// compileMol builds the closure for one molecule. next is the fall-through
// molecule index; nmols bounds static branch targets.
func (cc *CompiledCode) compileMol(mol *Molecule, next, nmols int32) compiledMol {
	// A specialized molecule needs: at most one control atom, no
	// read-after-write hazard (every atom reads pre-molecule state in Exec),
	// no mid-molecule commit reordering, and only ops the builder knows.
	nctrl := 0
	ctrlIdx := -1
	for i := range mol.Atoms {
		switch mol.Atoms[i].Op {
		case ABr, ABrCC, ABrNZ, AExit, AExitInd, ACommit:
			nctrl++
			ctrlIdx = i
		}
	}
	if nctrl > 1 || molHazard(mol) || !commitSafe(mol, ctrlIdx) {
		cc.fallbacks++
		return fallbackMol(mol, next)
	}

	var fns []atomFn
	for i := range mol.Atoms {
		a := &mol.Atoms[i]
		if i == ctrlIdx || a.Op == ANop {
			continue
		}
		fn := compileAtom(a)
		if fn == nil { // unknown op: preserve execAtom's fault behavior
			cc.fallbacks++
			return fallbackMol(mol, next)
		}
		fns = append(fns, fn)
	}
	var ctrl ctrlFn
	if ctrlIdx >= 0 {
		ctrl = compileCtrl(&mol.Atoms[ctrlIdx], next, nmols)
	}
	cc.specialized++
	return assembleMol(fns, ctrl, next)
}

// molHazard reports whether any atom reads a register that an earlier atom
// of the same molecule writes. Validated code never does (results have
// latency >= 1), but Compile must behave identically even on code that was
// never validated.
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

// assembleMol threads the atom closures and the control resolution into one
// molecule closure, unrolled for the issue widths that actually occur.
func assembleMol(fns []atomFn, ctrl ctrlFn, next int32) compiledMol {
	if ctrl == nil {
		ctrl = func(*Machine) int32 { return next }
	}
	switch len(fns) {
	case 0:
		return func(m *Machine) int32 { return ctrl(m) }
	case 1:
		f0 := fns[0]
		return func(m *Machine) int32 {
			if o := f0(m); o != nil {
				m.cout = *o
				return ccDone
			}
			return ctrl(m)
		}
	case 2:
		f0, f1 := fns[0], fns[1]
		return func(m *Machine) int32 {
			if o := f0(m); o != nil {
				m.cout = *o
				return ccDone
			}
			if o := f1(m); o != nil {
				m.cout = *o
				return ccDone
			}
			return ctrl(m)
		}
	case 3:
		f0, f1, f2 := fns[0], fns[1], fns[2]
		return func(m *Machine) int32 {
			if o := f0(m); o != nil {
				m.cout = *o
				return ccDone
			}
			if o := f1(m); o != nil {
				m.cout = *o
				return ccDone
			}
			if o := f2(m); o != nil {
				m.cout = *o
				return ccDone
			}
			return ctrl(m)
		}
	default:
		return func(m *Machine) int32 {
			for _, f := range fns {
				if o := f(m); o != nil {
					m.cout = *o
					return ccDone
				}
			}
			return ctrl(m)
		}
	}
}

// fallbackMol is the exact-semantics closure: it runs the molecule through
// execAtom with Exec's deferred-write slots and control resolution, so any
// molecule shape the specializer declines still behaves identically to the
// interpreter.
func fallbackMol(mol *Molecule, next int32) compiledMol {
	return func(m *Machine) int32 {
		const maxWidth = 16
		var fixed [maxWidth]atomResult
		results := fixed[:]
		n := len(mol.Atoms)
		if n > maxWidth {
			results = make([]atomResult, n)
		}
		for i := 0; i < n; i++ {
			if fault := m.execAtom(&mol.Atoms[i], &results[i]); fault != nil {
				m.cout = *fault
				return ccDone
			}
		}
		for i := 0; i < n; i++ {
			for w := 0; w < results[i].nw; w++ {
				m.Regs[results[i].writes[w].reg] = results[i].writes[w].val
			}
		}
		nx := next
		for i := 0; i < n; i++ {
			if results[i].exits {
				if mol.Atoms[i].Commit {
					m.commit()
				}
				return m.coutExit(results[i].exit, results[i].indTarget, results[i].indirect)
			}
			if results[i].branch {
				nx = results[i].target
				if nx == ccDone {
					nx = ccBadPC // garbage target; fault out of range, not "done"
				}
			}
		}
		return nx
	}
}

// coutExit fills the pending Outcome for a normal exit without touching the
// Err pointer (see ExecCompiled: whole-struct assignment would cost a GC
// write barrier per execution) and returns the ccDone sentinel.
func (m *Machine) coutExit(exit int, indTarget uint32, indirect bool) int32 {
	m.cout.Fault = FNone
	m.cout.Exit = exit
	m.cout.IndTarget = indTarget
	m.cout.Indirect = indirect
	m.cout.GuestVec = 0
	m.cout.Addr = 0
	m.cout.GIdx = -1
	return ccDone
}

// staticTarget maps a compile-time branch target to what the closure should
// return: the target itself, or ccBadPC for garbage that would collide with
// the ccDone sentinel.
func staticTarget(t int32) int32 {
	if t == ccDone {
		return ccBadPC
	}
	return t
}

// compileCtrl builds the control-resolution closure for the molecule's
// single branch-unit atom.
func compileCtrl(a *Atom, next, nmols int32) ctrlFn {
	switch a.Op {
	case ABr:
		target := staticTarget(a.Target)
		return func(*Machine) int32 { return target }
	case ABrCC:
		target := staticTarget(a.Target)
		cond := a.Cond
		fs := FlagSrc(*a)
		if fs == RFlags {
			return func(m *Machine) int32 {
				if cond.Eval(m.Regs[RFlags]) {
					return target
				}
				return next
			}
		}
		return func(m *Machine) int32 {
			flags := m.Regs[fs]&^guest.FlagIF | m.Regs[RFlags]&guest.FlagIF
			if cond.Eval(flags) {
				return target
			}
			return next
		}
	case ABrNZ:
		target := staticTarget(a.Target)
		ra := a.Ra
		return func(m *Machine) int32 {
			if m.Regs[ra] != 0 {
				return target
			}
			return next
		}
	case AExit:
		exit := int(a.Imm)
		if a.Commit {
			return func(m *Machine) int32 {
				m.commit()
				return m.coutExit(exit, 0, false)
			}
		}
		return func(m *Machine) int32 {
			return m.coutExit(exit, 0, false)
		}
	case AExitInd:
		exit := int(a.Imm)
		ra := a.Ra
		commit := a.Commit
		return func(m *Machine) int32 {
			target := m.Regs[ra] // read before commit, like Exec's atom pass
			if commit {
				m.commit()
			}
			return m.coutExit(exit, target, true)
		}
	case ACommit:
		eip := a.Imm
		return func(m *Machine) int32 {
			m.commit()
			m.CommittedEIP = eip
			return next
		}
	}
	return func(*Machine) int32 { return next }
}

// compileAtom builds the specialized closure for one non-control atom, with
// every operand pre-resolved. It returns nil for ops it does not know (the
// molecule then takes the fallback path).
func compileAtom(a *Atom) atomFn {
	rd, rd2, ra, rb, rc := a.Rd, a.Rd2, a.Ra, a.Rb, a.Rc
	imm := a.Imm
	gi := int(a.GIdx)
	fs, fd := FlagSrc(*a), FlagDst(*a)
	renamed := fs != RFlags // flag image renamed: merge IF from RFlags

	// readFlags is inlined into each flag-consuming closure via the renamed
	// branch; the bool is loop-invariant and perfectly predicted.
	switch a.Op {
	case AMovI:
		return func(m *Machine) *Outcome { m.Regs[rd] = imm; return nil }
	case AMov:
		return func(m *Machine) *Outcome { m.Regs[rd] = m.Regs[ra]; return nil }

	case AAdd:
		return func(m *Machine) *Outcome { m.Regs[rd] = m.Regs[ra] + m.Regs[rb]; return nil }
	case AAddI:
		return func(m *Machine) *Outcome { m.Regs[rd] = m.Regs[ra] + imm; return nil }
	case ASub:
		return func(m *Machine) *Outcome { m.Regs[rd] = m.Regs[ra] - m.Regs[rb]; return nil }
	case ASubI:
		return func(m *Machine) *Outcome { m.Regs[rd] = m.Regs[ra] - imm; return nil }
	case AAnd:
		return func(m *Machine) *Outcome { m.Regs[rd] = m.Regs[ra] & m.Regs[rb]; return nil }
	case AAndI:
		return func(m *Machine) *Outcome { m.Regs[rd] = m.Regs[ra] & imm; return nil }
	case AOr:
		return func(m *Machine) *Outcome { m.Regs[rd] = m.Regs[ra] | m.Regs[rb]; return nil }
	case AOrI:
		return func(m *Machine) *Outcome { m.Regs[rd] = m.Regs[ra] | imm; return nil }
	case AXor:
		return func(m *Machine) *Outcome { m.Regs[rd] = m.Regs[ra] ^ m.Regs[rb]; return nil }
	case AXorI:
		return func(m *Machine) *Outcome { m.Regs[rd] = m.Regs[ra] ^ imm; return nil }
	case AShl:
		return func(m *Machine) *Outcome { m.Regs[rd] = m.Regs[ra] << (m.Regs[rb] & 31); return nil }
	case AShlI:
		sh := imm & 31
		return func(m *Machine) *Outcome { m.Regs[rd] = m.Regs[ra] << sh; return nil }
	case AShr:
		return func(m *Machine) *Outcome { m.Regs[rd] = m.Regs[ra] >> (m.Regs[rb] & 31); return nil }
	case AShrI:
		sh := imm & 31
		return func(m *Machine) *Outcome { m.Regs[rd] = m.Regs[ra] >> sh; return nil }
	case ASar:
		return func(m *Machine) *Outcome {
			m.Regs[rd] = uint32(int32(m.Regs[ra]) >> (m.Regs[rb] & 31))
			return nil
		}
	case ASarI:
		sh := imm & 31
		return func(m *Machine) *Outcome { m.Regs[rd] = uint32(int32(m.Regs[ra]) >> sh); return nil }

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
				res, f := alu(flagImage(m, fs, renamed), m.Regs[ra], imm)
				m.Regs[rd] = res
				m.Regs[fd] = f
				return nil
			}
		}
		return func(m *Machine) *Outcome {
			res, f := alu(flagImage(m, fs, renamed), m.Regs[ra], m.Regs[rb])
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
				f := guest.FlagsLogic(flagImage(m, fs, renamed), res)
				m.Regs[rd] = res
				m.Regs[fd] = f
				return nil
			}
		}
		return func(m *Machine) *Outcome {
			res := logic(m.Regs[ra], m.Regs[rb])
			f := guest.FlagsLogic(flagImage(m, fs, renamed), res)
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
				res, f := alu(flagImage(m, fs, renamed), m.Regs[ra], imm)
				m.Regs[rd] = res
				m.Regs[fd] = f
				return nil
			}
		}
		return func(m *Machine) *Outcome {
			res, f := alu(flagImage(m, fs, renamed), m.Regs[ra], m.Regs[rb])
			m.Regs[rd] = res
			m.Regs[fd] = f
			return nil
		}
	case AIncCC:
		return func(m *Machine) *Outcome {
			res, f := guest.FlagsInc(flagImage(m, fs, renamed), m.Regs[ra])
			m.Regs[rd] = res
			m.Regs[fd] = f
			return nil
		}
	case ADecCC:
		return func(m *Machine) *Outcome {
			res, f := guest.FlagsDec(flagImage(m, fs, renamed), m.Regs[ra])
			m.Regs[rd] = res
			m.Regs[fd] = f
			return nil
		}
	case ANegCC:
		return func(m *Machine) *Outcome {
			res, f := guest.FlagsNeg(flagImage(m, fs, renamed), m.Regs[ra])
			m.Regs[rd] = res
			m.Regs[fd] = f
			return nil
		}

	case AImulCC:
		return func(m *Machine) *Outcome {
			res, f := guest.FlagsImul(flagImage(m, fs, renamed), m.Regs[ra], m.Regs[rb])
			m.Regs[rd] = res
			m.Regs[fd] = f
			return nil
		}
	case AMul64:
		return func(m *Machine) *Outcome {
			lo, hi, f := guest.FlagsMul(flagImage(m, fs, renamed), m.Regs[ra], m.Regs[rb])
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
			if cond.Eval(flagImage(m, fs, renamed)) {
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
			m.sb = append(m.sb, sbEntry{kind: sbOut, addr: imm, val: m.Regs[rb], size: 4})
			return nil
		}
	}
	return nil
}

// flagImage reads the flag input execAtom would present: the (possibly
// renamed) arithmetic bits with the IF bit always taken from the
// architectural RFlags.
func flagImage(m *Machine, fs HReg, renamed bool) uint32 {
	if !renamed {
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
		if m.Bus.FastRead(addr, usize) {
			m.Regs[rd] = m.sbLoad(addr, size)
			if protIdx != NoAliasIdx {
				m.alias[protIdx] = aliasEntry{addr: addr, size: size, epoch: m.aliasEpoch}
			}
			return nil
		}
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
		} else {
			m.Regs[rd] = m.sbLoad(addr, size)
		}
		if protIdx != NoAliasIdx {
			m.alias[protIdx] = aliasEntry{addr: addr, size: size, epoch: m.aliasEpoch}
		}
		return nil
	}
}

// compileStore specializes ASt with the alias-check mask resolved at compile
// time; the mask-free variant skips the check loop entirely.
func compileStore(a *Atom) atomFn {
	ra, rb := a.Ra, a.Rb
	imm := a.Imm
	gi := int(a.GIdx)
	size := a.Size
	sizeInt := int(a.Size)
	usize := uint32(a.Size)
	reordered := a.Reordered
	checkMask := a.CheckMask
	if checkMask == 0 {
		return func(m *Machine) *Outcome {
			addr := m.Regs[ra] + imm
			// Single present writable non-MMIO unprotected page: CheckWrite
			// and CheckProt are both nil with no side effects.
			if m.Bus.FastWrite(addr, usize) {
				m.sb = append(m.sb, sbEntry{kind: sbRAM, addr: addr, val: m.Regs[rb], size: size})
				return nil
			}
			if gf := m.Bus.CheckWrite(addr, sizeInt); gf != nil {
				return m.fault(FGuest, gi, addr, gf.Vector)
			}
			isMMIO := m.Bus.IsMMIO(addr)
			if isMMIO && reordered {
				return m.fault(FMMIOSpec, gi, addr, 0)
			}
			kind := sbRAM
			if isMMIO {
				kind = sbMMIO
			} else if hit := m.Bus.CheckProt(addr, sizeInt, mem.SrcCPU); hit != nil {
				return m.fault(FProt, gi, addr, 0)
			}
			m.sb = append(m.sb, sbEntry{kind: kind, addr: addr, val: m.Regs[rb], size: size})
			return nil
		}
	}
	return func(m *Machine) *Outcome {
		addr := m.Regs[ra] + imm
		if m.Bus.FastWrite(addr, usize) {
			for mask := checkMask; mask != 0; mask &= mask - 1 {
				e := &m.alias[bits.TrailingZeros64(mask)]
				if e.epoch == m.aliasEpoch && addr < e.addr+uint32(e.size) && e.addr < addr+usize {
					return m.fault(FAlias, gi, addr, 0)
				}
			}
			m.sb = append(m.sb, sbEntry{kind: sbRAM, addr: addr, val: m.Regs[rb], size: size})
			return nil
		}
		if gf := m.Bus.CheckWrite(addr, sizeInt); gf != nil {
			return m.fault(FGuest, gi, addr, gf.Vector)
		}
		isMMIO := m.Bus.IsMMIO(addr)
		if isMMIO && reordered {
			return m.fault(FMMIOSpec, gi, addr, 0)
		}
		if !isMMIO {
			if hit := m.Bus.CheckProt(addr, sizeInt, mem.SrcCPU); hit != nil {
				return m.fault(FProt, gi, addr, 0)
			}
		}
		for mask := checkMask; mask != 0; mask &= mask - 1 {
			e := &m.alias[bits.TrailingZeros64(mask)]
			if e.epoch == m.aliasEpoch && addr < e.addr+uint32(e.size) && e.addr < addr+usize {
				return m.fault(FAlias, gi, addr, 0)
			}
		}
		kind := sbRAM
		if isMMIO {
			kind = sbMMIO
		}
		m.sb = append(m.sb, sbEntry{kind: kind, addr: addr, val: m.Regs[rb], size: size})
		return nil
	}
}
