// Backend SPI: the exported surface an alternate code-gen backend needs to
// drive the Machine's speculation hardware — commit/rollback boundaries, the
// gated store buffer, the alias table, interrupt windows, and outcome
// plumbing — without reaching into the unexported internals. internal/risc
// is the first consumer: its executor threads these primitives so that every
// fault class, every commit, and every counter lands bit-identically to
// Exec/ExecCompiled. Anything a second backend is allowed to observe or
// mutate goes through here; everything else stays private to this package.
package vliw

import (
	"fmt"
	"math/bits"

	"cms/internal/guest"
)

// ResetOutcome clears the machine-owned pending Outcome's pointer field, as
// ExecCompiled does on entry (exit paths store only scalar fields to keep GC
// write barriers off the hot path). A backend's exec loop must call this
// once before its first molecule.
func (m *Machine) ResetOutcome() { m.cout.Err = nil }

// IRQWindow performs the molecule-boundary interrupt check (§3.3): if an
// interrupt is pending and the committed IF allows it, the machine rolls
// back and the FIRQ outcome is returned; otherwise nil.
func (m *Machine) IRQWindow() *Outcome {
	if m.irqPending() {
		return m.irqOutcome()
	}
	return nil
}

// irqPending is IRQWindow's test, small enough to inline at every molecule
// boundary. Pending is the rare side of the conjunction, so it comes first.
func (m *Machine) irqPending() bool {
	return m.IRQ != nil && m.IRQ.HasPending() && m.Shadow[RFlags]&guest.FlagIF != 0
}

func (m *Machine) irqOutcome() *Outcome {
	m.rollback()
	m.cout = Outcome{Fault: FIRQ, Exit: -1, GIdx: -1}
	return &m.cout
}

// BadPC rolls back and reports the fall-off-the-end fault for an
// out-of-range molecule index, exactly as Exec/ExecCompiled do.
func (m *Machine) BadPC(pc int32) *Outcome {
	m.rollback()
	m.cout = Outcome{Fault: FBadCode, Exit: -1, GIdx: -1,
		Err: fmt.Errorf("vliw: control fell off code at molecule %d", pc)}
	return &m.cout
}

// Commit commits the current working state: shadow update, gated-store
// drain in program order, alias-table clear.
func (m *Machine) Commit() { m.commit() }

// FaultOutcome rolls back and builds the fault outcome for the atom at guest
// index gidx (the rare path owns the heap allocation, as in Exec).
func (m *Machine) FaultOutcome(f FaultClass, gidx int, addr uint32, vec int) *Outcome {
	return m.fault(f, gidx, addr, vec)
}

// ExitOutcome fills the machine-owned Outcome for a normal exit and returns
// it. The result is valid until the next execution, like ExecCompiled's. It
// stores scalar fields only and leaves Err to ResetOutcome: a whole-struct
// assignment would cost a GC write barrier per execution.
func (m *Machine) ExitOutcome(exit int, indTarget uint32, indirect bool) *Outcome {
	m.cout.Fault = FNone
	m.cout.Exit = exit
	m.cout.IndTarget = indTarget
	m.cout.Indirect = indirect
	m.cout.GuestVec = 0
	m.cout.Addr = 0
	m.cout.GIdx = -1
	return &m.cout
}

// GatedLoad performs a RAM load through the gated store buffer (younger
// buffered bytes forward over memory contents).
func (m *Machine) GatedLoad(addr uint32, size uint8) uint32 { return m.sbLoad(addr, size) }

// GatedStore appends a store to the gated buffer; it drains at the next
// commit and vanishes on rollback. mmio selects the MMIO entry kind (the
// drain path is identical; the kind matters to PendingGatedIO).
func (m *Machine) GatedStore(addr, val uint32, size uint8, mmio bool) {
	kind := sbRAM
	if mmio {
		kind = sbMMIO
	}
	m.gate(kind, addr, val, size)
}

// GatedOut appends a port write to the gated buffer.
func (m *Machine) GatedOut(port uint32, val uint32) {
	m.gate(sbOut, port, val, 4)
}

// PendingGatedIO reports whether gated I/O (MMIO stores or OUTs) is
// buffered — the condition that forces serialization of in-order MMIO.
func (m *Machine) PendingGatedIO() bool { return m.pendingIO() }

// RecordAlias allocates alias-table protect entry idx over [addr, addr+size).
func (m *Machine) RecordAlias(idx int8, addr uint32, size uint8) {
	m.alias[idx] = aliasEntry{addr: addr, size: size, epoch: m.aliasEpoch}
}

// AliasConflict walks the set bits of a protect mask and reports whether any
// live entry overlaps the store window [addr, addr+size) — the check an ASt
// with a CheckMask performs before entering the store buffer.
func (m *Machine) AliasConflict(mask uint64, addr uint32, size uint8) bool {
	for ; mask != 0; mask &= mask - 1 {
		e := &m.alias[bits.TrailingZeros64(mask)]
		if e.epoch == m.aliasEpoch && addr < e.addr+uint32(e.size) && e.addr < addr+uint32(size) {
			return true
		}
	}
	return false
}

// ExecMoleculeExact runs one molecule with the interpreter's exact
// semantics — execAtom against pre-molecule state, deferred register writes,
// then control resolution — the path Compile's opExact steps take. next is
// the fall-through molecule index. A non-nil Outcome ends the execution
// (fault or exit, commits already performed); otherwise the returned index
// is the next molecule (possibly out of range, which the caller's bounds
// check faults on, as Exec's does).
func (m *Machine) ExecMoleculeExact(mol *Molecule, next int32) (int32, *Outcome) {
	const maxWidth = 16
	var fixed [maxWidth]atomResult
	results := fixed[:]
	n := len(mol.Atoms)
	if n > maxWidth {
		results = make([]atomResult, n)
	}
	for i := 0; i < n; i++ {
		if fault := m.execAtom(&mol.Atoms[i], &results[i]); fault != nil {
			return 0, fault
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
			return 0, m.ExitOutcome(results[i].exit, results[i].indTarget, results[i].indirect)
		}
		if results[i].branch {
			nx = results[i].target
		}
	}
	return nx, nil
}

// SpecializableMol applies Compile's per-molecule gating for backends that
// run a molecule's atoms in order with immediate register writes and the
// control atom resolved last: at most one control atom, no same-molecule
// read-after-write hazard, and no mid-molecule commit that anything could
// reorder against. ctrlIdx is the control atom's index (-1 if none); ok
// false means the molecule must take an exact-semantics path
// (ExecMoleculeExact) to stay bit-identical to Exec.
func SpecializableMol(mol *Molecule) (ctrlIdx int, ok bool) {
	// A specialized molecule needs: at most one control atom, no
	// read-after-write hazard (every atom reads pre-molecule state in Exec),
	// and no mid-molecule commit reordering.
	nctrl := 0
	ctrlIdx = -1
	for i := range mol.Atoms {
		switch mol.Atoms[i].Op {
		case ABr, ABrCC, ABrNZ, AExit, AExitInd, ACommit:
			nctrl++
			ctrlIdx = i
		}
	}
	if nctrl > 1 || molHazard(mol) || !commitSafe(mol, ctrlIdx) {
		return ctrlIdx, false
	}
	return ctrlIdx, true
}
