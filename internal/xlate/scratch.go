package xlate

import (
	"sync"
	"unsafe"

	"cms/internal/ir"
	"cms/internal/vliw"
)

// scratch is the working memory of one in-flight translation: the IR, the
// tables the optimizer and the register allocator index by virtual register,
// the emitter's atoms, the flat dependence edges and the scheduler's arrays.
// Every buffer keeps its capacity from one translation to the next, so a
// translation allocates what it returns and nothing else.
//
// A scratch belongs to one Request.Translate call at a time. It comes from a
// process-wide pool rather than from the Translator because Translate runs
// wherever a frozen Request travels — any VM's engine goroutine, a shared
// store's callers, snapshot restore — and none of those own a Translator.
//
// Nothing in here may stay reachable from the Translation handed back: the
// shared store freezes artifacts and clones them into other VMs, while the
// scratch is overwritten by the next translation on whatever goroutine picks
// it up. Everything a Translation retains is copied out into exactly-sized
// allocations of its own (see emitter.layout, Request.translateOnce).
//
// The zero value is ready to use.
type scratch struct {
	// region is the IR under construction; Code and Exits keep their
	// capacity. spare is the rename pass's output buffer, swapped with
	// region.Code when the pass is done. fixups backs every exit's Fixups.
	region ir.Region
	spare  []ir.Instr
	fixups []ir.Fixup
	vregs  []ir.VReg // Uses/Defs buffer

	// Tables indexed by virtual register (bounded by maxVReg) or, for keep,
	// by IR position. ver serves every pass that counts per vreg: use counts
	// in deadFlagElim, def versions in propagate, cse and codegen.
	ver       []int
	val       []valInfo
	live      []bool
	keep      []bool
	cseTab    map[cseKey]cseBinding
	assign    []vliw.HReg
	starts    []int
	ends      []int
	intervals []interval
	ranges    []ir.SrcRange
	words     []checkWord

	// The emitter's state: schedulable atoms in program order, the repair
	// copies of side-exit stubs, and the dependence graph as two flat edge
	// arrays indexed through per-atom offsets (ints holds those offsets and
	// the scheduler's per-atom arrays, one slab).
	atoms    []satom
	fixAtoms []vliw.Atom
	preds    []dep
	succs    []dep
	ints     []int
	lastUses [vliw.NumHRegs][]int
	regs     []vliw.HReg

	// Short lists of buildDeps and schedule.
	loadsSinceExit, divsSinceExit, storesSince, uncheckedLoads []int
	cands, taken, molLen, stubAtoms                            []int
	stubAt                                                     []int32
}

// maxPooledScratch bounds what one pooled scratch may hold on to. A full
// 200-instruction region needs a quarter of this; a region whose serialized
// instructions make the dependence graph quadratic can need far more, and
// its scratch is left to the collector instead of sitting in the pool.
const maxPooledScratch = 1 << 20

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

// release returns the scratch to the pool unless it has grown oversized. A
// pooled scratch keeps no request's trace alive.
func (sc *scratch) release() {
	sc.region.Insns = nil
	if sc.size() <= maxPooledScratch {
		scratchPool.Put(sc)
	}
}

// size is the heap footprint of the buffers that scale with the region (the
// per-register and short lists are bounded by the host and stay small).
func (sc *scratch) size() int {
	return (cap(sc.region.Code)+cap(sc.spare))*int(unsafe.Sizeof(ir.Instr{})) +
		cap(sc.atoms)*int(unsafe.Sizeof(satom{})) +
		(cap(sc.preds)+cap(sc.succs))*int(unsafe.Sizeof(dep{})) +
		cap(sc.ints)*int(unsafe.Sizeof(int(0))) +
		len(sc.cseTab)*int(unsafe.Sizeof(cseKey{})+unsafe.Sizeof(cseBinding{}))
}

// verOf is the def version the running pass has counted for an operand in
// sc.ver; an unused operand slot has version 0.
func (sc *scratch) verOf(v ir.VReg) int {
	if v == ir.NoVReg {
		return 0
	}
	return sc.ver[v]
}

// zeroed returns buf resized to n zero elements, reallocating only when its
// capacity is short.
func zeroed[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n, n+n/4)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}
