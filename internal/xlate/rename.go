package xlate

import (
	"cms/internal/ir"
)

// rename performs guest-register renaming within a region: every definition
// of a guest GPR goes to a fresh temporary, and the mapping from guest
// register to current temporary is carried forward. The pinned host
// registers r0..r7 are written only
//
//   - by fixup copies in side-exit stubs (recorded as ir.Exit.Fixups and
//     emitted by the scheduler), executed only when that exit is taken, and
//   - by materialization copies inserted inline before unconditional exits,
//     indirect exits, and serialize boundaries.
//
// Without renaming, the cross-iteration reuse of the eight guest registers
// serializes unrolled regions completely and the scheduler has nothing to
// reorder; with it, only the flags register and true data dependences pace
// the schedule. This models the paper's observation that the 64 host
// registers let "the architectural x86 registers be assigned to dedicated
// native registers, with an ample set available for use by CMS".
//
// EFLAGS (VFlags) is renamed exactly like the GPRs: flag-computing
// operations take an explicit flag-image input (FIn) and produce a fresh
// flag-image output (FOut), which turns x86's partial flag updates (INC
// preserving CF, shifts by zero preserving everything) into ordinary
// explicit dataflow. The architectural r8 is written only at
// materialization points; the interrupt window polls the *committed* IF.
func (sc *scratch) rename(r *ir.Region) {
	next := maxVReg(r) + 1
	fresh := func() ir.VReg {
		v := next
		next++
		return v
	}

	// cur[0..7] are the guest GPRs; cur[8] is the current flag image.
	var cur [9]ir.VReg
	for g := range cur {
		cur[g] = ir.VReg(g)
	}
	mapUse := func(v ir.VReg) ir.VReg {
		if v >= 0 && v <= ir.VFlags {
			return cur[v]
		}
		return v
	}

	out := sc.spare[:0]

	// A side exit repairs at most every renamed register. Reserving that
	// for all of them up front means the backing array never regrows, so
	// the Fixups slices handed to the exits below stay valid.
	sideExits := 0
	for idx := range r.Code {
		if r.Code[idx].Op == ir.OpExitIf {
			sideExits++
		}
	}
	if need := sideExits * len(cur); cap(sc.fixups) < need {
		sc.fixups = make([]ir.Fixup, 0, need)
	}
	sc.fixups = sc.fixups[:0]

	// materialize writes every renamed guest register back to its pinned
	// home and resets the mapping (used where the full architectural state
	// must be in place inline).
	materialize := func(gidx int32) {
		for g := ir.VReg(0); g <= ir.VFlags; g++ {
			if cur[g] == g {
				continue
			}
			mv := ir.New(ir.OpMov)
			mv.Dst, mv.A, mv.GIdx = g, cur[g], gidx
			out = append(out, mv)
			cur[g] = g
		}
	}

	// needsFlagIn reports whether a flag-writing op truly consumes the
	// previous arithmetic flag image: partial updaters (INC/DEC preserve
	// CF), shifts whose count may be zero at run time (they then preserve
	// everything), and carry-chained arithmetic. Full writers replace all
	// arithmetic bits and take IF from the architectural register, so they
	// carry no flag dependence at all.
	needsFlagIn := func(i *ir.Instr) bool {
		switch i.Op {
		case ir.OpIncCC, ir.OpDecCC, ir.OpAdcCC, ir.OpSbbCC:
			return true
		case ir.OpShlCC, ir.OpShrCC, ir.OpSarCC:
			return i.B != ir.NoVReg || i.Imm&31 == 0
		}
		return false
	}

	for idx := range r.Code {
		i := r.Code[idx]
		switch {
		case i.Op == ir.OpBoundary && i.Serialize:
			materialize(i.GIdx)
			out = append(out, i)
			continue
		case i.Dst == ir.VFlags && !i.Op.SetsFlags():
			// CLI/STI/POPF write the architectural flags directly, keeping
			// the hardware's IF view current: materialize first, keep r8
			// pinned.
			materialize(i.GIdx)
			i.A, i.B, i.C = mapUse(i.A), mapUse(i.B), mapUse(i.C)
			out = append(out, i)
			continue
		case i.Op == ir.OpExitIf:
			// Side exit: record fixups (including the flag image); the
			// stub performs them only when the exit is taken.
			i.FIn = cur[ir.VFlags]
			first := len(sc.fixups)
			for g := ir.VReg(0); g <= ir.VFlags; g++ {
				if cur[g] != g {
					sc.fixups = append(sc.fixups, ir.Fixup{Guest: g, Src: cur[g]})
				}
			}
			r.Exits[i.Exit].Fixups = nil
			if n := len(sc.fixups); n > first {
				r.Exits[i.Exit].Fixups = sc.fixups[first:n:n]
			}
			out = append(out, i)
			continue
		case i.Op == ir.OpExit:
			materialize(i.GIdx)
			out = append(out, i)
			continue
		case i.Op == ir.OpExitInd:
			i.A = mapUse(i.A)
			materialize(i.GIdx)
			out = append(out, i)
			continue
		}

		i.A, i.B, i.C = mapUse(i.A), mapUse(i.B), mapUse(i.C)
		if i.Op.SetsFlags() {
			if needsFlagIn(&i) {
				i.FIn = cur[ir.VFlags]
			}
			i.FOut = fresh()
			cur[ir.VFlags] = i.FOut
		}
		if i.Dst >= 0 && i.Dst <= ir.VFlags {
			g := i.Dst
			i.Dst = fresh()
			cur[g] = i.Dst
		}
		if i.Dst2 >= 0 && i.Dst2 < 8 {
			g := i.Dst2
			i.Dst2 = fresh()
			cur[g] = i.Dst2
		}
		out = append(out, i)
	}
	sc.spare = r.Code[:0]
	r.Code = out
}

// maxVReg returns the highest virtual register the region's code mentions
// (at least VTemp0). It bounds every table the passes index by vreg. Operand
// slots an op does not use hold NoVReg (ir.New), so the slots can be scanned
// without asking each op which of them it reads or writes.
func maxVReg(r *ir.Region) ir.VReg {
	m := ir.VTemp0
	for idx := range r.Code {
		i := &r.Code[idx]
		m = max(m, i.Dst, i.Dst2, i.A, i.B, i.C, i.FIn, i.FOut)
	}
	return m
}
