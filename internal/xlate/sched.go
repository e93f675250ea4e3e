package xlate

import (
	"errors"
	"fmt"
	"slices"

	"cms/internal/ir"
	"cms/internal/vliw"
)

// errRegPressure reports that a region needs more temporaries than the host
// register file offers; the translator retries with a smaller region.
var errRegPressure = errors.New("xlate: out of host registers")

// satom is a schedulable atom: the host atom plus its dependence metadata.
type satom struct {
	a vliw.Atom

	isLoad, isStore, isExit, isBarrier, isDiv bool
	smcCheck                                  bool
	noReorder                                 bool

	// Memory disjointness info (pre-register-allocation view) for the
	// NoAliasHW mode: base vreg + its def version, displacement, size.
	memKnown bool
	size     uint8
	baseV    ir.VReg
	baseVer  int
	disp     uint32

	// exitIdx is the region exit for exit-ish atoms, else -1.
	exitIdx int32
	// fixOff/fixN locate the stub repair copies of a side exit in the
	// scratch's fixAtoms (dst = pinned guest host register, src = renamed
	// temp's host register).
	fixOff, fixN int32
}

// dep is one dependence edge as seen from one of its ends: the atom at the
// other end, and the minimum molecule distance (0 = same molecule
// permitted). Predecessor and successor edges live in two flat arrays,
// grouped by atom.
type dep struct {
	atom  int32
	delta int32
}

// interval is the live range of one temporary, in IR positions.
type interval struct {
	v          ir.VReg
	start, end int
}

// regalloc maps virtual registers to host registers. Guest state vregs are
// pinned; temporaries are linear-scan allocated. reserve registers are kept
// out of the pool (for the self-check accumulator etc.). The assignment
// table lives in the scratch.
func (sc *scratch) regalloc(region *ir.Region, reserve int) ([]vliw.HReg, error) {
	code := region.Code
	// Vregs are dense small integers; the assignment table and the interval
	// tables below are slices, not maps, for the emitter's per-operand lookups.
	nv := int(maxVReg(region)) + 1
	sc.assign = zeroed(sc.assign, nv)
	assign := sc.assign
	for v := ir.VReg(0); v <= ir.VFlags; v++ {
		assign[v] = vliw.HReg(v)
	}
	// Temp live intervals (temps are single-def by construction).
	sc.starts = zeroed(sc.starts, nv)
	sc.ends = zeroed(sc.ends, nv)
	starts, ends := sc.starts, sc.ends
	for v := range starts {
		starts[v] = -1
	}
	for i := range code {
		sc.vregs = code[i].Defs(sc.vregs[:0])
		for _, d := range sc.vregs {
			if d >= ir.VTemp0 {
				if starts[d] < 0 {
					starts[d] = i
				}
				ends[d] = i
			}
		}
		sc.vregs = code[i].Uses(sc.vregs[:0])
		for _, u := range sc.vregs {
			if u >= ir.VTemp0 {
				ends[u] = i
			}
		}
		// Side-exit fixups read their sources at the exit.
		if code[i].Op == ir.OpExitIf {
			for _, fx := range region.Exits[code[i].Exit].Fixups {
				if fx.Src >= ir.VTemp0 && int(fx.Src) < len(ends) {
					ends[fx.Src] = i
				}
			}
		}
	}
	intervals := sc.intervals[:0]
	for v := ir.VTemp0; int(v) < nv; v++ {
		if starts[v] >= 0 {
			intervals = append(intervals, interval{v, starts[v], ends[v]})
		}
	}
	sc.intervals = intervals
	slices.SortStableFunc(intervals, func(a, b interval) int { return a.start - b.start })

	// The free registers form a FIFO (a ring: no more than the register
	// file is ever queued).
	var pool [vliw.NumHRegs]vliw.HReg
	head, free := 0, 0
	for r := vliw.RTempBase; r <= vliw.RTempLast-vliw.HReg(reserve); r++ {
		pool[free] = r
		free++
	}
	type active struct {
		end int
		r   vliw.HReg
	}
	var actBuf [vliw.NumHRegs]active
	act := actBuf[:0]
	for _, iv := range intervals {
		// Expire finished intervals; freed registers go to the tail of the
		// pool so reuse picks the least-recently-freed register. Register
		// reuse creates false WAR/WAW dependences that shackle the VLIW
		// scheduler, so maximizing reuse distance matters more than packing.
		keep := act[:0]
		for _, a := range act {
			if a.end >= iv.start {
				keep = append(keep, a)
			} else {
				pool[(head+free)%len(pool)] = a.r
				free++
			}
		}
		act = keep
		if free == 0 {
			return nil, errRegPressure
		}
		r := pool[head]
		head = (head + 1) % len(pool)
		free--
		assign[iv.v] = r
		act = append(act, active{iv.end, r})
	}
	return assign, nil
}

// emitter builds and schedules the atoms of one region. Its atoms, edges
// and scheduling arrays live in the scratch.
type emitter struct {
	sc     *scratch
	region *ir.Region
	pol    Policy
	host   vliw.HostConfig
	assign []vliw.HReg

	aliasNext int    // next free alias entry
	smcMask   uint64 // entries owned by self-check loads: every store checks them
	failExit  int32  // self-check fail exit index, or -1
}

// newEmitter starts an emitter on an emptied scratch.
func newEmitter(sc *scratch, region *ir.Region, pol Policy, host vliw.HostConfig, assign []vliw.HReg) *emitter {
	sc.atoms = sc.atoms[:0]
	sc.fixAtoms = sc.fixAtoms[:0]
	return &emitter{sc: sc, region: region, pol: pol, host: host, assign: assign}
}

func hregOrZero(assign []vliw.HReg, v ir.VReg) vliw.HReg {
	if v == ir.NoVReg {
		return vliw.RZero
	}
	return assign[v]
}

func (em *emitter) push(sa satom) *satom {
	sa.exitIdx = -1
	em.sc.atoms = append(em.sc.atoms, sa)
	return &em.sc.atoms[len(em.sc.atoms)-1]
}

// codegen lowers IR to satoms (1:1 or close), in program order.
func (em *emitter) codegen() error {
	sc := em.sc
	// IR-level def versions, for disjointness.
	sc.ver = zeroed(sc.ver, len(em.assign))
	hr := func(v ir.VReg) vliw.HReg { return hregOrZero(em.assign, v) }
	// hrF maps a flag-image vreg; NoVReg means the architectural RFlags.
	hrF := func(v ir.VReg) vliw.HReg {
		if v == ir.NoVReg {
			return vliw.RFlags
		}
		return em.assign[v]
	}

	for ii := range em.region.Code {
		i := &em.region.Code[ii]
		gidx := int16(i.GIdx)
		base := vliw.Atom{GIdx: gidx, ProtIdx: vliw.NoAliasIdx}

		switch i.Op {
		case ir.OpNop:
		case ir.OpBoundary:
			if i.Serialize {
				a := base
				a.Op, a.Imm = vliw.ACommit, i.Imm
				em.push(satom{a: a, isBarrier: true})
			}
		case ir.OpConst:
			a := base
			a.Op, a.Rd, a.Imm = vliw.AMovI, hr(i.Dst), i.Imm
			em.push(satom{a: a})
		case ir.OpMov:
			a := base
			a.Op, a.Rd, a.Ra = vliw.AMov, hr(i.Dst), hr(i.A)
			em.push(satom{a: a})

		case ir.OpAdd, ir.OpSub, ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr, ir.OpSar,
			ir.OpAddCC, ir.OpSubCC, ir.OpAndCC, ir.OpOrCC, ir.OpXorCC,
			ir.OpShlCC, ir.OpShrCC, ir.OpSarCC:
			a := base
			a.Op = aluAtomOp(i.Op, i.B == ir.NoVReg)
			a.Rd, a.Ra = hr(i.Dst), hr(i.A)
			if i.Op.SetsFlags() {
				a.Fs, a.Fd = hrF(i.FIn), hrF(i.FOut)
			}
			if i.B == ir.NoVReg {
				a.Imm = i.Imm
			} else {
				a.Rb = hr(i.B)
			}
			em.push(satom{a: a})

		case ir.OpAdcCC, ir.OpSbbCC:
			a := base
			if i.Op == ir.OpAdcCC {
				a.Op = vliw.AAdcCC
				if i.B == ir.NoVReg {
					a.Op = vliw.AAdcICC
				}
			} else {
				a.Op = vliw.ASbbCC
				if i.B == ir.NoVReg {
					a.Op = vliw.ASbbICC
				}
			}
			a.Rd, a.Ra = hr(i.Dst), hr(i.A)
			a.Fs, a.Fd = hrF(i.FIn), hrF(i.FOut)
			if i.B == ir.NoVReg {
				a.Imm = i.Imm
			} else {
				a.Rb = hr(i.B)
			}
			em.push(satom{a: a})

		case ir.OpIncCC, ir.OpDecCC, ir.OpNegCC:
			a := base
			switch i.Op {
			case ir.OpIncCC:
				a.Op = vliw.AIncCC
			case ir.OpDecCC:
				a.Op = vliw.ADecCC
			default:
				a.Op = vliw.ANegCC
			}
			a.Rd, a.Ra = hr(i.Dst), hr(i.A)
			a.Fs, a.Fd = hrF(i.FIn), hrF(i.FOut)
			em.push(satom{a: a})

		case ir.OpImulCC:
			a := base
			a.Op, a.Rd, a.Ra = vliw.AImulCC, hr(i.Dst), hr(i.A)
			a.Fs, a.Fd = hrF(i.FIn), hrF(i.FOut)
			if i.B == ir.NoVReg {
				// Immediate multiply: materialize through a reserved scratch.
				c := base
				c.Op, c.Rd, c.Imm = vliw.AMovI, vliw.RScratch0, i.Imm
				em.push(satom{a: c})
				a.Rb = vliw.RScratch0
			} else {
				a.Rb = hr(i.B)
			}
			em.push(satom{a: a})
		case ir.OpMul64:
			a := base
			a.Op, a.Rd, a.Rd2, a.Ra, a.Rb = vliw.AMul64, hr(i.Dst), hr(i.Dst2), hr(i.A), hr(i.B)
			a.Fs, a.Fd = hrF(i.FIn), hrF(i.FOut)
			em.push(satom{a: a})
		case ir.OpDivU, ir.OpDivS:
			a := base
			a.Op = vliw.ADivU
			if i.Op == ir.OpDivS {
				a.Op = vliw.ADivS
			}
			a.Rd, a.Rd2, a.Ra, a.Rb, a.Rc = hr(i.Dst), hr(i.Dst2), hr(i.A), hr(i.B), hr(i.C)
			em.push(satom{a: a, isDiv: true})

		case ir.OpLd8, ir.OpLd32:
			a := base
			a.Op, a.Rd, a.Ra, a.Imm = vliw.ALd, hr(i.Dst), hr(i.A), i.Imm
			a.Size = 4
			if i.Op == ir.OpLd8 {
				a.Size = 1
			}
			sa := satom{a: a, isLoad: true, smcCheck: i.SMCCheck,
				noReorder: i.NoReorder || i.Serialize,
				memKnown:  true, baseV: i.A, baseVer: sc.verOf(i.A), disp: i.Imm, size: a.Size}
			if i.Serialize {
				sa.isBarrier = true
			}
			em.push(sa)
		case ir.OpSt8, ir.OpSt32:
			a := base
			a.Op, a.Ra, a.Rb, a.Imm = vliw.ASt, hr(i.A), hr(i.B), i.Imm
			a.Size = 4
			if i.Op == ir.OpSt8 {
				a.Size = 1
			}
			sa := satom{a: a, isStore: true,
				noReorder: i.NoReorder || i.Serialize,
				memKnown:  true, baseV: i.A, baseVer: sc.verOf(i.A), disp: i.Imm, size: a.Size}
			if i.Serialize {
				sa.isBarrier = true
			}
			em.push(sa)

		case ir.OpIn:
			a := base
			a.Op, a.Rd, a.Imm = vliw.AIn, hr(i.Dst), i.Imm
			em.push(satom{a: a, isBarrier: true})
		case ir.OpOut:
			a := base
			a.Op, a.Rb, a.Imm = vliw.AOut, hr(i.B), i.Imm
			em.push(satom{a: a, isStore: true})

		case ir.OpExitIf:
			a := base
			a.Op, a.Cond = vliw.ABrCC, i.Cond
			a.Fs = hrF(i.FIn)
			sa := em.push(satom{a: a, isExit: true})
			sa.exitIdx = i.Exit
			sa.fixOff = int32(len(sc.fixAtoms))
			for _, fx := range em.region.Exits[i.Exit].Fixups {
				sc.fixAtoms = append(sc.fixAtoms, vliw.Atom{
					Op: vliw.AMov, Rd: hr(fx.Guest), Ra: hr(fx.Src),
					GIdx: gidx, ProtIdx: vliw.NoAliasIdx,
				})
			}
			sa.fixN = int32(len(sc.fixAtoms)) - sa.fixOff
		case ir.OpExit:
			a := base
			a.Op, a.Imm, a.Commit = vliw.AExit, uint32(i.Exit), true
			sa := em.push(satom{a: a, isExit: true})
			sa.exitIdx = i.Exit
		case ir.OpExitInd:
			a := base
			a.Op, a.Ra, a.Imm, a.Commit = vliw.AExitInd, hr(i.A), uint32(i.Exit), true
			sa := em.push(satom{a: a, isExit: true})
			sa.exitIdx = i.Exit

		default:
			return fmt.Errorf("xlate: codegen cannot handle %v", i.Op)
		}

		sc.vregs = i.Defs(sc.vregs[:0])
		for _, d := range sc.vregs {
			sc.ver[d]++
		}
	}
	return nil
}

// aluAtoms maps an IR ALU op (plain or CC) to its register and immediate
// atom forms.
var aluAtoms = [...]struct{ r, i vliw.AtomOp }{
	ir.OpAdd: {vliw.AAdd, vliw.AAddI}, ir.OpSub: {vliw.ASub, vliw.ASubI},
	ir.OpAnd: {vliw.AAnd, vliw.AAndI}, ir.OpOr: {vliw.AOr, vliw.AOrI},
	ir.OpXor: {vliw.AXor, vliw.AXorI}, ir.OpShl: {vliw.AShl, vliw.AShlI},
	ir.OpShr: {vliw.AShr, vliw.AShrI}, ir.OpSar: {vliw.ASar, vliw.ASarI},
	ir.OpAddCC: {vliw.AAddCC, vliw.AAddICC}, ir.OpSubCC: {vliw.ASubCC, vliw.ASubICC},
	ir.OpAndCC: {vliw.AAndCC, vliw.AAndICC}, ir.OpOrCC: {vliw.AOrCC, vliw.AOrICC},
	ir.OpXorCC: {vliw.AXorCC, vliw.AXorICC}, ir.OpShlCC: {vliw.AShlCC, vliw.AShlICC},
	ir.OpShrCC: {vliw.AShrCC, vliw.AShrICC}, ir.OpSarCC: {vliw.ASarCC, vliw.ASarICC},
}

// aluAtomOp maps an IR ALU op (plain or CC) to the matching atom op; any
// other op maps to ANop.
func aluAtomOp(op ir.Op, imm bool) vliw.AtomOp {
	if int(op) >= len(aluAtoms) {
		return vliw.ANop
	}
	if imm {
		return aluAtoms[op].i
	}
	return aluAtoms[op].r
}

// disjoint reports whether two memory references provably never overlap —
// the only reordering license a machine without alias hardware has (§3.5).
func disjoint(a, b *satom) bool {
	if !a.memKnown || !b.memKnown {
		return false
	}
	sameBase := a.baseV == b.baseV && a.baseVer == b.baseVer
	if a.baseV == ir.NoVReg && b.baseV == ir.NoVReg {
		sameBase = true
	}
	if !sameBase {
		return false
	}
	aLo, aHi := a.disp, a.disp+uint32(a.size)
	bLo, bHi := b.disp, b.disp+uint32(b.size)
	return aHi <= bLo || bHi <= aLo
}

// addDep records a dependence edge from -> to (indices), delta molecules.
// buildDeps adds every edge into an atom while it visits that atom, so the
// flat predecessor array comes out grouped by atom, in program order.
func (em *emitter) addDep(to, from, delta int) {
	if from < 0 || from == to {
		return
	}
	em.sc.preds = append(em.sc.preds, dep{atom: int32(from), delta: int32(delta)})
}

// predsOf returns the predecessor edges of atom j (valid after buildDeps).
func (sc *scratch) predsOf(j int) []dep {
	return sc.preds[sc.ints[j]:sc.ints[j+1]]
}

// exitReads are the registers a commit makes architectural: every exit and
// barrier reads the pinned guest registers and the flags.
var exitReads = [...]vliw.HReg{0, 1, 2, 3, 4, 5, 6, 7, vliw.RFlags}

// buildDeps constructs the dependence graph under the active policy. This
// is where speculation lives: omitted edges are the freedoms §3.2-§3.5
// grant, and the alias check masks record the runtime checks they require.
func (em *emitter) buildDeps() {
	sc := em.sc
	atoms := sc.atoms
	n := len(atoms)
	// ints[0..n] are the per-atom offsets into preds; schedule carves its
	// own arrays from the rest of the slab.
	sc.ints = zeroed(sc.ints, schedInts(n))
	predOff := sc.ints[:n+1]
	sc.preds = sc.preds[:0]

	// Dense per-register tracking: host registers are a small fixed range,
	// so slices beat maps for the scheduler's inner loops.
	var lastDef [vliw.NumHRegs]int
	lastUses := &sc.lastUses
	for r := range lastDef {
		lastDef[r] = -1
		lastUses[r] = lastUses[r][:0]
	}

	lastBarrier := -1
	lastStore := -1
	lastExit := -1
	loadsSinceExit := sc.loadsSinceExit[:0]
	divsSinceExit := sc.divsSinceExit[:0]
	storesSince := sc.storesSince[:0]       // stores since last barrier
	uncheckedLoads := sc.uncheckedLoads[:0] // loads since last barrier, which stores must not pass

	for j := range atoms {
		sa := &atoms[j]
		predOff[j] = len(sc.preds)
		srcs := vliw.AppendSourceRegs(sc.regs[:0], &sa.a)
		if sa.isExit || sa.isBarrier {
			srcs = append(srcs, exitReads[:]...)
			for _, fx := range sc.fixAtoms[sa.fixOff : sa.fixOff+sa.fixN] {
				srcs = append(srcs, fx.Ra)
			}
		}
		nsrc := len(srcs)
		srcs = vliw.AppendDestRegs(srcs, &sa.a)
		sc.regs = srcs
		srcs, dsts := srcs[:nsrc], srcs[nsrc:]

		// Register dependences.
		for _, s := range srcs {
			if d := lastDef[s]; d >= 0 {
				em.addDep(j, d, em.host.Latency(atoms[d].a.Op))
			}
		}
		for _, d := range dsts {
			if p := lastDef[d]; p >= 0 {
				em.addDep(j, p, 1) // WAW
			}
			for _, u := range lastUses[d] {
				delta := 0
				if atoms[u].isExit || atoms[u].isBarrier {
					delta = 1 // writes must stay strictly after commits
				}
				em.addDep(j, u, delta) // WAR
			}
		}

		// Barriers order everything.
		em.addDep(j, lastBarrier, 1)
		if sa.isBarrier {
			for k := 0; k < j; k++ {
				em.addDep(j, k, 1)
			}
			lastBarrier = j
			lastStore = -1
			storesSince = storesSince[:0]
			loadsSinceExit = loadsSinceExit[:0]
			divsSinceExit = divsSinceExit[:0]
			uncheckedLoads = uncheckedLoads[:0]
		}

		switch {
		case sa.isStore:
			em.addDep(j, lastStore, 1)         // stores stay ordered
			em.addDep(j, lastExit, 1)          // stores never cross exits
			for _, l := range uncheckedLoads { // stores never pass earlier loads
				em.addDep(j, l, 1)
			}
			// Self-check entries guard every store (§3.6.3).
			sa.a.CheckMask |= em.smcMask
			lastStore = j
			storesSince = append(storesSince, j)

		case sa.isLoad:
			hoistable := !em.pol.NoHoistLoads && !sa.noReorder && !sa.smcCheck
			if !hoistable {
				em.addDep(j, lastExit, 1)
			}
			// Load versus earlier stores.
			for _, s := range storesSince {
				st := &atoms[s]
				switch {
				case em.pol.NoReorderMem || sa.noReorder || st.noReorder:
					em.addDep(j, s, 1)
				case em.pol.NoAliasHW:
					if !disjoint(sa, st) {
						em.addDep(j, s, 1)
					}
				default:
					// Reorder under alias protection: allocate an entry for
					// this load if needed; the store checks it.
					if sa.a.ProtIdx == vliw.NoAliasIdx {
						if em.aliasNext >= vliw.AliasTableSize {
							em.addDep(j, s, 1) // out of entries: stay ordered
							continue
						}
						sa.a.ProtIdx = int8(em.aliasNext)
						em.aliasNext++
					}
					st.a.CheckMask |= 1 << uint(sa.a.ProtIdx)
				}
			}
			// Stores never pass loads in either policy: a store scheduled
			// before an earlier load would wrongly forward to it.
			uncheckedLoads = append(uncheckedLoads, j)
			loadsSinceExit = append(loadsSinceExit, j)

		case sa.isDiv:
			if em.pol.NoHoistLoads {
				em.addDep(j, lastExit, 1)
			}
			divsSinceExit = append(divsSinceExit, j)

		case sa.isExit:
			em.addDep(j, lastExit, 1)
			em.addDep(j, lastStore, 0)
			for _, l := range loadsSinceExit {
				em.addDep(j, l, 0) // loads may not sink below their exit
			}
			for _, d := range divsSinceExit {
				em.addDep(j, d, 0)
			}
			lastExit = j
			loadsSinceExit = loadsSinceExit[:0]
			divsSinceExit = divsSinceExit[:0]
		}

		// Update register tracking.
		for _, s := range srcs {
			lastUses[s] = append(lastUses[s], j)
		}
		for _, d := range dsts {
			lastDef[d] = j
			lastUses[d] = lastUses[d][:0]
		}
	}
	predOff[n] = len(sc.preds)
	sc.loadsSinceExit, sc.divsSinceExit = loadsSinceExit, divsSinceExit
	sc.storesSince, sc.uncheckedLoads = storesSince, uncheckedLoads
}

// schedInts is the size of the integer slab buildDeps and schedule share for
// n atoms: predecessor offsets (n+1), successor offsets (n+2), and seven
// per-atom arrays.
func schedInts(n int) int { return (n + 1) + (n + 2) + 7*n }

// schedule runs list scheduling and lays out the final code, appending exit
// stubs and resolving branch targets.
func (em *emitter) schedule() (*vliw.Code, error) {
	sc := em.sc
	atoms := sc.atoms
	n := len(atoms)
	rest := sc.ints[n+1:]
	carve := func(k int) []int {
		s := rest[:k:k]
		rest = rest[k:]
		return s
	}
	succOff := carve(n + 2)
	indeg := carve(n)
	height := carve(n)
	earliest := carve(n)
	scheduledAt := carve(n)
	atomSlot := carve(n)
	ready := carve(n)[:0]
	pending := carve(n)[:0]

	// Successor edges, grouped by atom, by counting sort over the
	// predecessor edges. Counts go in two slots past the atom's own, so that
	// after the prefix sum succOff[f+1] is where f's edges start, and after
	// the fill (which advances it) where they end: succOff[f]..succOff[f+1].
	for j := 0; j < n; j++ {
		for _, p := range sc.predsOf(j) {
			succOff[p.atom+2]++
			indeg[j]++
		}
	}
	for f := 2; f < len(succOff); f++ {
		succOff[f] += succOff[f-1]
	}
	if cap(sc.succs) < len(sc.preds) {
		sc.succs = make([]dep, len(sc.preds), len(sc.preds)+len(sc.preds)/4)
	}
	succs := sc.succs[:len(sc.preds)]
	sc.succs = succs
	for j := 0; j < n; j++ {
		for _, p := range sc.predsOf(j) {
			succs[succOff[p.atom+1]] = dep{atom: int32(j), delta: p.delta}
			succOff[p.atom+1]++
		}
	}
	succsOf := func(j int) []dep { return succs[succOff[j]:succOff[j+1]] }

	// Critical-path heights for priority.
	for j := n - 1; j >= 0; j-- {
		h := 0
		for _, s := range succsOf(j) {
			if t := height[s.atom] + int(s.delta) + 1; t > h {
				h = t
			}
		}
		height[j] = h
	}

	for j := range scheduledAt {
		scheduledAt[j] = -1
	}
	remaining := n
	for j := 0; j < n; j++ {
		if indeg[j] == 0 {
			ready = append(ready, j)
		}
	}

	molLen := sc.molLen[:0] // atoms issued per cycle
	cands, taken := sc.cands, sc.taken
	cycle := 0
	guard := 0
	for remaining > 0 {
		guard++
		if guard > 100*n+1000 {
			return nil, fmt.Errorf("xlate: scheduler livelock (%d atoms left)", remaining)
		}
		// Candidates ready at this cycle, best priority first.
		cands = candsInto(cands[:0], ready, earliest, cycle, height)
		var alu, memu, media, br int
		taken = taken[:0]
		for _, j := range cands {
			if len(taken) >= em.host.Width {
				break
			}
			switch vliw.UnitOf(atoms[j].a.Op) {
			case vliw.UnitALU:
				if alu == em.host.ALUs {
					continue
				}
				alu++
			case vliw.UnitMem:
				if memu == em.host.MemUnits {
					continue
				}
				memu++
			case vliw.UnitMedia:
				if media == em.host.MediaUnits {
					continue
				}
				media++
			case vliw.UnitBranch:
				if br == em.host.BranchUnits {
					continue
				}
				br++
			}
			atomSlot[j] = len(taken)
			taken = append(taken, j)
		}
		for _, j := range taken {
			scheduledAt[j] = cycle
			remaining--
			ready = removeFrom(ready, j)
			for _, s := range succsOf(j) {
				indeg[s.atom]--
				if indeg[s.atom] == 0 {
					pending = append(pending, int(s.atom))
				}
			}
		}
		// Recompute earliest for newly released atoms.
		for _, s := range pending {
			e := 0
			for _, p := range sc.predsOf(s) {
				if t := scheduledAt[p.atom] + int(p.delta); t > e {
					e = t
				}
			}
			earliest[s] = e
			ready = append(ready, s)
		}
		pending = pending[:0]
		molLen = append(molLen, len(taken))
		cycle++
	}
	sc.molLen, sc.cands, sc.taken = molLen, cands, taken
	return em.layout(molLen, scheduledAt, atomSlot)
}

// layout builds the Code the schedule describes: the body's molecules, then
// one stub per region exit that is reached by a branch. The Code is the
// translation's output and outlives the scratch, so it is allocated here,
// exactly sized — one Molecule array, and one Atom array every molecule
// slices its own atoms from — and nothing in it points back into the scratch.
func (em *emitter) layout(molLen, scheduledAt, atomSlot []int) (*vliw.Code, error) {
	sc := em.sc
	atoms := sc.atoms

	// Size the stubs: fixup copies first (two ALU slots per molecule), then
	// the committing exit; the last pair shares the exit's molecule.
	nMols, nAtoms := len(molLen), len(atoms)
	sc.stubAt = zeroed(sc.stubAt, len(em.region.Exits))
	stubAt := sc.stubAt // molecule index + 1 of the exit's stub; 0 = none yet
	stubAtoms := sc.stubAtoms[:0]
	for j := range atoms {
		sa := &atoms[j]
		if sa.a.Op != vliw.ABrCC && sa.a.Op != vliw.ABrNZ {
			continue
		}
		if sa.exitIdx < 0 || int(sa.exitIdx) >= len(stubAt) {
			return nil, fmt.Errorf("xlate: branch atom %d has no region exit", j)
		}
		if stubAt[sa.exitIdx] != 0 {
			continue
		}
		stubAt[sa.exitIdx] = int32(nMols) + 1
		stubAtoms = append(stubAtoms, j)
		nMols += 1 + max(0, int(sa.fixN)-1)/2
		nAtoms += int(sa.fixN) + 1
	}
	sc.stubAtoms = stubAtoms

	code := &vliw.Code{Mols: make([]vliw.Molecule, nMols), NumExits: len(em.region.Exits)}
	backing := make([]vliw.Atom, nAtoms)
	// take hands out the next k atoms of the backing array as one molecule
	// (capacity-limited: an append can never spill into a neighbour).
	mi := 0
	take := func(k int) []vliw.Atom {
		mol := backing[:k:k]
		backing = backing[k:]
		if k > 0 {
			code.Mols[mi].Atoms = mol
		}
		mi++
		return mol
	}
	for _, k := range molLen {
		take(k)
	}
	for j := range atoms {
		code.Mols[scheduledAt[j]].Atoms[atomSlot[j]] = atoms[j].a
	}

	// Mark actually reordered memory accesses: a load is "reordered" in the
	// §3.4 hardware sense when some program-earlier memory operation or
	// exit ended up scheduled no earlier than it.
	for j := range atoms {
		sa := &atoms[j]
		if !sa.isLoad {
			continue
		}
		for i := 0; i < j; i++ {
			o := &atoms[i]
			if (o.isLoad || o.isStore || o.isExit || o.isBarrier) && scheduledAt[i] >= scheduledAt[j] {
				code.Mols[scheduledAt[j]].Atoms[atomSlot[j]].Reordered = true
				break
			}
		}
	}

	for _, j := range stubAtoms {
		sa := &atoms[j]
		commit := em.region.Exits[sa.exitIdx].Kind != ir.ExitSelfCheckFail
		fixups := sc.fixAtoms[sa.fixOff : sa.fixOff+sa.fixN]
		for len(fixups) > 2 {
			copy(take(2), fixups)
			fixups = fixups[2:]
		}
		last := take(len(fixups) + 1)
		copy(last, fixups)
		last[len(fixups)] = vliw.Atom{
			Op: vliw.AExit, Imm: uint32(sa.exitIdx), Commit: commit,
			GIdx: -1, ProtIdx: vliw.NoAliasIdx,
		}
	}
	for j := range atoms {
		sa := &atoms[j]
		if sa.a.Op == vliw.ABrCC || sa.a.Op == vliw.ABrNZ {
			code.Mols[scheduledAt[j]].Atoms[atomSlot[j]].Target = stubAt[sa.exitIdx] - 1
		}
	}
	return code, nil
}

// candsInto appends the atoms ready at this cycle to out (a scratch buffer
// reused across cycles), ordered best priority first: height descending,
// index ascending. Candidate lists are small, so an insertion sort beats
// sort.Slice's closure indirection in the scheduler's innermost loop.
func candsInto(out, ready []int, earliest []int, cycle int, height []int) []int {
	for _, j := range ready {
		if earliest[j] <= cycle {
			out = append(out, j)
		}
	}
	for i := 1; i < len(out); i++ {
		v := out[i]
		k := i
		for k > 0 && (height[out[k-1]] < height[v] ||
			(height[out[k-1]] == height[v] && out[k-1] > v)) {
			out[k] = out[k-1]
			k--
		}
		out[k] = v
	}
	return out
}

func removeFrom(s []int, v int) []int {
	for i, x := range s {
		if x == v {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// checkWord is one self-check comparison unit.
type checkWord struct {
	addr uint32
	want uint32
	mask uint32 // bits that must match (0xFFFFFFFF normally)
}

// emitSelfCheck prepends self-checking atoms (§3.6.3): load each source
// word, compare against the snapshot, accumulate mismatches, and branch to
// the fail exit. The check loads take alias entries so that stores within
// the translation body are checked against the code region itself.
func (em *emitter) emitSelfCheck(words []checkWord, accReg, tReg, xReg vliw.HReg) {
	em.failExit = em.region.AddExit(ir.Exit{Kind: ir.ExitSelfCheckFail})
	z := vliw.Atom{Op: vliw.AMovI, Rd: accReg, GIdx: -1, ProtIdx: vliw.NoAliasIdx}
	em.push(satom{a: z})
	for _, w := range words {
		ld := vliw.Atom{Op: vliw.ALd, Rd: tReg, Ra: vliw.RZero, Imm: w.addr, Size: 4,
			GIdx: -1, ProtIdx: vliw.NoAliasIdx}
		if em.aliasNext < vliw.AliasTableSize {
			ld.ProtIdx = int8(em.aliasNext)
			em.smcMask |= 1 << uint(em.aliasNext)
			em.aliasNext++
		}
		em.push(satom{a: ld, isLoad: true, smcCheck: true})
		x := vliw.Atom{Op: vliw.AXorI, Rd: xReg, Ra: tReg, Imm: w.want, GIdx: -1, ProtIdx: vliw.NoAliasIdx}
		em.push(satom{a: x})
		if w.mask != 0xFFFFFFFF {
			m := vliw.Atom{Op: vliw.AAndI, Rd: xReg, Ra: xReg, Imm: w.mask, GIdx: -1, ProtIdx: vliw.NoAliasIdx}
			em.push(satom{a: m})
		}
		o := vliw.Atom{Op: vliw.AOr, Rd: accReg, Ra: accReg, Rb: xReg, GIdx: -1, ProtIdx: vliw.NoAliasIdx}
		em.push(satom{a: o})
	}
	brnz := vliw.Atom{Op: vliw.ABrNZ, Ra: accReg, GIdx: -1, ProtIdx: vliw.NoAliasIdx}
	sa := em.push(satom{a: brnz, isExit: true})
	sa.exitIdx = em.failExit
}
