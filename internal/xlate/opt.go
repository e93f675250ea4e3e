package xlate

import "cms/internal/ir"

// optimize runs the translator's optimization pipeline on a region:
// dead-flag elimination, copy/constant propagation with folding, local value
// numbering (CSE), and dead code elimination. The region is a straight line
// with side exits, so forward dataflow needs no joins and backward liveness
// no fixpoints.
func (sc *scratch) optimize(r *ir.Region) {
	sc.deadFlagElim(r)
	sc.propagate(r)
	sc.cse(r)
	sc.dce(r)
}

// deadFlagElim downgrades flag-computing ops whose flag image is never
// consumed — the bread-and-butter win of translating a flags-on-every-op
// guest ISA. It runs after the rename pass, when every flag image is an
// explicit single-definition temporary, so "dead" is an exact use count:
// x86's partial updates (INC preserving CF, shifts by zero preserving
// everything) are already explicit dataflow through FIn and cannot be
// miscounted. Downgrading removes FIn uses, so the pass iterates to a
// fixpoint (carry chains release their producers layer by layer).
func (sc *scratch) deadFlagElim(r *ir.Region) {
	nv := int(maxVReg(r)) + 1
	for {
		sc.ver = zeroed(sc.ver, nv)
		uses := sc.ver
		for idx := range r.Code {
			sc.vregs = r.Code[idx].Uses(sc.vregs[:0])
			for _, u := range sc.vregs {
				uses[u]++
			}
		}
		// Exit fixups read their sources in the stub. (A source the code
		// never mentions cannot be anyone's flag output.)
		for _, e := range r.Exits {
			for _, fx := range e.Fixups {
				if int(fx.Src) < nv {
					uses[fx.Src]++
				}
			}
		}
		changed := false
		for idx := range r.Code {
			i := &r.Code[idx]
			if !i.Op.SetsFlags() || i.FOut == ir.NoVReg || uses[i.FOut] > 0 {
				continue
			}
			if downgrade(i) {
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// downgrade strips the flag computation from a CC op whose flag output is
// dead, reporting whether anything changed.
func downgrade(i *ir.Instr) bool {
	switch i.Op {
	case ir.OpIncCC:
		i.Op, i.Imm, i.B = ir.OpAdd, 1, ir.NoVReg
	case ir.OpDecCC:
		i.Op, i.Imm, i.B = ir.OpSub, 1, ir.NoVReg
	case ir.OpNegCC, ir.OpImulCC, ir.OpMul64, ir.OpAdcCC, ir.OpSbbCC:
		// No plain form with the same operand shape (ADC/SBB also consume
		// CF); DCE removes them if the value is dead too.
		return false
	default:
		p, ok := ir.PlainOf(i.Op)
		if !ok {
			return false
		}
		i.Op = p
	}
	i.FIn, i.FOut = ir.NoVReg, ir.NoVReg
	return true
}

// valKind is the propagation lattice.
type valKind uint8

const (
	vUnknown valKind = iota
	vConst
	vCopy
)

type valInfo struct {
	kind valKind
	c    uint32
	src  ir.VReg
	ver  int // version of src at record time
}

// propagate performs forward copy and constant propagation with folding.
func (sc *scratch) propagate(r *ir.Region) {
	nv := int(maxVReg(r)) + 1
	sc.val = zeroed(sc.val, nv)
	sc.ver = zeroed(sc.ver, nv)
	val, ver := sc.val, sc.ver

	resolve := func(v ir.VReg) ir.VReg {
		if v == ir.NoVReg {
			return v
		}
		if in := val[v]; in.kind == vCopy && ver[in.src] == in.ver {
			return in.src
		}
		return v
	}
	constOf := func(v ir.VReg) (uint32, bool) {
		if v == ir.NoVReg {
			return 0, false
		}
		if in := val[v]; in.kind == vConst {
			return in.c, true
		}
		return 0, false
	}

	for idx := range r.Code {
		i := &r.Code[idx]
		i.A, i.B, i.C = resolve(i.A), resolve(i.B), resolve(i.C)

		// Absorb a constant B into the immediate form where the atom set
		// supports it.
		switch i.Op {
		case ir.OpAdd, ir.OpSub, ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr, ir.OpSar,
			ir.OpAddCC, ir.OpSubCC, ir.OpAndCC, ir.OpOrCC, ir.OpXorCC,
			ir.OpShlCC, ir.OpShrCC, ir.OpSarCC:
			if c, ok := constOf(i.B); ok {
				i.B, i.Imm = ir.NoVReg, c
			}
		}

		// Constant folding for pure plain ops.
		switch i.Op {
		case ir.OpMov:
			if c, ok := constOf(i.A); ok {
				i.Op, i.A, i.Imm = ir.OpConst, ir.NoVReg, c
			}
		case ir.OpAdd, ir.OpSub, ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr, ir.OpSar:
			ca, okA := constOf(i.A)
			cb, okB := constOf(i.B)
			if i.B == ir.NoVReg {
				cb, okB = i.Imm, true
			}
			if okA && okB {
				i.Imm = foldALU(i.Op, ca, cb)
				i.Op, i.A, i.B = ir.OpConst, ir.NoVReg, ir.NoVReg
			}
		}

		// Update lattice for defs.
		sc.vregs = i.Defs(sc.vregs[:0])
		for _, d := range sc.vregs {
			ver[d]++
			val[d] = valInfo{}
		}
		switch i.Op {
		case ir.OpConst:
			val[i.Dst] = valInfo{kind: vConst, c: i.Imm}
		case ir.OpMov:
			val[i.Dst] = valInfo{kind: vCopy, src: i.A, ver: ver[i.A]}
		}
	}
}

func foldALU(op ir.Op, a, b uint32) uint32 {
	switch op {
	case ir.OpAdd:
		return a + b
	case ir.OpSub:
		return a - b
	case ir.OpAnd:
		return a & b
	case ir.OpOr:
		return a | b
	case ir.OpXor:
		return a ^ b
	case ir.OpShl:
		return a << (b & 31)
	case ir.OpShr:
		return a >> (b & 31)
	case ir.OpSar:
		return uint32(int32(a) >> (b & 31))
	}
	return 0
}

// cseKey identifies a pure computation for value numbering.
type cseKey struct {
	op       ir.Op
	a, b     ir.VReg
	aV, bV   int
	imm      uint32
	memEpoch int
}

// cseBinding is the vreg holding a computed value, at a def version.
type cseBinding struct {
	v   ir.VReg
	ver int
}

// cse performs local value numbering over pure plain ops, constants, and
// loads (loads are versioned by a memory epoch bumped at every store or
// barrier).
func (sc *scratch) cse(r *ir.Region) {
	if sc.cseTab == nil {
		sc.cseTab = make(map[cseKey]cseBinding)
	}
	clear(sc.cseTab)
	table := sc.cseTab
	sc.ver = zeroed(sc.ver, int(maxVReg(r))+1)
	epoch := 0

	for idx := range r.Code {
		i := &r.Code[idx]

		eligible := false
		key := cseKey{op: i.Op, a: i.A, b: i.B, imm: i.Imm}
		switch i.Op {
		case ir.OpConst:
			eligible = true
		case ir.OpAdd, ir.OpSub, ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr, ir.OpSar:
			eligible = true
			key.aV, key.bV = sc.verOf(i.A), sc.verOf(i.B)
		case ir.OpLd8, ir.OpLd32:
			// Serialized or SMC-check loads are not shareable.
			if !i.Serialize && !i.SMCCheck {
				eligible = true
				key.aV = sc.verOf(i.A)
				key.memEpoch = epoch
			}
		}

		if eligible {
			if b, ok := table[key]; ok && sc.ver[b.v] == b.ver {
				// Replace with a copy from the prior value.
				dst, gidx := i.Dst, i.GIdx
				*i = ir.New(ir.OpMov)
				i.Dst, i.A, i.GIdx = dst, b.v, gidx
			}
		}

		sc.vregs = i.Defs(sc.vregs[:0])
		for _, d := range sc.vregs {
			sc.ver[d]++
		}
		if eligible && i.Op != ir.OpMov {
			table[key] = cseBinding{v: i.Dst, ver: sc.ver[i.Dst]}
		}
		switch {
		case i.Op.IsStore(), i.Op == ir.OpIn, i.Op == ir.OpOut:
			epoch++
		case i.Op == ir.OpBoundary && i.Serialize:
			epoch++
		}
	}
}

// dce removes pure instructions whose results are never used. Loads and
// divides are kept even when dead: their faults are architecturally
// meaningful and nothing at run time would verify the "never faults"
// speculation a removal would amount to.
func (sc *scratch) dce(r *ir.Region) {
	sc.live = zeroed(sc.live, int(maxVReg(r))+1)
	sc.keep = zeroed(sc.keep, len(r.Code))
	live, keep := sc.live, sc.keep

	markGuestLive := func() {
		for v := ir.VReg(0); v <= ir.VFlags; v++ {
			live[v] = true
		}
	}

	for idx := len(r.Code) - 1; idx >= 0; idx-- {
		i := &r.Code[idx]
		removable := false
		switch i.Op {
		case ir.OpNop:
			removable = true
		case ir.OpConst, ir.OpMov,
			ir.OpAdd, ir.OpSub, ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr, ir.OpSar,
			ir.OpAddCC, ir.OpSubCC, ir.OpAndCC, ir.OpOrCC, ir.OpXorCC,
			ir.OpShlCC, ir.OpShrCC, ir.OpSarCC,
			ir.OpIncCC, ir.OpDecCC, ir.OpNegCC, ir.OpImulCC, ir.OpMul64,
			ir.OpAdcCC, ir.OpSbbCC:
			removable = true
		}
		sc.vregs = i.Defs(sc.vregs[:0])
		allDead := true
		for _, d := range sc.vregs {
			if live[d] {
				allDead = false
			}
		}
		if removable && allDead && len(sc.vregs) > 0 {
			continue // dropped
		}
		keep[idx] = true
		for _, d := range sc.vregs {
			live[d] = false
		}
		if i.Op.IsExit() || (i.Op == ir.OpBoundary && i.Serialize) {
			markGuestLive()
		}
		if i.Op == ir.OpExitIf {
			for _, fx := range r.Exits[i.Exit].Fixups {
				if int(fx.Src) < len(live) {
					live[fx.Src] = true
				}
			}
		}
		sc.vregs = i.Uses(sc.vregs[:0])
		for _, u := range sc.vregs {
			live[u] = true
		}
	}

	out := r.Code[:0]
	for idx := range r.Code {
		if keep[idx] {
			out = append(out, r.Code[idx])
		}
	}
	r.Code = out
}
