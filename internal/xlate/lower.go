package xlate

import (
	"fmt"

	"cms/internal/guest"
	"cms/internal/ir"
)

// lowerer turns a guest trace into IR.
type lowerer struct {
	r   *ir.Region
	pol Policy
	// mmio flags, by trace index, the instructions the interpreter saw
	// touching MMIO (nil: none).
	mmio     []bool
	nextTemp ir.VReg
}

func (lw *lowerer) temp() ir.VReg {
	v := lw.nextTemp
	lw.nextTemp++
	return v
}

func (lw *lowerer) emit(i ir.Instr) *ir.Instr {
	lw.r.Code = append(lw.r.Code, i)
	return &lw.r.Code[len(lw.r.Code)-1]
}

// lower builds the IR for a selected trace into the scratch's region.
func (sc *scratch) lower(entry uint32, insns []guest.Insn, pol Policy, mmio []bool) (*ir.Region, error) {
	r := &sc.region
	*r = ir.Region{Entry: entry, Insns: insns, Code: r.Code[:0], Exits: r.Exits[:0]}
	lw := &lowerer{r: r, pol: pol, mmio: mmio, nextTemp: ir.VTemp0}
	for gi, in := range insns {
		b := ir.New(ir.OpBoundary)
		b.GIdx = int32(gi)
		b.Imm = in.Addr
		// IN reads a device irrevocably, so it always executes at a
		// committed boundary; other instructions serialize only when the
		// adaptive policy demands it.
		if pol.Serialize[in.Addr] || in.Op == guest.OpIN {
			b.Serialize = true
		}
		lw.emit(b)
		if err := lw.insn(int32(gi), in, gi+1 < len(insns)); err != nil {
			return nil, err
		}
	}
	// If the trace ran off its end without a control transfer, exit to the
	// fall-through address.
	last := insns[len(insns)-1]
	if _, jcc := last.Op.IsJcc(); !jcc {
		switch last.Op {
		case guest.OpJMPrel, guest.OpJMPr, guest.OpJMPm, guest.OpCALLrel, guest.OpCALLr, guest.OpRET, guest.OpIRET:
		default:
			e := ir.New(ir.OpExit)
			e.GIdx = int32(len(insns) - 1)
			e.Exit = lw.r.AddExit(ir.Exit{Kind: ir.ExitJump, Target: last.Next(), Insns: len(insns)})
			lw.emit(e)
		}
	}
	return lw.r, nil
}

// memAttrs applies the per-instruction speculation policy to a memory op.
func (lw *lowerer) memAttrs(i *ir.Instr, in guest.Insn) {
	if lw.pol.Serialize[in.Addr] {
		i.Serialize = true
	}
	if lw.pol.NoReorder[in.Addr] {
		i.NoReorder = true
	}
	// Instructions the interpreter observed touching MMIO are born
	// in-order: the profile spares us one speculation fault each.
	if lw.mmio != nil && lw.mmio[i.GIdx] {
		i.NoReorder = true
	}
}

// ea lowers a memory operand's effective address to (base vreg, disp).
func (lw *lowerer) ea(gi int32, m guest.MemOperand) (ir.VReg, uint32) {
	base := ir.NoVReg
	if m.HasBase {
		base = ir.GuestVReg(m.Base)
	}
	if m.HasIndex {
		scaled := ir.GuestVReg(m.Index)
		if m.ScaleLog > 0 {
			t := lw.temp()
			s := ir.New(ir.OpShl)
			s.Dst, s.A, s.Imm, s.GIdx = t, ir.GuestVReg(m.Index), uint32(m.ScaleLog), gi
			lw.emit(s)
			scaled = t
		}
		if base == ir.NoVReg {
			base = scaled
		} else {
			t := lw.temp()
			a := ir.New(ir.OpAdd)
			a.Dst, a.A, a.B, a.GIdx = t, base, scaled, gi
			lw.emit(a)
			base = t
		}
	}
	return base, m.Disp
}

// value materializes an instruction's imm32 — normally a constant, but a
// runtime load from the code stream for stylized-SMC sites (§3.6.4).
func (lw *lowerer) value(gi int32, in guest.Insn) ir.VReg {
	t := lw.temp()
	if lw.pol.ImmLoad[in.Addr] && in.HasImm32() {
		ld := ir.New(ir.OpLd32)
		ld.Dst, ld.Imm, ld.GIdx = t, in.Addr+in.ImmOff, gi
		lw.emit(ld)
	} else {
		c := ir.New(ir.OpConst)
		c.Dst, c.Imm, c.GIdx = t, in.Imm, gi
		lw.emit(c)
	}
	return t
}

func (lw *lowerer) load(gi int32, in guest.Insn, op ir.Op, base ir.VReg, disp uint32) ir.VReg {
	t := lw.temp()
	ld := ir.New(op)
	ld.Dst, ld.A, ld.Imm, ld.GIdx = t, base, disp, gi
	lw.memAttrs(&ld, in)
	lw.emit(ld)
	return t
}

func (lw *lowerer) store(gi int32, in guest.Insn, op ir.Op, base ir.VReg, disp uint32, src ir.VReg) {
	st := ir.New(op)
	st.A, st.B, st.Imm, st.GIdx = base, src, disp, gi
	lw.memAttrs(&st, in)
	lw.emit(st)
}

// aluCCOp maps a guest ALU opcode family base to the IR CC op.
func aluCCOp(op guest.Op) ir.Op {
	switch (op - guest.OpADDrr) / 4 {
	case 0:
		return ir.OpAddCC
	case 1:
		return ir.OpSubCC
	case 2:
		return ir.OpAndCC
	case 3:
		return ir.OpOrCC
	case 4:
		return ir.OpXorCC
	}
	panic("xlate: not an ALU op")
}

// insn lowers one guest instruction. hasNext reports whether the trace
// continues after it (controls Jcc lowering).
func (lw *lowerer) insn(gi int32, in guest.Insn, hasNext bool) error {
	emit := lw.emit
	vd := ir.GuestVReg(in.Dst)
	vs := ir.GuestVReg(in.Src)
	vESP := ir.GuestVReg(guest.ESP)

	// push lowers the store+adjust of the push family.
	push := func(src ir.VReg) {
		lw.store(gi, in, ir.OpSt32, vESP, 0xFFFFFFFC, src) // [esp-4] = src
		s := ir.New(ir.OpSub)
		s.Dst, s.A, s.Imm, s.GIdx = vESP, vESP, 4, gi
		emit(s)
	}
	// pop returns a temp holding the old top of stack and adjusts ESP.
	pop := func() ir.VReg {
		t := lw.load(gi, in, ir.OpLd32, vESP, 0)
		a := ir.New(ir.OpAdd)
		a.Dst, a.A, a.Imm, a.GIdx = vESP, vESP, 4, gi
		emit(a)
		return t
	}
	// popFlags pops into EFLAGS, keeping only the bits POPF may change.
	popFlags := func() {
		t := pop()
		t2 := lw.temp()
		a := ir.New(ir.OpAnd)
		a.Dst, a.A, a.Imm, a.GIdx = t2, t, guest.ArithFlags|guest.FlagIF, gi
		emit(a)
		o := ir.New(ir.OpOr)
		o.Dst, o.A, o.Imm, o.GIdx = ir.VFlags, t2, guest.FlagsAlways, gi
		emit(o)
	}

	switch in.Op {
	case guest.OpNOP:
	case guest.OpCLI:
		i := ir.New(ir.OpAnd)
		i.Dst, i.A, i.Imm, i.GIdx = ir.VFlags, ir.VFlags, ^guest.FlagIF, gi
		emit(i)
	case guest.OpSTI:
		i := ir.New(ir.OpOr)
		i.Dst, i.A, i.Imm, i.GIdx = ir.VFlags, ir.VFlags, guest.FlagIF, gi
		emit(i)

	case guest.OpMOVrr:
		i := ir.New(ir.OpMov)
		i.Dst, i.A, i.GIdx = vd, vs, gi
		emit(i)
	case guest.OpMOVri:
		if lw.pol.ImmLoad[in.Addr] {
			t := lw.value(gi, in)
			i := ir.New(ir.OpMov)
			i.Dst, i.A, i.GIdx = vd, t, gi
			emit(i)
		} else {
			i := ir.New(ir.OpConst)
			i.Dst, i.Imm, i.GIdx = vd, in.Imm, gi
			emit(i)
		}
	case guest.OpMOVrm, guest.OpMOVBrm:
		base, disp := lw.ea(gi, in.Mem)
		op := ir.OpLd32
		if in.Op == guest.OpMOVBrm {
			op = ir.OpLd8
		}
		t := lw.load(gi, in, op, base, disp)
		i := ir.New(ir.OpMov)
		i.Dst, i.A, i.GIdx = vd, t, gi
		emit(i)
	case guest.OpMOVmr, guest.OpMOVBmr:
		base, disp := lw.ea(gi, in.Mem)
		op := ir.OpSt32
		if in.Op == guest.OpMOVBmr {
			op = ir.OpSt8
		}
		lw.store(gi, in, op, base, disp, vs)
	case guest.OpMOVmi:
		base, disp := lw.ea(gi, in.Mem)
		t := lw.value(gi, in)
		lw.store(gi, in, ir.OpSt32, base, disp, t)
	case guest.OpLEA:
		base, disp := lw.ea(gi, in.Mem)
		i := ir.New(ir.OpAdd)
		i.Dst, i.A, i.Imm, i.GIdx = vd, base, disp, gi
		if base == ir.NoVReg {
			i.Op = ir.OpConst
			i.A = ir.NoVReg
		}
		emit(i)
	case guest.OpMOVSXB:
		base, disp := lw.ea(gi, in.Mem)
		t := lw.load(gi, in, ir.OpLd8, base, disp)
		// Sign-extend the zero-extended byte: shl 24, sar 24.
		t2 := lw.temp()
		sh := ir.New(ir.OpShl)
		sh.Dst, sh.A, sh.Imm, sh.GIdx = t2, t, 24, gi
		emit(sh)
		sa := ir.New(ir.OpSar)
		sa.Dst, sa.A, sa.Imm, sa.GIdx = vd, t2, 24, gi
		emit(sa)
	case guest.OpADCrr, guest.OpSBBrr:
		op := ir.OpAdcCC
		if in.Op == guest.OpSBBrr {
			op = ir.OpSbbCC
		}
		i := ir.New(op)
		i.Dst, i.A, i.B, i.GIdx = vd, vd, vs, gi
		emit(i)
	case guest.OpADCri, guest.OpSBBri:
		op := ir.OpAdcCC
		if in.Op == guest.OpSBBri {
			op = ir.OpSbbCC
		}
		i := ir.New(op)
		i.Dst, i.A, i.GIdx = vd, vd, gi
		if lw.pol.ImmLoad[in.Addr] {
			i.B = lw.value(gi, in)
		} else {
			i.Imm = in.Imm
		}
		emit(i)
	case guest.OpXCHG:
		t := lw.temp()
		m1 := ir.New(ir.OpMov)
		m1.Dst, m1.A, m1.GIdx = t, vd, gi
		emit(m1)
		m2 := ir.New(ir.OpMov)
		m2.Dst, m2.A, m2.GIdx = vd, vs, gi
		emit(m2)
		m3 := ir.New(ir.OpMov)
		m3.Dst, m3.A, m3.GIdx = vs, t, gi
		emit(m3)
	case guest.OpCDQ:
		i := ir.New(ir.OpSar)
		i.Dst, i.A, i.Imm, i.GIdx = ir.GuestVReg(guest.EDX), ir.GuestVReg(guest.EAX), 31, gi
		emit(i)

	case guest.OpADDrr, guest.OpSUBrr, guest.OpANDrr, guest.OpORrr, guest.OpXORrr:
		i := ir.New(aluCCOp(in.Op))
		i.Dst, i.A, i.B, i.GIdx = vd, vd, vs, gi
		emit(i)
	case guest.OpADDri, guest.OpSUBri, guest.OpANDri, guest.OpORri, guest.OpXORri:
		i := ir.New(aluCCOp(in.Op - 1))
		i.Dst, i.A, i.GIdx = vd, vd, gi
		if lw.pol.ImmLoad[in.Addr] {
			i.B = lw.value(gi, in)
		} else {
			i.Imm = in.Imm
		}
		emit(i)
	case guest.OpADDrm, guest.OpSUBrm, guest.OpANDrm, guest.OpORrm, guest.OpXORrm:
		base, disp := lw.ea(gi, in.Mem)
		t := lw.load(gi, in, ir.OpLd32, base, disp)
		i := ir.New(aluCCOp(in.Op - 2))
		i.Dst, i.A, i.B, i.GIdx = vd, vd, t, gi
		emit(i)
	case guest.OpADDmr, guest.OpSUBmr, guest.OpANDmr, guest.OpORmr, guest.OpXORmr:
		// Read-modify-write: compute the address once.
		base, disp := lw.ea(gi, in.Mem)
		t := lw.load(gi, in, ir.OpLd32, base, disp)
		t2 := lw.temp()
		i := ir.New(aluCCOp(in.Op - 3))
		i.Dst, i.A, i.B, i.GIdx = t2, t, vs, gi
		emit(i)
		lw.store(gi, in, ir.OpSt32, base, disp, t2)

	case guest.OpCMPrr:
		i := ir.New(ir.OpSubCC)
		i.Dst, i.A, i.B, i.GIdx = lw.temp(), vd, vs, gi
		emit(i)
	case guest.OpCMPri:
		i := ir.New(ir.OpSubCC)
		i.Dst, i.A, i.Imm, i.GIdx = lw.temp(), vd, in.Imm, gi
		if lw.pol.ImmLoad[in.Addr] {
			i.Imm = 0
			i.B = lw.value(gi, in)
		}
		emit(i)
	case guest.OpCMPrm:
		base, disp := lw.ea(gi, in.Mem)
		t := lw.load(gi, in, ir.OpLd32, base, disp)
		i := ir.New(ir.OpSubCC)
		i.Dst, i.A, i.B, i.GIdx = lw.temp(), vd, t, gi
		emit(i)
	case guest.OpCMPmi:
		base, disp := lw.ea(gi, in.Mem)
		t := lw.load(gi, in, ir.OpLd32, base, disp)
		i := ir.New(ir.OpSubCC)
		i.Dst, i.A, i.Imm, i.GIdx = lw.temp(), t, in.Imm, gi
		if lw.pol.ImmLoad[in.Addr] {
			i.Imm = 0
			i.B = lw.value(gi, in)
		}
		emit(i)
	case guest.OpTESTrr:
		i := ir.New(ir.OpAndCC)
		i.Dst, i.A, i.B, i.GIdx = lw.temp(), vd, vs, gi
		emit(i)
	case guest.OpTESTri:
		i := ir.New(ir.OpAndCC)
		i.Dst, i.A, i.Imm, i.GIdx = lw.temp(), vd, in.Imm, gi
		emit(i)

	case guest.OpINC, guest.OpDEC:
		// Split into a flags-only op and an independent value op, so the
		// register chain (often a loop counter) never waits for the flag
		// image's CF merge.
		op, vop := ir.OpIncCC, ir.OpAdd
		if in.Op == guest.OpDEC {
			op, vop = ir.OpDecCC, ir.OpSub
		}
		f := ir.New(op)
		f.Dst, f.A, f.GIdx = lw.temp(), vd, gi
		emit(f)
		v := ir.New(vop)
		v.Dst, v.A, v.Imm, v.GIdx = vd, vd, 1, gi
		emit(v)
	case guest.OpNEG:
		i := ir.New(ir.OpNegCC)
		i.Dst, i.A, i.GIdx = vd, vd, gi
		emit(i)
	case guest.OpNOT:
		i := ir.New(ir.OpXor)
		i.Dst, i.A, i.Imm, i.GIdx = vd, vd, 0xFFFFFFFF, gi
		emit(i)

	case guest.OpSHLri, guest.OpSHRri, guest.OpSARri,
		guest.OpSHLrc, guest.OpSHRrc, guest.OpSARrc:
		var op ir.Op
		switch in.Op {
		case guest.OpSHLri, guest.OpSHLrc:
			op = ir.OpShlCC
		case guest.OpSHRri, guest.OpSHRrc:
			op = ir.OpShrCC
		default:
			op = ir.OpSarCC
		}
		i := ir.New(op)
		i.Dst, i.A, i.GIdx = vd, vd, gi
		switch in.Op {
		case guest.OpSHLrc, guest.OpSHRrc, guest.OpSARrc:
			i.B = ir.GuestVReg(guest.ECX)
		default:
			i.Imm = in.Imm
		}
		emit(i)

	case guest.OpIMULrr:
		i := ir.New(ir.OpImulCC)
		i.Dst, i.A, i.B, i.GIdx = vd, vd, vs, gi
		emit(i)
	case guest.OpIMULri:
		i := ir.New(ir.OpImulCC)
		i.Dst, i.A, i.GIdx = vd, vd, gi
		if lw.pol.ImmLoad[in.Addr] {
			i.B = lw.value(gi, in)
		} else {
			i.Imm = in.Imm
		}
		emit(i)
	case guest.OpMUL:
		i := ir.New(ir.OpMul64)
		i.Dst, i.Dst2, i.A, i.B, i.GIdx = ir.GuestVReg(guest.EAX), ir.GuestVReg(guest.EDX),
			ir.GuestVReg(guest.EAX), vd, gi
		emit(i)
	case guest.OpDIV, guest.OpIDIV:
		op := ir.OpDivU
		if in.Op == guest.OpIDIV {
			op = ir.OpDivS
		}
		i := ir.New(op)
		i.Dst, i.Dst2 = ir.GuestVReg(guest.EAX), ir.GuestVReg(guest.EDX)
		i.A, i.B, i.C, i.GIdx = ir.GuestVReg(guest.EAX), vd, ir.GuestVReg(guest.EDX), gi
		emit(i)

	case guest.OpPUSHr:
		push(vd)
	case guest.OpPUSHi:
		push(lw.value(gi, in))
	case guest.OpPUSHF:
		t := lw.temp()
		i := ir.New(ir.OpMov)
		i.Dst, i.A, i.GIdx = t, ir.VFlags, gi
		emit(i)
		push(t)
	case guest.OpPOPr:
		t := pop()
		i := ir.New(ir.OpMov)
		i.Dst, i.A, i.GIdx = vd, t, gi
		emit(i)
	case guest.OpPOPF:
		popFlags()

	case guest.OpJMPrel:
		if !hasNext {
			e := ir.New(ir.OpExit)
			e.GIdx = gi
			e.Exit = lw.r.AddExit(ir.Exit{Kind: ir.ExitJump, Target: in.BranchTarget(), Insns: int(gi) + 1})
			emit(e)
		}
		// Followed jumps vanish: the trace continues at the target.
	case guest.OpJMPr:
		e := ir.New(ir.OpExitInd)
		e.A, e.GIdx = vd, gi
		e.Exit = lw.r.AddExit(ir.Exit{Kind: ir.ExitIndirect, Insns: int(gi) + 1})
		emit(e)
	case guest.OpJMPm:
		base, disp := lw.ea(gi, in.Mem)
		t := lw.load(gi, in, ir.OpLd32, base, disp)
		e := ir.New(ir.OpExitInd)
		e.A, e.GIdx = t, gi
		e.Exit = lw.r.AddExit(ir.Exit{Kind: ir.ExitIndirect, Insns: int(gi) + 1})
		emit(e)
	case guest.OpCALLrel, guest.OpCALLr:
		ret := lw.temp()
		c := ir.New(ir.OpConst)
		c.Dst, c.Imm, c.GIdx = ret, in.Next(), gi
		emit(c)
		push(ret)
		if in.Op == guest.OpCALLrel {
			e := ir.New(ir.OpExit)
			e.GIdx = gi
			e.Exit = lw.r.AddExit(ir.Exit{Kind: ir.ExitJump, Target: in.BranchTarget(), Insns: int(gi) + 1})
			emit(e)
		} else {
			e := ir.New(ir.OpExitInd)
			e.A, e.GIdx = vd, gi
			e.Exit = lw.r.AddExit(ir.Exit{Kind: ir.ExitIndirect, Insns: int(gi) + 1})
			emit(e)
		}
	case guest.OpRET, guest.OpIRET:
		// IRET is RET that also pops EFLAGS (above the return address).
		t := pop()
		if in.Op == guest.OpIRET {
			popFlags()
		}
		e := ir.New(ir.OpExitInd)
		e.A, e.GIdx = t, gi
		e.Exit = lw.r.AddExit(ir.Exit{Kind: ir.ExitIndirect, Insns: int(gi) + 1})
		emit(e)

	case guest.OpIN:
		i := ir.New(ir.OpIn)
		t := lw.temp()
		i.Dst, i.Imm, i.GIdx = t, in.Imm, gi
		i.Serialize = true // IN is irrevocable: always at a committed boundary
		emit(i)
		mv := ir.New(ir.OpMov)
		mv.Dst, mv.A, mv.GIdx = vd, t, gi
		emit(mv)
	case guest.OpOUT:
		i := ir.New(ir.OpOut)
		i.B, i.Imm, i.GIdx = vs, in.Imm, gi
		emit(i)

	default:
		if cond, jcc := in.Op.IsJcc(); jcc {
			lw.jcc(gi, in, cond, hasNext)
			return nil
		}
		return fmt.Errorf("xlate: cannot lower %s at %#x", in.Op.Name(), in.Addr)
	}
	return nil
}

// jcc lowers a conditional branch. If the trace continues, the followed
// direction is implicit and the other direction becomes a side exit; if the
// branch ends the trace, both directions exit.
func (lw *lowerer) jcc(gi int32, in guest.Insn, cond guest.Cond, hasNext bool) {
	taken := in.BranchTarget()
	fall := in.Next()
	if hasNext {
		followedTaken := lw.r.Insns[gi+1].Addr == taken
		e := ir.New(ir.OpExitIf)
		e.GIdx = gi
		if followedTaken {
			// Trace follows the taken side; exit when the condition fails.
			// Conditions pair even/odd, so XOR 1 negates.
			e.Cond = cond ^ 1
			e.Exit = lw.r.AddExit(ir.Exit{Kind: ir.ExitJump, Target: fall, Insns: int(gi) + 1})
		} else {
			e.Cond = cond
			e.Exit = lw.r.AddExit(ir.Exit{Kind: ir.ExitJump, Target: taken, Insns: int(gi) + 1})
		}
		lw.emit(e)
		return
	}
	e := ir.New(ir.OpExitIf)
	e.GIdx, e.Cond = gi, cond
	e.Exit = lw.r.AddExit(ir.Exit{Kind: ir.ExitJump, Target: taken, Insns: int(gi) + 1})
	lw.emit(e)
	e2 := ir.New(ir.OpExit)
	e2.GIdx = gi
	e2.Exit = lw.r.AddExit(ir.Exit{Kind: ir.ExitJump, Target: fall, Insns: int(gi) + 1})
	lw.emit(e2)
}
