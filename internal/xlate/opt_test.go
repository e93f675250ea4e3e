package xlate

import (
	"testing"

	"cms/internal/guest"
	"cms/internal/ir"
)

// mk builds an instruction tersely for optimizer tests.
func mk(op ir.Op, dst, a, b ir.VReg, imm uint32) ir.Instr {
	i := ir.New(op)
	i.Dst, i.A, i.B, i.Imm = dst, a, b, imm
	return i
}

func countOps(code []ir.Instr, op ir.Op) int {
	n := 0
	for i := range code {
		if code[i].Op == op {
			n++
		}
	}
	return n
}

func TestDeadFlagElimDowngradesUnusedFlags(t *testing.T) {
	// Two CC adds; only the second one's flags reach the exit.
	r := &ir.Region{}
	exit := r.AddExit(ir.Exit{Kind: ir.ExitJump, Target: 0x100, Insns: 1})
	add1 := mk(ir.OpAddCC, 20, 0, 1, 0)
	add1.FOut = 40
	add2 := mk(ir.OpAddCC, 21, 20, 1, 0)
	add2.FOut = 41
	br := ir.New(ir.OpExitIf)
	br.Cond, br.Exit, br.FIn = guest.CondE, exit, 41
	r.Code = []ir.Instr{add1, add2, br}

	new(scratch).deadFlagElim(r)
	if r.Code[0].Op != ir.OpAdd {
		t.Errorf("add1 not downgraded: %v", r.Code[0].Op)
	}
	if r.Code[1].Op != ir.OpAddCC {
		t.Errorf("add2 wrongly downgraded: %v", r.Code[1].Op)
	}
}

func TestDeadFlagElimRespectsCarryChains(t *testing.T) {
	// add.cc feeds adc.cc via FOut/FIn: the add's flags are live even
	// though no branch reads them.
	r := &ir.Region{}
	add := mk(ir.OpAddCC, 20, 0, 1, 0)
	add.FOut = 40
	adc := mk(ir.OpAdcCC, 21, 2, 3, 0)
	adc.FIn, adc.FOut = 40, 41
	exitI := ir.New(ir.OpExit)
	exitI.Exit = r.AddExit(ir.Exit{Kind: ir.ExitJump, Insns: 1})
	// Keep the adc's value observable through a store so DCE concerns
	// don't apply; deadFlagElim alone is under test.
	st := mk(ir.OpSt32, ir.NoVReg, 5, 21, 0)
	r.Code = []ir.Instr{add, adc, st, exitI}

	new(scratch).deadFlagElim(r)
	if r.Code[0].Op != ir.OpAddCC {
		t.Errorf("carry producer downgraded: %v", r.Code[0].Op)
	}
	// The adc's own flags are dead but adc has no plain form: kept.
	if r.Code[1].Op != ir.OpAdcCC {
		t.Errorf("adc changed: %v", r.Code[1].Op)
	}
}

func TestDeadFlagElimCascades(t *testing.T) {
	// dec.cc (partial, needs FIn) feeding a dead chain: once the dec is
	// downgraded, its producer's flags die too.
	r := &ir.Region{}
	add := mk(ir.OpAddCC, 20, 0, 1, 0)
	add.FOut = 40
	dec := mk(ir.OpDecCC, 21, 2, ir.NoVReg, 0)
	dec.FIn, dec.FOut = 40, 41
	exitI := ir.New(ir.OpExit)
	exitI.Exit = r.AddExit(ir.Exit{Kind: ir.ExitJump, Insns: 1})
	st := mk(ir.OpSt32, ir.NoVReg, 5, 21, 0)
	r.Code = []ir.Instr{add, dec, st, exitI}

	new(scratch).deadFlagElim(r)
	if r.Code[1].Op != ir.OpSub {
		t.Errorf("dec not downgraded: %v", r.Code[1].Op)
	}
	if r.Code[0].Op != ir.OpAdd {
		t.Errorf("cascade failed, add still CC: %v", r.Code[0].Op)
	}
}

func TestDeadFlagElimKeepsFixupSources(t *testing.T) {
	// A flag image referenced only by a side exit's fixups is live.
	r := &ir.Region{}
	exit := r.AddExit(ir.Exit{Kind: ir.ExitJump, Target: 0x100, Insns: 1,
		Fixups: []ir.Fixup{{Guest: ir.VFlags, Src: 40}}})
	add := mk(ir.OpAddCC, 20, 0, 1, 0)
	add.FOut = 40
	br := ir.New(ir.OpExitIf)
	br.Cond, br.Exit, br.FIn = guest.CondE, exit, 40
	r.Code = []ir.Instr{add, br}

	new(scratch).deadFlagElim(r)
	if r.Code[0].Op != ir.OpAddCC {
		t.Error("fixup-referenced flag image was considered dead")
	}
}

func TestPropagateConstFold(t *testing.T) {
	r := &ir.Region{}
	r.Code = []ir.Instr{
		mk(ir.OpConst, 20, ir.NoVReg, ir.NoVReg, 6),
		mk(ir.OpConst, 21, ir.NoVReg, ir.NoVReg, 7),
		mk(ir.OpAdd, 22, 20, 21, 0),        // fold: 13
		mk(ir.OpShl, 23, 22, ir.NoVReg, 2), // fold: 52
	}
	new(scratch).propagate(r)
	if r.Code[2].Op != ir.OpConst || r.Code[2].Imm != 13 {
		t.Errorf("add not folded: %+v", r.Code[2])
	}
	if r.Code[3].Op != ir.OpConst || r.Code[3].Imm != 52 {
		t.Errorf("shl not folded: %+v", r.Code[3])
	}
}

func TestPropagateCopyAndImmediateAbsorption(t *testing.T) {
	r := &ir.Region{}
	mv := ir.New(ir.OpMov)
	mv.Dst, mv.A = 21, 20
	cst := mk(ir.OpConst, 22, ir.NoVReg, ir.NoVReg, 9)
	use := mk(ir.OpAdd, 23, 21, 22, 0)
	r.Code = []ir.Instr{mv, cst, use}
	new(scratch).propagate(r)
	if r.Code[2].A != 20 {
		t.Errorf("copy not propagated: A = v%d", r.Code[2].A)
	}
	if r.Code[2].B != ir.NoVReg || r.Code[2].Imm != 9 {
		t.Errorf("constant not absorbed: %+v", r.Code[2])
	}
}

func TestPropagateInvalidatesOnRedefinition(t *testing.T) {
	r := &ir.Region{}
	c1 := mk(ir.OpConst, 20, ir.NoVReg, ir.NoVReg, 1)
	mv := ir.New(ir.OpMov)
	mv.Dst, mv.A = 21, 20
	ld := mk(ir.OpLd32, 20, 5, ir.NoVReg, 0) // redefines v20
	use := mk(ir.OpAdd, 22, 21, 20, 0)
	r.Code = []ir.Instr{c1, mv, ld, use}
	new(scratch).propagate(r)
	// v21 is still a copy of the OLD v20, which was redefined: the use of
	// v21 must NOT be rewritten to v20.
	if r.Code[3].A != 21 {
		t.Errorf("stale copy propagated: A = v%d", r.Code[3].A)
	}
}

func TestCSEDedupsLoadsUntilStore(t *testing.T) {
	r := &ir.Region{}
	ld1 := mk(ir.OpLd32, 20, 5, ir.NoVReg, 8)
	ld2 := mk(ir.OpLd32, 21, 5, ir.NoVReg, 8) // same address, same epoch
	st := mk(ir.OpSt32, ir.NoVReg, 5, 20, 8)
	ld3 := mk(ir.OpLd32, 22, 5, ir.NoVReg, 8) // after store: fresh
	r.Code = []ir.Instr{ld1, ld2, st, ld3}
	new(scratch).cse(r)
	if r.Code[1].Op != ir.OpMov || r.Code[1].A != 20 {
		t.Errorf("duplicate load not CSEd: %+v", r.Code[1])
	}
	if r.Code[3].Op != ir.OpLd32 {
		t.Errorf("post-store load wrongly CSEd: %+v", r.Code[3])
	}
}

func TestDCEKeepsLoadsAndRemovesDeadALU(t *testing.T) {
	r := &ir.Region{}
	dead := mk(ir.OpAdd, 20, 0, 1, 0)        // never used
	ld := mk(ir.OpLd32, 21, 5, ir.NoVReg, 0) // dead value but faults matter
	exitI := ir.New(ir.OpExit)
	exitI.Exit = r.AddExit(ir.Exit{Kind: ir.ExitJump, Insns: 1})
	r.Code = []ir.Instr{dead, ld, exitI}
	new(scratch).dce(r)
	if countOps(r.Code, ir.OpAdd) != 0 {
		t.Error("dead add survived")
	}
	if countOps(r.Code, ir.OpLd32) != 1 {
		t.Error("load removed — its faults are architecturally visible")
	}
}

func TestDCEGuestRegsLiveAtExits(t *testing.T) {
	r := &ir.Region{}
	// Writes to a guest register (v0 = eax) must survive to the exit.
	c := mk(ir.OpConst, 0, ir.NoVReg, ir.NoVReg, 42)
	exitI := ir.New(ir.OpExit)
	exitI.Exit = r.AddExit(ir.Exit{Kind: ir.ExitJump, Insns: 1})
	r.Code = []ir.Instr{c, exitI}
	new(scratch).dce(r)
	if countOps(r.Code, ir.OpConst) != 1 {
		t.Error("guest register write removed")
	}
}

func TestRenameMakesGuestDefsSingleAssignment(t *testing.T) {
	// eax = eax+1; eax = eax+2; side exit; eax = eax+3; final exit.
	r := &ir.Region{}
	side := r.AddExit(ir.Exit{Kind: ir.ExitJump, Target: 0x50, Insns: 1})
	fin := r.AddExit(ir.Exit{Kind: ir.ExitJump, Target: 0x60, Insns: 2})
	i1 := mk(ir.OpAddCC, 0, 0, ir.NoVReg, 1)
	i2 := mk(ir.OpAddCC, 0, 0, ir.NoVReg, 2)
	br := ir.New(ir.OpExitIf)
	br.Cond, br.Exit = guest.CondE, side
	i3 := mk(ir.OpAddCC, 0, 0, ir.NoVReg, 3)
	ex := ir.New(ir.OpExit)
	ex.Exit = fin
	r.Code = []ir.Instr{i1, i2, br, i3, ex}

	new(scratch).rename(r)

	// No instruction before the final materialization writes v0 directly.
	writesV0 := 0
	for idx := range r.Code {
		var defs []ir.VReg
		for _, d := range r.Code[idx].Defs(defs) {
			if d == 0 {
				writesV0++
			}
		}
	}
	if writesV0 != 1 {
		t.Errorf("eax written %d times in the body; want 1 (final materialize)", writesV0)
	}
	// The side exit carries fixups for eax and the flag image.
	fx := r.Exits[side].Fixups
	foundEAX, foundFlags := false, false
	for _, f := range fx {
		if f.Guest == 0 {
			foundEAX = true
		}
		if f.Guest == ir.VFlags {
			foundFlags = true
		}
	}
	if !foundEAX || !foundFlags {
		t.Errorf("side exit fixups incomplete: %+v", fx)
	}
	// The ExitIf reads the renamed flag image of the SECOND add.
	var brI *ir.Instr
	for idx := range r.Code {
		if r.Code[idx].Op == ir.OpExitIf {
			brI = &r.Code[idx]
		}
	}
	if brI == nil || brI.FIn == ir.NoVReg {
		t.Fatal("exit.if flag source not renamed")
	}
}

func TestRenameFullWritersCarryNoFlagIn(t *testing.T) {
	r := &ir.Region{}
	add := mk(ir.OpAddCC, 0, 0, 1, 0)          // full writer
	inc := mk(ir.OpIncCC, 20, 2, ir.NoVReg, 0) // partial: needs FIn
	shlv := mk(ir.OpShlCC, 1, 1, 3, 0)         // count in register: may be zero
	shli := mk(ir.OpShlCC, 2, 2, ir.NoVReg, 4) // nonzero imm count: full
	ex := ir.New(ir.OpExit)
	ex.Exit = r.AddExit(ir.Exit{Kind: ir.ExitJump, Insns: 1})
	r.Code = []ir.Instr{add, inc, shlv, shli, ex}
	new(scratch).rename(r)

	var got []ir.Instr
	for idx := range r.Code {
		switch r.Code[idx].Op {
		case ir.OpAddCC, ir.OpIncCC, ir.OpShlCC:
			got = append(got, r.Code[idx])
		}
	}
	if len(got) != 4 {
		t.Fatalf("found %d CC ops", len(got))
	}
	if got[0].FIn != ir.NoVReg {
		t.Error("full add.cc must not depend on the previous flag image")
	}
	if got[1].FIn == ir.NoVReg {
		t.Error("inc.cc must consume the previous flag image (CF preserve)")
	}
	if got[2].FIn == ir.NoVReg {
		t.Error("shl-by-register may shift by zero: needs the flag image")
	}
	if got[3].FIn != ir.NoVReg {
		t.Error("shl by nonzero immediate is a full writer")
	}
}

func TestRenameSerializeBoundaryMaterializes(t *testing.T) {
	r := &ir.Region{}
	add := mk(ir.OpAddCC, 0, 0, 1, 0)
	bnd := ir.New(ir.OpBoundary)
	bnd.Serialize = true
	in := ir.New(ir.OpIn)
	in.Dst, in.Imm, in.Serialize = 20, 0x40, true
	ex := ir.New(ir.OpExit)
	ex.Exit = r.AddExit(ir.Exit{Kind: ir.ExitJump, Insns: 2})
	r.Code = []ir.Instr{add, bnd, in, ex}
	new(scratch).rename(r)

	// Before the serialize boundary there must be materialization copies
	// into v0 and VFlags.
	bndIdx := -1
	for idx := range r.Code {
		if r.Code[idx].Op == ir.OpBoundary {
			bndIdx = idx
		}
	}
	sawEAX, sawFlags := false, false
	for idx := 0; idx < bndIdx; idx++ {
		if r.Code[idx].Op == ir.OpMov {
			if r.Code[idx].Dst == 0 {
				sawEAX = true
			}
			if r.Code[idx].Dst == ir.VFlags {
				sawFlags = true
			}
		}
	}
	if !sawEAX || !sawFlags {
		t.Errorf("serialize boundary not materialized (eax %v, flags %v)", sawEAX, sawFlags)
	}
}
