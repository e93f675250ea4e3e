package xlate

import (
	"testing"

	"cms/internal/asm"
	"cms/internal/dev"
	"cms/internal/guest"
	"cms/internal/ir"
	"cms/internal/mem"
)

// IRET is an indirect control transfer to the translator: two pops and an
// exit through the indirect-target machinery, like RET. (HLT and INT stay
// with the interpreter: TestRegionRejectsSystemEntry.)

// assembleAt assembles src onto a fresh bus and returns it with the
// program's label table.
func assembleAt(t *testing.T, src string) (*mem.Bus, map[string]uint32) {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	plat := dev.NewPlatform(1<<20, nil)
	plat.Bus.WriteRaw(p.Org, p.Image)
	return plat.Bus, p.Labels
}

func TestTraceEndsAfterIRET(t *testing.T) {
	bus, l := assembleAt(t, `
.org 0x1000
handler:
	push eax
	pop eax
	iret
after:
	nop
	hlt
`)
	insns, err := selectRegion(bus, nil, l["handler"], Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if len(insns) != 3 || insns[2].Op != guest.OpIRET {
		t.Fatalf("trace %v, want push, pop, iret and nothing after", insns)
	}
}

func TestIRETOnlyHandlerTranslates(t *testing.T) {
	bus, l := assembleAt(t, ".org 0x1000\ntick:\n\tiret\n")
	tr := &Translator{Bus: bus}
	tl, err := tr.Translate(l["tick"], Policy{})
	if err != nil {
		t.Fatalf("iret-only handler: %v", err)
	}
	if len(tl.Insns) != 1 || len(tl.Exits) != 1 || tl.Exits[0].Kind != ir.ExitIndirect {
		t.Fatalf("translation of %d insns with exits %+v, want one insn and one indirect exit",
			len(tl.Insns), tl.Exits)
	}
}

// TestIRETLowering pins the IR of iret: pop EIP, then pop EFLAGS masked
// exactly as POPF masks it, then an indirect exit to the popped EIP.
func TestIRETLowering(t *testing.T) {
	lowered := func(op guest.Op) []ir.Instr {
		sc := getScratch()
		defer sc.release()
		in := guest.Insn{Op: op, Addr: 0x1000, Len: 1}
		r, err := sc.lower(in.Addr, []guest.Insn{in}, Policy{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return append([]ir.Instr(nil), r.Code...)
	}
	esp := ir.GuestVReg(guest.ESP)
	code := lowered(guest.OpIRET)
	// boundary; ld eip; add esp; ld flags; add esp; and; or; exit.ind
	if len(code) != 8 {
		t.Fatalf("iret lowered to %d instrs, want 8: %+v", len(code), code)
	}
	ldEIP, ldFlags, and, or, exit := code[1], code[3], code[5], code[6], code[7]
	for i, c := range []ir.Instr{ldEIP, ldFlags} {
		if c.Op != ir.OpLd32 || c.A != esp || c.Imm != 0 || code[2+2*i].Op != ir.OpAdd ||
			code[2+2*i].Dst != esp || code[2+2*i].Imm != 4 {
			t.Fatalf("pop %d lowered to %+v, %+v: want ld32 [esp] then esp += 4", i, c, code[2+2*i])
		}
	}
	if exit.Op != ir.OpExitInd || exit.A != ldEIP.Dst {
		t.Errorf("exit %+v, want exit.ind to the first pop (EIP)", exit)
	}
	if and.Op != ir.OpAnd || and.A != ldFlags.Dst || or.Op != ir.OpOr || or.A != and.Dst || or.Dst != ir.VFlags {
		t.Errorf("flags lowered to %+v, %+v: want VFlags = (second pop & mask) | always", and, or)
	}
	if and.Imm&guest.FlagIF == 0 {
		t.Error("the flags mask drops IF: iret would never re-enable interrupts")
	}
	// The mask is POPF's.
	popf := lowered(guest.OpPOPF)
	if popf[3].Op != ir.OpAnd || popf[3].Imm != and.Imm || popf[4].Imm != or.Imm {
		t.Errorf("iret masks flags with &%#x|%#x, popf with &%#x|%#x", and.Imm, or.Imm, popf[3].Imm, popf[4].Imm)
	}
}

// TestIRETMatchesInterpreter executes translated iret against the
// interpreter on hand-built frames: one whose flags image has every bit set
// (IF included, entered with IF clear) and one with IF clear entered with
// IF set. Registers and flags must match after each.
func TestIRETMatchesInterpreter(t *testing.T) {
	for _, tc := range []struct {
		name, enter, image string
	}{
		{"restores-IF", "cli", "0xFFFFFFFF"},
		{"clears-IF", "sti", "0x00000041"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := checkSame(t, `
.org 0x1000
	`+tc.enter+`
	mov ecx, 50
loop:
	mov eax, `+tc.image+`
	push eax
	mov eax, back
	push eax
	jmp frame
frame:
	iret
back:
	pushf
	pop ebx
	add esi, ebx
	dec ecx
	jne loop
	hlt
`, Policy{})
			if e.texecs == 0 {
				t.Fatal("nothing ran translated")
			}
		})
	}
}
