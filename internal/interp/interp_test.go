package interp

import (
	"strings"
	"testing"

	"cms/internal/asm"
	"cms/internal/dev"
	"cms/internal/guest"
	"cms/internal/mem"
)

// load assembles src onto a fresh platform and returns an interpreter
// positioned at the entry point with a usable stack.
func load(t *testing.T, src string) (*Interp, *dev.Platform) {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	plat := dev.NewPlatform(1<<20, nil)
	plat.Bus.WriteRaw(p.Org, p.Image)
	ip := New(plat.Bus)
	ip.CPU = NewCPU(p.Entry())
	ip.CPU.Regs[guest.ESP] = 0xF0000
	ip.IRQ = plat.IRQ
	ip.Timer = plat.Timer
	return ip, plat
}

func mustHalt(t *testing.T, ip *Interp, maxSteps uint64) {
	t.Helper()
	res, steps := ip.Run(maxSteps)
	if res.Stop != StopHalt {
		t.Fatalf("run stopped with %v (err %v) after %d steps, want halt", res.Stop, res.Err, steps)
	}
}

func TestLoopSum(t *testing.T) {
	ip, _ := load(t, `
.org 0x1000
	mov eax, 0
	mov ecx, 10
loop:
	add eax, ecx
	dec ecx
	jne loop
	hlt
`)
	mustHalt(t, ip, 1000)
	if got := ip.CPU.Regs[guest.EAX]; got != 55 {
		t.Errorf("sum = %d, want 55", got)
	}
	// 2 setup + 10 iterations * 3 + hlt = 33 retired.
	if ip.Retired != 33 {
		t.Errorf("retired = %d, want 33", ip.Retired)
	}
}

func TestMemoryAndAddressing(t *testing.T) {
	ip, _ := load(t, `
.org 0x1000
	mov ebx, 0x8000
	mov esi, 2
	mov [ebx], 0x11223344
	mov eax, [ebx]
	add [ebx], eax            ; rmw: 0x22446688
	mov edx, [ebx]
	movb [ebx+esi*2+1], edx   ; byte store of 0x88 at 0x8005
	movb edi, [ebx+5]
	lea ecx, [ebx+esi*8+0x10]
	hlt
`)
	mustHalt(t, ip, 100)
	c := ip.CPU
	if c.Regs[guest.EAX] != 0x11223344 {
		t.Errorf("eax = %#x", c.Regs[guest.EAX])
	}
	if c.Regs[guest.EDX] != 0x22446688 {
		t.Errorf("edx = %#x", c.Regs[guest.EDX])
	}
	if c.Regs[guest.EDI] != 0x88 {
		t.Errorf("edi = %#x", c.Regs[guest.EDI])
	}
	if c.Regs[guest.ECX] != 0x8000+16+0x10 {
		t.Errorf("lea = %#x", c.Regs[guest.ECX])
	}
}

func TestStackCallRet(t *testing.T) {
	ip, _ := load(t, `
.org 0x1000
_start:
	mov eax, 1
	push eax
	mov eax, 2
	call double
	pop ecx
	hlt
double:
	add eax, eax
	ret
`)
	mustHalt(t, ip, 100)
	if ip.CPU.Regs[guest.EAX] != 4 {
		t.Errorf("eax = %d, want 4", ip.CPU.Regs[guest.EAX])
	}
	if ip.CPU.Regs[guest.ECX] != 1 {
		t.Errorf("ecx = %d, want 1 (stack balance)", ip.CPU.Regs[guest.ECX])
	}
	if ip.CPU.Regs[guest.ESP] != 0xF0000 {
		t.Errorf("esp = %#x, want 0xF0000", ip.CPU.Regs[guest.ESP])
	}
}

func TestMulDiv(t *testing.T) {
	ip, _ := load(t, `
.org 0x1000
	mov eax, 100000
	mov ebx, 100000
	mul ebx            ; edx:eax = 10^10
	mov ecx, 1000000
	div ecx            ; eax = 10000, edx = 0
	mov esi, eax
	mov eax, 7
	imul eax, -3
	hlt
`)
	mustHalt(t, ip, 100)
	if ip.CPU.Regs[guest.ESI] != 10000 {
		t.Errorf("div result = %d", ip.CPU.Regs[guest.ESI])
	}
	if int32(ip.CPU.Regs[guest.EAX]) != -21 {
		t.Errorf("imul = %d", int32(ip.CPU.Regs[guest.EAX]))
	}
}

func TestShiftByCL(t *testing.T) {
	ip, _ := load(t, `
.org 0x1000
	mov eax, 1
	mov ecx, 5
	shl eax, cl
	sar eax, 2
	hlt
`)
	mustHalt(t, ip, 100)
	if ip.CPU.Regs[guest.EAX] != 8 {
		t.Errorf("eax = %d, want 8", ip.CPU.Regs[guest.EAX])
	}
}

func TestDivideFaultHandled(t *testing.T) {
	// Vector 0 handler replaces the divisor and IRETs to retry.
	ip, _ := load(t, `
.org 0x1000
_start:
	mov [0x100], handler     ; IVT[0] (#DE)
	mov eax, 42
	mov edx, 0
	mov ebx, 0
	div ebx
	hlt
handler:
	mov ebx, 7
	iret
`)
	mustHalt(t, ip, 1000)
	if ip.CPU.Regs[guest.EAX] != 6 {
		t.Errorf("eax = %d, want 6 (42/7 after handler fix)", ip.CPU.Regs[guest.EAX])
	}
	if ip.Delivered != 1 {
		t.Errorf("delivered = %d", ip.Delivered)
	}
}

func TestUnhandledFaultStops(t *testing.T) {
	ip, _ := load(t, `
.org 0x1000
	mov eax, 0
	div eax
`)
	res, _ := ip.Run(100)
	if res.Stop != StopError || res.Err == nil {
		t.Fatalf("res = %+v, want StopError", res)
	}
	if res.Vector != guest.VecDE {
		t.Errorf("vector = %d, want #DE", res.Vector)
	}
	if !ip.CPU.Halted {
		t.Error("machine must halt after unhandled fault")
	}
}

func TestInvalidOpcode(t *testing.T) {
	ip, plat := load(t, ".org 0x1000\n nop\n")
	plat.Bus.WriteRaw(0x1001, []byte{0xEE}) // unassigned opcode
	res, _ := ip.Run(100)
	if res.Stop != StopError || res.Vector != guest.VecUD {
		t.Fatalf("res = %+v, want unhandled #UD", res)
	}
}

func TestPageFaultOnReadOnlyWrite(t *testing.T) {
	ip, plat := load(t, `
.org 0x1000
	mov [0x138], handler       ; IVT[#PF] (0x100 + 4*14)
	mov eax, 0xabcd
	mov [0x7000], eax          ; page 7 is RO: faults
	hlt
handler:
	mov edi, 1
	mov esp, 0xe0000           ; discard frame
	hlt
`)
	plat.Bus.SetAttr(7, mem.AttrPresent) // read-only
	mustHalt(t, ip, 100)
	if ip.CPU.Regs[guest.EDI] != 1 {
		t.Error("#PF handler did not run")
	}
	if plat.Bus.Read32(0x7000) == 0xabcd {
		t.Error("faulting store must not land")
	}
}

func TestFetchFromUnmappedPage(t *testing.T) {
	ip, plat := load(t, ".org 0x1000\n jmp far\nfar:\n nop\n")
	// Jump somewhere unmapped instead.
	ip.CPU.EIP = 0x50000
	plat.Bus.SetAttr(0x50, 0)
	res, _ := ip.Run(10)
	if res.Stop != StopError || res.Vector != guest.VecNP {
		t.Fatalf("res = %+v, want unhandled #NP", res)
	}
}

func TestInstructionStraddlingUnmappedPage(t *testing.T) {
	ip, plat := load(t, ".org 0x1000\n nop\n")
	// Place a MOVri so its immediate runs off the end of a mapped page.
	plat.Bus.SetAttr(3, 0) // page 3 unmapped
	img := guest.Encode(nil, guest.Insn{Op: guest.OpMOVri, Dst: guest.EAX, Imm: 1})
	plat.Bus.WriteRaw(3*mem.PageSize-2, img[:2]) // opcode+reg at page 2 edge
	ip.CPU.EIP = 3*mem.PageSize - 2
	res, _ := ip.Run(10)
	if res.Stop != StopError || res.Vector != guest.VecNP {
		t.Fatalf("res = %+v, want #NP for straddling fetch", res)
	}
}

func TestSoftwareInterrupt(t *testing.T) {
	ip, plat := load(t, `
.org 0x1000
_start:
	mov [0x184], syscall       ; IVT[33] (0x100 + 4*33)
	mov eax, 5
	int 33
	hlt
syscall:
	add eax, 100
	iret
`)
	mustHalt(t, ip, 100)
	if ip.CPU.Regs[guest.EAX] != 105 {
		t.Errorf("eax = %d, want 105", ip.CPU.Regs[guest.EAX])
	}
	_ = plat
	// INT retires exactly once; IRET and handler body add their own.
	if ip.Delivered != 1 {
		t.Errorf("delivered = %d", ip.Delivered)
	}
}

func TestPortConsoleOutput(t *testing.T) {
	ip, plat := load(t, `
.org 0x1000
	mov eax, 'H'
	out 0x3f8, eax
	mov eax, 'i'
	out 0x3f8, eax
	in ebx, 0x3f9
	hlt
`)
	mustHalt(t, ip, 100)
	if got := plat.Console.OutputString(); got != "Hi" {
		t.Errorf("console = %q", got)
	}
	if ip.CPU.Regs[guest.EBX] != 1 {
		t.Error("status port must read ready")
	}
}

func TestMMIOTextBuffer(t *testing.T) {
	ip, plat := load(t, `
.org 0x1000
	mov eax, 0x41
	mov ebx, 0xB8000
	movb [ebx], eax
	mov [ebx+4], 0x42434445
	mov ecx, [ebx+4]
	hlt
`)
	mustHalt(t, ip, 100)
	txt := plat.Console.Text()
	if txt[0] != 0x41 || txt[4] != 0x45 {
		t.Errorf("text buffer: %v", txt[:8])
	}
	if ip.CPU.Regs[guest.ECX] != 0x42434445 {
		t.Errorf("MMIO readback = %#x", ip.CPU.Regs[guest.ECX])
	}
}

func TestTimerInterrupt(t *testing.T) {
	ip, _ := load(t, `
.org 0x1000
_start:
	mov [0x180], tick          ; IVT[timer] (0x100 + 4*32)
	mov eax, 50
	out 0x40, eax              ; period 50
	mov ecx, 0
	mov ebx, 0
busy:
	inc ebx
	cmp ecx, 3
	jne busy
	mov eax, 0
	out 0x40, eax              ; timer off
	hlt
tick:
	inc ecx
	iret
`)
	mustHalt(t, ip, 10000)
	if ip.CPU.Regs[guest.ECX] != 3 {
		t.Errorf("tick count = %d, want 3", ip.CPU.Regs[guest.ECX])
	}
	if ip.Delivered != 3 {
		t.Errorf("delivered = %d, want 3", ip.Delivered)
	}
}

func TestCLIMasksInterrupts(t *testing.T) {
	ip, _ := load(t, `
.org 0x1000
_start:
	mov [0x180], tick          ; IVT[timer]
	cli
	mov eax, 10
	out 0x40, eax
	mov ebx, 0
	mov ecx, 0
spin:
	inc ebx
	cmp ebx, 100
	jne spin
	sti                        ; one pending IRQ delivers here
	nop
	nop
	mov eax, 0
	out 0x40, eax
	hlt
tick:
	inc ecx
	mov eax, 0
	out 0x40, eax              ; stop further ticks
	iret
`)
	mustHalt(t, ip, 10000)
	if ip.CPU.Regs[guest.ECX] != 1 {
		t.Errorf("ticks under cli = %d, want exactly 1 after sti", ip.CPU.Regs[guest.ECX])
	}
}

func TestProtStopLeavesStateUnchanged(t *testing.T) {
	ip, plat := load(t, `
.org 0x1000
	mov eax, 0x42
	mov [0x5000], eax
	hlt
`)
	ip.CheckProt = true
	plat.Bus.Protect(5)
	var res *Result
	for i := 0; i < 10; i++ {
		res = ip.Step()
		if res.Stop == StopProt {
			break
		}
	}
	if res.Stop != StopProt || res.Prot == nil || res.Prot.Addr != 0x5000 {
		t.Fatalf("res = %+v, want prot stop at 0x5000", res)
	}
	eipBefore := ip.CPU.EIP
	retiredBefore := ip.Retired
	// Resolve and re-execute: the same instruction must now complete.
	plat.Bus.Unprotect(5)
	res = ip.Step()
	if !res.Retired {
		t.Fatalf("retry: %+v", res)
	}
	if ip.CPU.EIP == eipBefore || ip.Retired != retiredBefore+1 {
		t.Error("retry must advance exactly one instruction")
	}
	if plat.Bus.Read32(0x5000) != 0x42 {
		t.Error("store must land after unprotect")
	}
}

func TestPushToProtectedPageStops(t *testing.T) {
	ip, plat := load(t, `
.org 0x1000
	push eax
	hlt
`)
	ip.CheckProt = true
	ip.CPU.Regs[guest.ESP] = 0x6004
	plat.Bus.Protect(6)
	res := ip.Step()
	if res.Stop != StopProt {
		t.Fatalf("res = %+v", res)
	}
	if ip.CPU.Regs[guest.ESP] != 0x6004 {
		t.Error("ESP must be unchanged after prot stop")
	}
}

func TestProfileCollection(t *testing.T) {
	ip, _ := load(t, `
.org 0x1000
_start:
	mov ecx, 8
	mov ebx, 0xB8000
loop:
	mov eax, [ebx]        ; MMIO load
	dec ecx
	jne loop
	hlt
`)
	ip.Prof = NewProfile()
	mustHalt(t, ip, 1000)
	loopHead := uint32(0x1000 + 6 + 6) // after two 6-byte MOVri
	if got := ip.Prof.Heads[loopHead]; got != 7 {
		t.Errorf("loop head count = %d, want 7 (7 taken branches)", got)
	}
	var br *BranchStat
	for _, s := range ip.Prof.Branches {
		br = s
	}
	if br == nil || br.Taken != 7 || br.NotTaken != 1 {
		t.Errorf("branch stats = %+v", br)
	}
	if b := (BranchStat{Taken: 7, NotTaken: 1}); b.Bias() != 0.875 {
		t.Errorf("bias = %v", b.Bias())
	}
	found := false
	for addr := range ip.Prof.MMIOInsns {
		if addr == loopHead {
			found = true
		}
	}
	if !found {
		t.Errorf("MMIO insn not profiled: %v", ip.Prof.MMIOInsns)
	}
}

func TestPushfPopf(t *testing.T) {
	ip, _ := load(t, `
.org 0x1000
	mov eax, 1
	sub eax, 1        ; ZF
	pushf
	mov ebx, 5
	cmp ebx, 9        ; clears ZF, sets CF
	popf              ; restore ZF
	je good
	hlt
good:
	mov edi, 1
	hlt
`)
	mustHalt(t, ip, 100)
	if ip.CPU.Regs[guest.EDI] != 1 {
		t.Error("popf must restore ZF")
	}
}

func TestJccAllConditionsExecute(t *testing.T) {
	// Drive each condition through a taken and a not-taken path.
	for c := guest.Cond(0); c < 16; c++ {
		src := `
.org 0x1000
	mov eax, 1
	cmp eax, 1
	j` + c.String() + ` yes
	mov ebx, 2
	hlt
yes:
	mov ebx, 1
	hlt
`
		ip, _ := load(t, src)
		mustHalt(t, ip, 100)
		_, flags := guest.FlagsSub(0, 1, 1)
		want := uint32(2)
		if c.Eval(flags) {
			want = 1
		}
		if ip.CPU.Regs[guest.EBX] != want {
			t.Errorf("cond %v: ebx = %d, want %d", c, ip.CPU.Regs[guest.EBX], want)
		}
	}
}

func TestIndirectJumpTable(t *testing.T) {
	ip, _ := load(t, `
.org 0x1000
_start:
	mov esi, 1
	mov ebx, table
	jmp [ebx+esi*4]
a0:
	mov eax, 10
	hlt
a1:
	mov eax, 11
	hlt
table:
	.dd a0, a1
`)
	mustHalt(t, ip, 100)
	if ip.CPU.Regs[guest.EAX] != 11 {
		t.Errorf("jump table picked %d", ip.CPU.Regs[guest.EAX])
	}
}

func TestHaltedStepIsStable(t *testing.T) {
	ip, _ := load(t, ".org 0x1000\n hlt\n")
	mustHalt(t, ip, 10)
	res := ip.Step()
	if res.Stop != StopHalt {
		t.Error("stepping a halted CPU must report halt")
	}
}

func TestCostModel(t *testing.T) {
	movrr, _ := guest.Decode(guest.Encode(nil, guest.Insn{Op: guest.OpMOVrr}), 0)
	movrm, _ := guest.Decode(guest.Encode(nil, guest.Insn{Op: guest.OpMOVrm}), 0)
	div, _ := guest.Decode(guest.Encode(nil, guest.Insn{Op: guest.OpDIV}), 0)
	if Cost(movrm) <= Cost(movrr) {
		t.Error("memory forms must cost more")
	}
	if Cost(div) <= Cost(movrr) {
		t.Error("divide must cost more")
	}
	if Cost(movrr) < 10 {
		t.Error("base cost unreasonably low")
	}
}

func TestRunStepLimit(t *testing.T) {
	ip, _ := load(t, ".org 0x1000\nself:\n jmp self\n")
	res, steps := ip.Run(50)
	if res.Stop != StopNone || steps != 50 {
		t.Errorf("run = %+v after %d", res, steps)
	}
}

// The assembler error path: make sure load reports assembly problems.
func TestLoadRejectsBadSource(t *testing.T) {
	if _, err := asm.Assemble("bogus eax\n"); err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Errorf("err = %v", err)
	}
}

func TestExtendedInsns(t *testing.T) {
	ip, _ := load(t, `
.org 0x1000
	; 64-bit add: (2^32-1) + 3 = 0x1_00000002 across eax:edx
	mov eax, 0xffffffff
	mov edx, 0
	mov ebx, 3
	mov ecx, 0
	add eax, ebx
	adc edx, ecx           ; edx = 1
	; xchg
	mov esi, 0x11
	mov edi, 0x22
	xchg esi, edi
	; movsx of a negative byte
	mov [0x8000], 0x80
	movsx ebp, [0x8000]
	hlt
`)
	mustHalt(t, ip, 100)
	c := ip.CPU
	if c.Regs[guest.EAX] != 2 || c.Regs[guest.EDX] != 1 {
		t.Errorf("64-bit add: eax=%#x edx=%#x", c.Regs[guest.EAX], c.Regs[guest.EDX])
	}
	if c.Regs[guest.ESI] != 0x22 || c.Regs[guest.EDI] != 0x11 {
		t.Errorf("xchg: esi=%#x edi=%#x", c.Regs[guest.ESI], c.Regs[guest.EDI])
	}
	if c.Regs[guest.EBP] != 0xFFFFFF80 {
		t.Errorf("movsx: ebp=%#x", c.Regs[guest.EBP])
	}
}

func TestCDQAndSignedDivide(t *testing.T) {
	ip, _ := load(t, `
.org 0x1000
	mov eax, -100
	cdq                    ; edx = 0xffffffff
	mov ebx, 7
	idiv ebx               ; -100/7 = -14 rem -2
	hlt
`)
	mustHalt(t, ip, 100)
	if int32(ip.CPU.Regs[guest.EAX]) != -14 || int32(ip.CPU.Regs[guest.EDX]) != -2 {
		t.Errorf("idiv: q=%d r=%d", int32(ip.CPU.Regs[guest.EAX]), int32(ip.CPU.Regs[guest.EDX]))
	}
}

func TestSBBBorrowChain(t *testing.T) {
	ip, _ := load(t, `
.org 0x1000
	; 64-bit subtract: 0x1_00000000 - 1 = 0x0_FFFFFFFF
	mov eax, 0
	mov edx, 1
	mov ebx, 1
	mov ecx, 0
	sub eax, ebx
	sbb edx, ecx
	hlt
`)
	mustHalt(t, ip, 100)
	if ip.CPU.Regs[guest.EAX] != 0xFFFFFFFF || ip.CPU.Regs[guest.EDX] != 0 {
		t.Errorf("64-bit sub: eax=%#x edx=%#x", ip.CPU.Regs[guest.EAX], ip.CPU.Regs[guest.EDX])
	}
}

// Every assigned opcode must execute from a benign state without raising
// #UD — a completeness sweep that catches interpreter gaps when the ISA
// grows.
func TestEveryOpcodeExecutes(t *testing.T) {
	for op := 0; op < 256; op++ {
		gop := guest.Op(op)
		if !gop.Valid() {
			continue
		}
		if gop == guest.OpHLT || gop == guest.OpINT || gop == guest.OpIRET {
			continue // terminal / need handler scaffolding
		}
		in := guest.Insn{Op: gop, Dst: guest.EAX, Src: guest.EBX,
			Mem: guest.MemOperand{HasBase: true, Base: guest.EBP}}
		switch gop.Format() {
		case guest.FmtRel:
			in.Imm = 0 // branch to next
		case guest.FmtRPort, guest.FmtPortR:
			in.Imm = 0x3F8
		default:
			in.Imm = 4
		}
		plat := dev.NewPlatform(1<<20, nil)
		code := guest.Encode(nil, in)
		plat.Bus.WriteRaw(0x1000, code)
		ip := New(plat.Bus)
		ip.CPU = NewCPU(0x1000)
		ip.CPU.Regs[guest.ESP] = 0x8000
		ip.CPU.Regs[guest.EBP] = 0x9000
		ip.CPU.Regs[guest.EBX] = 2 // nonzero divisor
		ip.CPU.Regs[guest.EAX] = 8
		ip.CPU.Regs[guest.EDX] = 0
		res := ip.Step()
		if res.Stop == StopError {
			t.Errorf("%s (op %#02x): %v", gop.Name(), op, res.Err)
		}
		if gop == guest.OpJMPr {
			continue // jumped to eax's value; nothing more to check
		}
	}
}
