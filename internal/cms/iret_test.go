package cms

import (
	"fmt"
	"testing"

	"cms/internal/guest"
	"cms/internal/vliw"
)

// A timer interrupt's round trip under translation: the interpreter
// delivers at a committed boundary, the handler runs translated and returns
// through its IRET's indirect exit into the interrupted code's translation,
// without surfacing to the dispatcher.

// TestTranslatedIRETTimer holds a timer-pressured kernel to the
// pure-interpretation reference and checks the handler's IRET is
// translated: no site at an IRET is pinned to the interpreter, and nearly
// every interrupt returns through the indirect-target cache.
func TestTranslatedIRETTimer(t *testing.T) {
	e := edgeRun(t, irqEdgeProgram(false, 13), DefaultConfig())
	ref := edgeRun(t, irqEdgeProgram(false, 13), Config{NoTranslate: true})
	edgeCompare(t, e, ref)

	var buf [16]byte
	for addr, s := range e.sites {
		n := e.Plat.Bus.FetchBytes(addr, buf[:])
		if in, err := guest.Decode(buf[:n], addr); err == nil && in.Op == guest.OpIRET && s.interpOnly {
			t.Errorf("the iret at %#x is pinned to the interpreter", addr)
		}
	}
	m := &e.Metrics
	// The kernel has no other indirect transfer, so every indirect hit is
	// an IRET; the misses are the first returns, before the cache fills.
	if m.Interrupts < 1000 || m.IndirectHits > m.Interrupts || m.IndirectHits*10 < m.Interrupts*9 {
		t.Errorf("%d interrupts, %d IRETs through the indirect-target cache: want nearly all",
			m.Interrupts, m.IndirectHits)
	}
	if m.DispatchReturns*10 > m.Interrupts {
		t.Errorf("%d dispatcher returns for %d interrupts: handlers still surface", m.DispatchReturns, m.Interrupts)
	}
}

// TestIRETWithIFClearLeavesIRQPending runs a hot loop that enters the tick
// handler through a hand-built frame whose flags image has IF clear, while
// the timer's interrupt is latched. The translated IRET must leave
// interrupts off, as the interpreter's does: the latched interrupt is
// delivered exactly once, by the sti at the end.
func TestIRETWithIFClearLeavesIRQPending(t *testing.T) {
	const iters = 2000
	src := fmt.Sprintf(`
.org 0x1000
	cli
	mov [0x180], tick        ; IVT[timer]
	mov eax, 7
	out 0x40, eax
	mov ecx, %d
loop:
	pushf                    ; IF clear: the frame returns with interrupts off
	mov eax, back
	push eax
	jmp tick
back:
	add esi, ecx
	dec ecx
	jne loop
	mov eax, 0
	out 0x40, eax            ; timer off; the latched interrupt stays pending
	sti                      ; ... and is delivered here, once
	nop
	hlt
tick:
	push eax
	mov eax, [0x8000]
	inc eax
	mov [0x8000], eax
	pop eax
	iret
`, iters)
	e := equiv(t, src, DefaultConfig())
	ref := build(t, src, Config{NoTranslate: true}, nil)
	runToHalt(t, ref, 10_000_000)
	if got := e.Plat.Bus.Read32(0x8000); got != iters+1 {
		t.Errorf("tick ran %d times, want %d", got, iters+1)
	}
	if e.Metrics.Interrupts != 1 || ref.Metrics.Interrupts != 1 {
		t.Errorf("%d interrupts delivered (reference %d), want 1", e.Metrics.Interrupts, ref.Metrics.Interrupts)
	}
	if e.Metrics.Faults[vliw.FIRQ] != 0 {
		t.Errorf("%d FIRQ rollbacks: an interrupt was taken in translated code with IF clear", e.Metrics.Faults[vliw.FIRQ])
	}
	if e.Metrics.IndirectHits < iters/2 {
		t.Errorf("%d indirect hits: the frames' IRET did not run translated", e.Metrics.IndirectHits)
	}
}

// TestIRETPopFaultIsGenuine walks a translated IRET up an array of frames
// until its EFLAGS pop reads past the end of RAM. The translation faults,
// rolls back, and re-interpretation delivers the page fault as genuine, with
// the handler seeing the reference's state.
func TestIRETPopFaultIsGenuine(t *testing.T) {
	const frames = 1000
	base := uint32(1<<21 - 8*frames - 4) // the last frame's EFLAGS word ends RAM
	src := fmt.Sprintf(`
.org 0x1000
	mov [0x138], pfh         ; IVT[#PF]
	mov ebx, %d
	mov ecx, %d
init:
	mov eax, back
	mov [ebx], eax
	mov [ebx+4], 0xFFFFFFFF
	add ebx, 8
	dec ecx
	jne init
	mov esp, %d
frame:
	iret
back:
	inc esi
	jmp frame
pfh:
	mov edi, esp
	hlt
`, base, frames, base)
	e := equiv(t, src, DefaultConfig())
	if got := e.CPU().Regs[guest.ESI]; got != frames {
		t.Errorf("%d frames returned through, want %d", got, frames)
	}
	if e.Metrics.Faults[vliw.FGuest] == 0 || e.Metrics.GenuineGuestFaults != 1 {
		t.Errorf("%d guest faults in translated code, %d genuine: want the IRET's fault, genuine once",
			e.Metrics.Faults[vliw.FGuest], e.Metrics.GenuineGuestFaults)
	}
}
