package mem

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// eachField calls fn with every field of the Bus struct, by reflection, for
// two buses side by side. It is the whole point of the reset tests that this
// list is not written by hand: a field added to Bus later is visited without
// anyone remembering to.
func eachField(a, b *Bus, fn func(name string, fa, fb reflect.Value)) {
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i), vb.Field(i)
		// Unexported fields are readable only through their address.
		fa = reflect.NewAt(fa.Type(), unsafe.Pointer(fa.UnsafeAddr())).Elem()
		fb = reflect.NewAt(fb.Type(), unsafe.Pointer(fb.UnsafeAddr())).Elem()
		fn(va.Type().Field(i).Name, fa, fb)
	}
}

// diffBus names the first field in which two buses differ. Hooks compare
// equal only when both are nil, so a bus that still references an engine or
// a schedule differs from a fresh one. spare is a kept allocation, not
// state, so it is held to its own rule instead (spareFault).
func diffBus(a, b *Bus) string {
	diff := ""
	eachField(a, b, func(name string, fa, fb reflect.Value) {
		if diff == "" && name != "spare" && !reflect.DeepEqual(fa.Interface(), fb.Interface()) {
			diff = name
		}
	})
	if diff == "" {
		diff = spareFault(a)
	}
	return diff
}

// spareFault says what is wrong with b's spare backings, if anything: each
// must be all zero — the next page to take one reads it as never written —
// and must be nowhere else, neither on a page nor twice in spare.
func spareFault(b *Bus) string {
	seen := make(map[*[PageSize]byte]bool)
	for _, pg := range b.pages {
		if pg.ram != nil {
			seen[pg.ram] = true
		}
	}
	for _, r := range b.spare {
		if seen[r] {
			return "spare (a backing is in use twice)"
		}
		seen[r] = true
		if !allZero(r[:]) {
			return "spare (a backing is not zero)"
		}
	}
	if len(b.spare) > len(b.pages) {
		return "spare (more backings than pages)"
	}
	return ""
}

func TestResetRestoresNewBusState(t *testing.T) {
	const ram = 64 * 1024
	b := NewBus(ram)
	b.Write32(0x100, 0xdeadbeef)
	b.Write8(3*PageSize+7, 1)
	b.DMAWrite(5*PageSize-2, []byte{1, 2, 3, 4}) // pages 4 and 5
	b.WriteRaw(7*PageSize, []byte{9})
	b.SetAttr(9, AttrPresent)
	b.Protect(2)
	b.SetFineGrain(3, 0xF0)
	b.CheckProt(3*PageSize, 4, SrcCPU) // fills the fine-grain cache, counts a refill
	b.SetFineGrainCacheCap(2)
	b.MapMMIO(0x8000, PageSize, &fakeMMIO{})
	b.MapPort(0x10, 0x20, &fakePort{})
	b.DMAInvalidate = func(uint32) {}
	b.ForceProtHit = func(uint32, int, WriteSource) bool { return false }

	// Pages 0, 3, 4, 5, 7 hold data. 8 (MMIO) and 9 (SetAttr) moved their
	// generation without a byte written, so they never got backing and there
	// is nothing on them to zero: Reset scrubs the five backed pages and no
	// more, and keeps their backings for the next tenant.
	if got := b.Reset(); got != 5 {
		t.Errorf("Reset scrubbed %d pages, want 5", got)
	}
	if len(b.spare) != 5 {
		t.Errorf("Reset kept %d backings, want 5", len(b.spare))
	}
	if f := diffBus(b, NewBus(ram)); f != "" {
		t.Fatalf("after Reset, field %q differs from a new bus", f)
	}
	if got := b.Reset(); got != 0 {
		t.Errorf("second Reset scrubbed %d pages, want 0", got)
	}
}

// Reads never give a page backing: a page nobody wrote costs nothing
// however it is read, and reads as zero on every path.
func TestReadsLeavePagesUnbacked(t *testing.T) {
	const ram = 8 * PageSize
	b := NewBus(ram)
	var sum uint32
	for a := uint32(0); a < ram; a += 0x3FD {
		v, ok := b.LoadRAM32(a)
		sum |= v | b.Read32(a) | uint32(b.Read8(a))
		if !ok && PageOf(a) == PageOf(a+3) {
			t.Fatalf("LoadRAM32 declined an in-page word at %#x", a)
		}
	}
	buf := bytes.Repeat([]byte{0xEE}, 3*PageSize)
	if n := b.FetchBytes(PageSize-5, buf); n != len(buf) || !allZero(buf) {
		t.Errorf("FetchBytes over unbacked pages = %d bytes, zero=%v", n, allZero(buf))
	}
	if !allZero(b.ReadRaw(0, ram)) || sum != 0 {
		t.Error("an unbacked page read as non-zero")
	}
	if st := b.ExportState(); len(st.Pages) != 0 {
		t.Errorf("ExportState of an unwritten bus has %d pages", len(st.Pages))
	}
	for p, pg := range b.pages {
		if pg.ram != nil {
			t.Fatalf("page %d was given backing by a read", p)
		}
	}
}

// A word stored whole on a page's first write takes one generation step,
// as it does on a backed page; a word across a backed and an unbacked page
// backs the unbacked one and lands byte by byte.
func TestFirstWriteBacksPage(t *testing.T) {
	b := NewBus(4 * PageSize)
	if b.StoreRAM32(PageSize+8, 1) {
		t.Fatal("StoreRAM32 stored to a page with no backing")
	}
	b.Write32(PageSize+8, 0xAABBCCDD)
	if b.Gen(1) != 1 || b.Read32(PageSize+8) != 0xAABBCCDD {
		t.Fatalf("first word store: gen %d, read %#x", b.Gen(1), b.Read32(PageSize+8))
	}
	if !b.StoreRAM32(PageSize+12, 7) || b.Gen(1) != 2 {
		t.Fatalf("StoreRAM32 on a backed page: gen %d", b.Gen(1))
	}
	b.Write32(2*PageSize-2, 0x11223344) // pages 1 (backed) and 2 (not)
	if got := b.ReadRaw(2*PageSize-2, 4); !bytes.Equal(got, []byte{0x44, 0x33, 0x22, 0x11}) {
		t.Errorf("straddling store read back %x", got)
	}
	if b.pages[2].ram == nil || b.pages[0].ram != nil || b.pages[3].ram != nil {
		t.Error("a straddling store backed the wrong pages")
	}
}

// Reset hands its backings to the next tenant instead of the collector, and
// a bus recycled any number of times holds at most one backing per page.
func TestResetReusesBackings(t *testing.T) {
	const pages = 8
	b := NewBus(pages * PageSize)
	for round := 0; round < 4; round++ {
		for p := uint32(0); p < pages; p += uint32(round%3 + 1) {
			b.Write8(p<<PageShift+uint32(round), 0xFF)
		}
		b.Reset()
		if f := spareFault(b); f != "" {
			t.Fatalf("round %d: %s", round, f)
		}
	}
	kept := append([]*[PageSize]byte(nil), b.spare...)
	if len(kept) != pages { // round 0 wrote every page
		t.Fatalf("Reset kept %d backings, want %d", len(kept), pages)
	}
	if allocs := testing.AllocsPerRun(1, func() {
		for p := uint32(0); p < uint32(len(kept)); p++ {
			b.Write8(p<<PageShift, 1)
		}
		b.Reset()
	}); allocs != 0 {
		t.Errorf("refilling %d pages after Reset allocated %.0f times", len(kept), allocs)
	}
	for _, r := range kept {
		if !slices.Contains(b.spare, r) {
			t.Fatal("a kept backing was dropped")
		}
	}
}

// A restored generation is the envelope's word, not the bus's: an envelope
// can put bytes on a page and say its generation is 0. The page must still
// be scrubbed by Reset and still be seen by ExportState.
func TestRestoredPagesStayDirtyAtGenerationZero(t *testing.T) {
	const ram = 16 * PageSize
	src := NewBus(ram)
	src.Write32(6*PageSize+4, 0xC0FFEE)
	st := src.ExportState()
	st.Gen[6] = 0 // hostile: "nobody ever wrote this page"

	b := NewBus(ram)
	if err := b.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if b.Gen(6) != 0 || b.Read32(6*PageSize+4) != 0xC0FFEE {
		t.Fatal("setup: restore did not take the envelope verbatim")
	}
	if again := b.ExportState(); len(again.Pages) != 1 || again.Pages[0].Index != 6 {
		t.Fatalf("ExportState lost the restored page: %+v", again.Pages)
	}
	if got := b.Reset(); got != 1 {
		t.Errorf("Reset scrubbed %d pages, want 1", got)
	}
	if f := diffBus(b, NewBus(ram)); f != "" {
		t.Fatalf("after Reset, field %q differs from a new bus", f)
	}
}

func TestRestoreStateRejectsBeforeTouchingTheBus(t *testing.T) {
	const ram = 8 * PageSize
	good := NewBus(ram)
	good.Write8(PageSize, 1)
	mutate := map[string]func(*BusState){
		"short attrs":       func(s *BusState) { s.Attrs = s.Attrs[1:] },
		"page beyond RAM":   func(s *BusState) { s.Pages[0].Index = 8 },
		"short page":        func(s *BusState) { s.Pages[0].Data = s.Pages[0].Data[1:] },
		"wrapping gen":      func(s *BusState) { s.Gen[3] = ^uint64(0) },
		"too many pages":    func(s *BusState) { s.NumPages = 1 << 20 },
		"other size of RAM": func(s *BusState) { *s = *NewBus(2 * ram).ExportState() },
	}
	for name, f := range mutate {
		st := good.ExportState()
		f(st)
		b := NewBus(ram)
		b.Write32(0x40, 0x11223344)
		before := b.ExportState()
		if err := b.RestoreState(st); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if !reflect.DeepEqual(before, b.ExportState()) {
			t.Errorf("%s: a rejected state changed the bus", name)
		}
	}
}

// The envelope must not depend on how a state was reached: a page written
// and zeroed again is elided exactly as a page never written.
func TestExportStateElidesRezeroedPages(t *testing.T) {
	b := NewBus(8 * PageSize)
	b.Write32(2*PageSize, 5)
	b.Write32(2*PageSize, 0)
	b.Write8(4*PageSize+1, 7)
	st := b.ExportState()
	if len(st.Pages) != 1 || st.Pages[0].Index != 4 {
		t.Fatalf("pages = %+v, want only page 4", st.Pages)
	}
}

// Device registers hold whatever the guest wrote, so DMA and raw accesses
// are clipped to RAM instead of indexing past it.
func TestRawAndDMAAccessesAreClippedToRAM(t *testing.T) {
	const ram = 4 * PageSize
	b := NewBus(ram)
	b.Protect(0)
	b.Protect(3)
	invalidated := 0
	b.DMAInvalidate = func(uint32) { invalidated++ }

	b.DMAWrite(0, nil) // empty: must not walk (and unprotect) every page
	b.DMAWrite(2*ram, []byte{1, 2, 3})
	b.DMAWrite(0xFFFFFFFF, []byte{1, 2, 3})
	b.WriteRaw(2*ram, []byte{1})
	b.WriteRaw(ram, nil)
	if invalidated != 0 || !b.IsProtected(0) || !b.IsProtected(3) {
		t.Fatalf("empty or out-of-RAM transfers touched protection (%d invalidations)", invalidated)
	}
	if got := b.ReadRaw(2*ram, 4); !bytes.Equal(got, make([]byte, 4)) {
		t.Errorf("ReadRaw beyond RAM = %v, want zeros", got)
	}

	// A transfer straddling the end lands its in-RAM part and drops the rest.
	b.DMAWrite(ram-2, []byte{0xAA, 0xBB, 0xCC, 0xDD})
	if got := b.ReadRaw(ram-2, 4); !bytes.Equal(got, []byte{0xAA, 0xBB, 0, 0}) {
		t.Errorf("straddling DMA read back %x", got)
	}
	if invalidated != 1 || b.IsProtected(3) || !b.IsProtected(0) {
		t.Errorf("straddling DMA: %d invalidations, page 3 protected=%v", invalidated, b.IsProtected(3))
	}
	b.WriteRaw(ram-1, []byte{0x11, 0x22})
	if got := b.ReadRaw(ram-1, 1)[0]; got != 0x11 {
		t.Errorf("straddling WriteRaw stored %#x", got)
	}
}

// FuzzBusResetComplete is the tenant-isolation proof for the one structure
// the farm recycles. It drives a bus with a fuzzed stream of every operation
// that can change it — CPU stores, DMA, raw writes, attribute and protection
// changes, MMIO and port mappings, hooks, fine-grain cache traffic, and
// RestoreState from a second, independently fuzzed bus with its generations
// wiped — then requires Reset to leave no field, compared by reflection over
// all of them, different from a bus that was never used.
func FuzzBusResetComplete(f *testing.F) {
	const ram = 8 * PageSize
	f.Add([]byte{0, 0, 0x10, 0xAA, 1, 0x3F, 0xFE, 0xBB, 2, 0x4F, 0xFF, 8})
	f.Add([]byte{4, 2, 0, 0, 5, 3, 0xF0, 0, 0, 0x30, 0x10, 1, 8, 3, 0, 0})
	f.Add([]byte{6, 8, 0, 0, 7, 1, 9, 0, 9, 0, 0, 0, 10, 0, 0, 0, 2, 0x80, 0, 4})
	f.Add([]byte{0, 0x50, 0, 1, 11, 0, 0, 2, 0, 0x60, 4, 2, 3, 0x7F, 0xFF, 9, 4, 1, 0, 3})
	f.Add(bytes.Repeat([]byte{1, 0xFF, 0xFD, 0x77}, 5))

	f.Fuzz(func(t *testing.T, ops []byte) {
		b := NewBus(ram)
		applyOps(b, ops, true)
		b.Reset()
		if field := diffBus(b, NewBus(ram)); field != "" {
			t.Fatalf("after Reset, field %q differs from a new bus", field)
		}
	})
}

// applyOps interprets ops as 4-byte records: an opcode and three operand
// bytes. Addresses span RAM plus one page beyond it, so the clipped paths
// run too. restore lets the stream contain RestoreState records; a nested
// stream may not, which bounds the work.
func applyOps(b *Bus, ops []byte, restore bool) {
	ram := b.RAMSize()
	for ; len(ops) >= 4; ops = ops[4:] {
		op, x, y, z := ops[0], ops[1], ops[2], ops[3]
		addr := uint32(binary.LittleEndian.Uint16([]byte{y, x})) % (ram + PageSize)
		page := uint32(x) % (b.NumPages() + 1)
		switch op % 13 {
		case 0:
			if b.CheckWrite(addr, 1) == nil && !b.IsMMIO(addr) {
				b.Write8(addr, z)
			}
		case 1:
			if b.CheckWrite(addr, 4) == nil && !b.IsMMIO(addr) && !b.IsMMIO(addr+3) {
				b.Write32(addr, uint32(z)*0x01010101)
			}
		case 2:
			b.DMAWrite(addr, bytes.Repeat([]byte{z | 1}, int(z)*40))
		case 3:
			b.WriteRaw(addr, bytes.Repeat([]byte{z | 1}, int(z)))
		case 4:
			b.SetAttr(page, Attr(z)&(AttrPresent|AttrWritable))
		case 5:
			b.Protect(page)
			if z&1 != 0 {
				b.SetFineGrain(page, uint32(y)<<8|uint32(z))
			}
		case 6:
			b.MapMMIO(page<<PageShift, PageSize, &fakeMMIO{})
		case 7:
			b.MapPort(uint16(x), uint16(x)+uint16(y%8), &fakePort{})
		case 8:
			b.CheckProt(addr, 4, SrcCPU) // fine-grain cache fill, Stats
			b.Unprotect(uint32(z) % b.NumPages())
		case 9:
			b.DMAInvalidate = func(uint32) {}
			b.ForceProtHit = func(uint32, int, WriteSource) bool { return false }
		case 10:
			b.SetFineGrainCacheCap(int(z%16) + 1)
		case 11:
			if !restore {
				continue
			}
			// A state captured from a second bus, driven by the next few
			// records (which this bus then skips), with the generations the
			// envelope claims wiped to 0.
			k := min(int(z%8), len(ops)/4-1)
			src := NewBus(ram)
			applyOps(src, ops[4:4+4*k], false)
			ops = ops[4*k:]
			st := src.ExportState()
			clear(st.Gen)
			if err := b.RestoreState(st); err != nil {
				panic("RestoreState rejected an exported state: " + err.Error())
			}
		case 12:
			b.Reset() // the ops after it run on recycled backings
		}
	}
}

func TestApplyOpsReachesEveryField(t *testing.T) {
	// The fuzz target proves nothing about a field its op stream cannot
	// move: one stream of every record kind must leave every field of the
	// bus different from a new one.
	const ram = 8 * PageSize
	b := NewBus(ram)
	applyOps(b, []byte{
		0, 0, 0x10, 1, 0, 0x10, 0x10, 1, 0, 0x20, 0x10, 1, 12, 0, 0, 0, // pages 0-2 backed, Reset keeps them
		11, 0, 0, 1, 0, 0x50, 0, 1, // RestoreState of a bus with one store
		0, 0, 0x10, 0xAA, // store
		4, 2, 0, 1, // SetAttr
		5, 3, 0xF0, 1, // Protect + SetFineGrain
		8, 0x30, 0x10, 9, // CheckProt on the fine-grain page
		6, 8, 0, 0, // MapMMIO
		7, 1, 9, 0, // MapPort
		9, 0, 0, 0, // hooks
		10, 0, 0, 3, // fine-grain cache cap
	}, true)
	var same []string
	eachField(b, NewBus(ram), func(name string, fa, fb reflect.Value) {
		if fa.Kind() == reflect.Func && fa.IsNil() ||
			fa.Kind() != reflect.Func && reflect.DeepEqual(fa.Interface(), fb.Interface()) {
			same = append(same, name)
		}
	})
	if len(same) > 0 {
		t.Fatalf("op stream left fields untouched: %s — teach applyOps to move them", strings.Join(same, ", "))
	}
}
