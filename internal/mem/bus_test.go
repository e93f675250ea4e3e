package mem

import (
	"bytes"
	"testing"
	"testing/quick"

	"cms/internal/guest"
)

type fakeMMIO struct {
	lastWrite uint32
	readVal   uint32
	writes    []uint32
}

func (f *fakeMMIO) MMIORead(addr uint32, size int) uint32 { return f.readVal }
func (f *fakeMMIO) MMIOWrite(addr uint32, size int, v uint32) {
	f.lastWrite = v
	f.writes = append(f.writes, v)
}

type fakePort struct{ last, val uint32 }

func (f *fakePort) PortRead(port uint16) uint32     { return f.val }
func (f *fakePort) PortWrite(port uint16, v uint32) { f.last = v }

func TestRAMReadWrite(t *testing.T) {
	b := NewBus(64 * 1024)
	b.Write32(0x100, 0xdeadbeef)
	if got := b.Read32(0x100); got != 0xdeadbeef {
		t.Errorf("Read32 = %#x", got)
	}
	if got := b.Read8(0x100); got != 0xef {
		t.Errorf("Read8 = %#x (little-endian expected)", got)
	}
	b.Write8(0x103, 0x7f)
	if got := b.Read32(0x100); got != 0x7fadbeef {
		t.Errorf("after Write8, Read32 = %#x", got)
	}
}

func TestUnalignedAndCrossPage(t *testing.T) {
	b := NewBus(64 * 1024)
	addr := uint32(PageSize - 2) // straddles pages 0 and 1
	b.Write32(addr, 0x11223344)
	if got := b.Read32(addr); got != 0x11223344 {
		t.Errorf("cross-page Read32 = %#x", got)
	}
	if f := b.CheckWrite(addr, 4); f != nil {
		t.Errorf("cross-page RAM write should be allowed: %v", f)
	}
}

func TestGuestFaults(t *testing.T) {
	b := NewBus(64 * 1024)
	// Non-present page.
	b.SetAttr(2, 0)
	f := b.CheckRead(2*PageSize+8, 4)
	if f == nil || f.Vector != guest.VecPF {
		t.Errorf("read of non-present page: %v", f)
	}
	// Read-only page faults on write, not read.
	b.SetAttr(3, AttrPresent)
	if f := b.CheckRead(3*PageSize, 4); f != nil {
		t.Errorf("read of RO page should pass: %v", f)
	}
	f = b.CheckWrite(3*PageSize, 4)
	if f == nil || f.Vector != guest.VecPF || !f.Write {
		t.Errorf("write of RO page: %v", f)
	}
	// Address wrap.
	if f := b.CheckRead(0xFFFFFFFE, 4); f == nil {
		t.Error("wrapping access must fault")
	}
	// Beyond RAM.
	if f := b.CheckRead(b.RAMSize()+PageSize, 4); f == nil || f.Vector != guest.VecPF {
		t.Errorf("access beyond RAM: %v", f)
	}
}

func TestMMIODispatch(t *testing.T) {
	b := NewBus(1 << 20)
	dev := &fakeMMIO{readVal: 0xcafe}
	b.MapMMIO(0x8000, PageSize, dev)
	if !b.IsMMIO(0x8004) {
		t.Fatal("page must be MMIO")
	}
	if b.IsMMIO(0x7FFC) {
		t.Fatal("neighbor page must not be MMIO")
	}
	if got := b.Read32(0x8004); got != 0xcafe {
		t.Errorf("MMIO read = %#x", got)
	}
	b.Write32(0x8008, 0x1234)
	if dev.lastWrite != 0x1234 {
		t.Errorf("MMIO write = %#x", dev.lastWrite)
	}
	// Misaligned MMIO access faults with #GP.
	if f := b.CheckRead(0x8001, 4); f == nil || f.Vector != guest.VecGP {
		t.Errorf("misaligned MMIO: %v", f)
	}
	// Fetch from MMIO page is a #GP.
	if f := b.CheckFetch(0x8000, 2); f == nil || f.Vector != guest.VecGP {
		t.Errorf("fetch from MMIO: %v", f)
	}
	// A page written before it was mapped keeps its backing, and word stores
	// to it still reach the device, not the backing.
	b.Write32(0xA000, 1)
	b.MapMMIO(0xA000, PageSize, dev)
	if b.StoreRAM32(0xA004, 2) {
		t.Error("StoreRAM32 stored to an MMIO page")
	}
	if b.Write32(0xA004, 3); dev.lastWrite != 3 {
		t.Errorf("MMIO write over a backed page = %#x", dev.lastWrite)
	}
}

func TestMapMMIORequiresAlignment(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unaligned MapMMIO must panic")
		}
	}()
	NewBus(1<<20).MapMMIO(0x8010, PageSize, &fakeMMIO{})
}

func TestPortIO(t *testing.T) {
	b := NewBus(4096)
	dev := &fakePort{val: 7}
	b.MapPort(0x3F8, 0x3FF, dev)
	if got := b.PortRead(0x3F8); got != 7 {
		t.Errorf("PortRead = %d", got)
	}
	b.PortWrite(0x3FF, 42)
	if dev.last != 42 {
		t.Errorf("PortWrite delivered %d", dev.last)
	}
	if got := b.PortRead(0x1234); got != 0xFFFFFFFF {
		t.Errorf("unmapped port read = %#x, want all-ones", got)
	}
	b.PortWrite(0x1234, 1) // must not panic
}

func TestCoarseProtection(t *testing.T) {
	b := NewBus(1 << 16)
	b.Protect(1)
	if !b.IsProtected(1) || b.IsProtected(2) {
		t.Fatal("protection bits wrong")
	}
	hit := b.CheckProt(PageSize+4, 4, SrcCPU)
	if hit == nil || hit.Addr != PageSize+4 || hit.Src != SrcCPU {
		t.Fatalf("protected write: %+v", hit)
	}
	if b.CheckProt(2*PageSize, 4, SrcCPU) != nil {
		t.Error("unprotected page must not hit")
	}
	b.Unprotect(1)
	if b.CheckProt(PageSize+4, 4, SrcCPU) != nil {
		t.Error("unprotect must clear hits")
	}
}

func TestFineGrainProtection(t *testing.T) {
	b := NewBus(1 << 16)
	// Protect only chunk 3 of page 1.
	b.SetFineGrain(1, 1<<3)
	fg, mask := b.IsFineGrain(1)
	if !fg || mask != 1<<3 {
		t.Fatalf("fine-grain state: %v %#x", fg, mask)
	}
	// Write inside chunk 0: no hit (this is the win of §3.6.1).
	if hit := b.CheckProt(PageSize+0, 4, SrcCPU); hit != nil {
		t.Errorf("clear chunk must not hit: %+v", hit)
	}
	// Write inside chunk 3: hit.
	addr := uint32(PageSize + 3*ChunkSize + 8)
	if hit := b.CheckProt(addr, 4, SrcCPU); hit == nil {
		t.Error("set chunk must hit")
	}
	// Write straddling chunks 2 and 3 hits.
	if hit := b.CheckProt(uint32(PageSize+3*ChunkSize-2), 4, SrcCPU); hit == nil {
		t.Error("straddling write into set chunk must hit")
	}
	b.AddFineGrainChunks(1, 1<<5)
	if hit := b.CheckProt(uint32(PageSize+5*ChunkSize), 1, SrcCPU); hit == nil {
		t.Error("added chunk must hit")
	}
}

func TestFineGrainCacheRefills(t *testing.T) {
	b := NewBus(1 << 20)
	b.SetFineGrainCacheCap(2)
	for p := uint32(1); p <= 4; p++ {
		b.SetFineGrain(p, 0) // protected but no chunks set: writes proceed
	}
	// Touch pages 1..4 round-robin; cache holds 2, so most touches miss.
	before := b.Stats.FineGrainRefills
	for i := 0; i < 3; i++ {
		for p := uint32(1); p <= 4; p++ {
			if hit := b.CheckProt(p<<PageShift, 4, SrcCPU); hit != nil {
				t.Fatalf("mask 0 must not hit: %+v", hit)
			}
		}
	}
	misses := b.Stats.FineGrainRefills - before
	if misses != 12 { // every access misses with cap 2 and 4-page cycle
		t.Errorf("refills = %d, want 12", misses)
	}
	// Repeated access to the same page hits the cache after the first touch.
	before = b.Stats.FineGrainRefills
	for i := 0; i < 5; i++ {
		b.CheckProt(1<<PageShift, 4, SrcCPU)
	}
	if got := b.Stats.FineGrainRefills - before; got != 1 {
		t.Errorf("hot-page refills = %d, want 1", got)
	}
}

func TestDMAWriteInvalidatesProtection(t *testing.T) {
	b := NewBus(1 << 16)
	b.Protect(1)
	var invalidated []uint32
	b.DMAInvalidate = func(p uint32) { invalidated = append(invalidated, p) }
	data := bytes.Repeat([]byte{0xAB}, 64)
	b.DMAWrite(PageSize+16, data)
	if len(invalidated) != 1 || invalidated[0] != 1 {
		t.Fatalf("DMAInvalidate calls: %v", invalidated)
	}
	if b.IsProtected(1) {
		t.Error("DMA must drop protection")
	}
	if b.Read8(PageSize+16) != 0xAB {
		t.Error("DMA data not written")
	}
	if b.Stats.DMAInvalidations != 1 {
		t.Errorf("DMAInvalidations = %d", b.Stats.DMAInvalidations)
	}
	// Fine-grain pages are invalidated wholesale by DMA too.
	b.SetFineGrain(2, 0)
	b.DMAWrite(2*PageSize, data)
	if b.IsProtected(2) {
		t.Error("DMA must drop fine-grain protection wholesale")
	}
}

func TestFetchBytes(t *testing.T) {
	b := NewBus(1 << 16)
	b.WriteRaw(0x200, []byte{1, 2, 3, 4})
	dst := make([]byte, 4)
	if n := b.FetchBytes(0x200, dst); n != 4 || !bytes.Equal(dst, []byte{1, 2, 3, 4}) {
		t.Errorf("FetchBytes = %d, %v", n, dst)
	}
	// Fetch stops at a non-present page.
	b.SetAttr(1, 0)
	dst = make([]byte, 64)
	n := b.FetchBytes(PageSize-8, dst)
	if n != 8 {
		t.Errorf("fetch across non-present boundary = %d, want 8", n)
	}
}

func TestReadWriteRaw(t *testing.T) {
	b := NewBus(1 << 16)
	b.Protect(0)
	b.WriteRaw(0x40, []byte{9, 8, 7})
	if got := b.ReadRaw(0x40, 3); !bytes.Equal(got, []byte{9, 8, 7}) {
		t.Errorf("ReadRaw = %v", got)
	}
	if !b.IsProtected(0) {
		t.Error("WriteRaw must not interact with protection")
	}
}

// Property: for any RAM address and value, Write32 then Read32 round-trips,
// and byte order is little-endian.
func TestRAMRoundTripProperty(t *testing.T) {
	b := NewBus(1 << 16)
	f := func(addr uint16, v uint32) bool {
		a := uint32(addr)
		if a+4 > b.RAMSize() {
			a = b.RAMSize() - 4
		}
		b.Write32(a, v)
		if b.Read32(a) != v {
			return false
		}
		return b.Read8(a) == uint8(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
