// Package mem implements the guest physical memory system: RAM with
// per-page attributes, memory-mapped I/O dispatch, port I/O dispatch, DMA,
// and the CMS-side write-protection machinery (coarse page protection plus
// the fine-grain protect cache of §3.6.1 of the paper).
//
// The bus itself is policy-free: reads and writes *report* guest faults and
// CMS protection hits to the caller instead of handling them, because the
// correct response differs between the interpreter (deliver a precise guest
// exception / ask CMS to invalidate translations) and the VLIW machine
// (raise a host exception and roll back).
package mem

import (
	"encoding/binary"
	"fmt"

	"cms/internal/guest"
)

// Page geometry.
const (
	PageShift = 12
	PageSize  = 1 << PageShift

	// ChunkShift is the fine-grain protection granularity (§3.6.1): 128-byte
	// chunks, 32 chunks per page, so a page's fine-grain state is one
	// uint32 mask.
	ChunkShift    = 7
	ChunkSize     = 1 << ChunkShift
	ChunksPerPage = PageSize / ChunkSize
)

// PageOf returns the page number containing addr.
func PageOf(addr uint32) uint32 { return addr >> PageShift }

// ChunkOf returns the chunk index of addr within its page.
func ChunkOf(addr uint32) uint32 { return (addr >> ChunkShift) & (ChunksPerPage - 1) }

// Attr holds guest-architectural page attributes (a one-level flat "page
// table": the guest address space is identity-mapped, which keeps the MMU
// simple while preserving everything the paper's challenges need — per-page
// permissions, MMIO pages, and pages that appear and disappear under DMA
// paging activity).
type Attr uint8

const (
	// AttrPresent marks a mapped page; access to a non-present page raises
	// a guest page fault.
	AttrPresent Attr = 1 << iota
	// AttrWritable permits guest stores. Writes to present read-only pages
	// raise a guest page fault.
	AttrWritable
	// AttrMMIO marks a page whose loads and stores are dispatched to a
	// device instead of RAM. MMIO pages cannot be executed.
	AttrMMIO
)

// GuestFault describes an architectural guest exception raised by a memory
// access. A nil *GuestFault means the access is permitted.
type GuestFault struct {
	Vector int    // guest.VecPF, guest.VecGP, or guest.VecNP
	Addr   uint32 // faulting guest address
	Write  bool
}

func (f *GuestFault) Error() string {
	kind := "read"
	if f.Write {
		kind = "write"
	}
	return fmt.Sprintf("guest fault vec=%d %s at %#x", f.Vector, kind, f.Addr)
}

// MMIODevice is the interface memory-mapped devices implement. size is 1 or
// 4; addr is the absolute guest address. Device reads must be idempotent
// (see DESIGN.md: translations may re-execute an in-order MMIO load after a
// rollback); devices in this repository transfer bulk data by DMA rather
// than by destructive register reads.
type MMIODevice interface {
	MMIORead(addr uint32, size int) uint32
	MMIOWrite(addr uint32, size int, v uint32)
}

// PortDevice is the interface port-mapped devices implement.
type PortDevice interface {
	PortRead(port uint16) uint32
	PortWrite(port uint16, v uint32)
}

// WriteSource identifies who performed a write, for protection accounting.
type WriteSource uint8

const (
	SrcCPU WriteSource = iota // interpreter or committed translation store
	SrcDMA                    // device DMA
)

// ProtHit describes a write that struck CMS-protected memory. The bus does
// not perform the write; the caller must consult CMS and retry.
type ProtHit struct {
	Addr uint32
	Size int
	Src  WriteSource
}

type mmioRegion struct {
	base, size uint32
	dev        MMIODevice
}

// pageEntry is one RAM page's guest attributes, generation and backing, kept
// in one entry so an access pays one bounds check for all three.
//
// ram is nil until the page is first written, and a page with no backing
// reads as zero. That is the dirty-page invariant: only a backed page can
// hold a non-zero byte, so Reset, ExportState and RestoreState visit backed
// pages only. Every writer of RAM gives the page its backing first, through
// page, the one place a backing is handed out.
//
// gen is the page's modification generation, bumped by every RAM write (CPU
// store, DMA, raw image write) and by attribute changes. Consumers that
// cache anything derived from page contents — the interpreter's
// decoded-instruction cache above all — record the generation at fill time
// and treat any mismatch as an invalidation. This is deliberately coarser
// than CMS write protection: it also covers pages that hold no translations
// yet.
type pageEntry struct {
	ram  *[PageSize]byte
	gen  uint64
	attr Attr
}

// Bus is the guest memory system. The zero value is not usable; call NewBus.
type Bus struct {
	pages []pageEntry

	// spare holds the zeroed backings Reset and RestoreState took off their
	// pages; page reuses them before it allocates, so a recycled bus keeps
	// its working set. A backing is on a page or here, never both, so spare
	// never holds more than one backing per page.
	spare []*[PageSize]byte

	regions []mmioRegion
	ports   map[uint16]PortDevice

	// CMS write protection (translation-consistency machinery).
	protected []bool   // coarse page protection
	fineMask  []uint32 // per-page chunk mask; only meaningful when fineGrain[page]
	fineGrain []bool   // page is under fine-grain rather than coarse protection

	// The fine-grain hardware cache: a small set of pages whose fine-grain
	// masks are resident in "hardware". A write to a fine-grain page that
	// misses this cache costs a lightweight software refill (counted in
	// Stats.FineGrainRefills) but does not need a full protection fault.
	fgCache    []uint32 // page numbers, most recently used first
	fgCacheCap int

	// DMAInvalidate, if non-nil, is called when DMA writes a CMS-protected
	// page, before the protection is dropped and the data written. Per
	// §3.6.1, DMA invalidates all translations for the page regardless of
	// fine-grain state (to keep demand paging cheap).
	DMAInvalidate func(page uint32)

	// ForceProtHit, if non-nil, lets a fault-injection harness make
	// CheckProt report a hit for a write it would otherwise pass. A forced
	// hit is indistinguishable from a real one to every consumer (the
	// protection response re-checks and retries, so a spurious hit costs
	// work but never changes guest state — "conservative but never wrong").
	// Implementations must be deterministic and must not fire on
	// consecutive CheckProt calls, or the resolve-and-retry loop around a
	// single store could spin forever. While set, FastWrite declines every
	// access so all stores reach the checked path.
	ForceProtHit func(addr uint32, size int, src WriteSource) bool

	// Stats accumulates bus-level protection events.
	Stats BusStats
}

// BusStats counts protection-related bus events.
type BusStats struct {
	FineGrainRefills uint64 // fine-grain cache misses serviced by software
	DMAInvalidations uint64 // pages invalidated by DMA writes
}

// NewBus creates a bus with size bytes of RAM (rounded up to a whole page),
// all pages initially present and writable. No page has backing yet: a new
// bus costs its per-page arrays, a few bytes a page, whatever its RAM size.
func NewBus(size uint32) *Bus {
	pages := (size + PageSize - 1) / PageSize
	b := &Bus{
		pages:     make([]pageEntry, pages),
		protected: make([]bool, pages),
		fineMask:  make([]uint32, pages),
		fineGrain: make([]bool, pages),
		ports:     make(map[uint16]PortDevice),
	}
	b.Reset()
	return b
}

// Reset returns the bus to exactly the state NewBus left it in — RAM zero,
// every page present and writable, no protection, no MMIO or port mappings,
// no hooks, zero Stats — and reports how many RAM pages it had to zero. The
// cost follows what the previous user touched, not the RAM size: only backed
// pages are zeroed, and their backings go to spare for the next tenant. A
// reset bus references no device and no engine, so it can be parked and
// handed to the next tenant.
//
// NewBus itself ends in Reset, so the initial state is defined once. Every
// field the literal below does not carry over takes its zero value: a field
// added to Bus is reset by construction unless it is an allocation kept
// here, and those are what FuzzBusResetComplete compares with a fresh bus.
func (b *Bus) Reset() int {
	scrubbed := b.scrubRAM()
	for i := range b.pages {
		b.pages[i] = pageEntry{attr: AttrPresent | AttrWritable}
	}
	clear(b.protected)
	clear(b.fineMask)
	clear(b.fineGrain)
	clear(b.ports)
	*b = Bus{
		pages:      b.pages,
		spare:      b.spare,
		protected:  b.protected,
		fineMask:   b.fineMask,
		fineGrain:  b.fineGrain,
		ports:      b.ports,
		fgCacheCap: 8,
	}
	return scrubbed
}

// scrubRAM zeroes every backed page, moves its backing to spare, and returns
// how many there were.
func (b *Bus) scrubRAM() int {
	n := 0
	for i := range b.pages {
		if r := b.pages[i].ram; r != nil {
			clear(r[:])
			b.spare = append(b.spare, r)
			b.pages[i].ram = nil
			n++
		}
	}
	return n
}

// page returns the backing of RAM page p, giving the page one first if it
// has none: a zeroed backing from spare, or a new one. It is the only place
// a page gains backing, and it is kept out of line and off the fast paths:
// StoreRAM32 declines a page with no backing, and Write8 calls it only on a
// page's first write.
//
//go:noinline
func (b *Bus) page(p uint32) *[PageSize]byte {
	pg := &b.pages[p]
	if pg.ram == nil {
		if n := len(b.spare); n > 0 {
			pg.ram = b.spare[n-1]
			b.spare = b.spare[:n-1]
		} else {
			pg.ram = new([PageSize]byte)
		}
	}
	return pg.ram
}

// RAMSize returns the size of RAM in bytes.
func (b *Bus) RAMSize() uint32 { return uint32(len(b.pages)) << PageShift }

// NumPages returns the number of RAM pages.
func (b *Bus) NumPages() uint32 { return uint32(len(b.pages)) }

// SetFineGrainCacheCap sets the number of fine-grain page entries the
// simulated hardware cache can hold (default 8).
func (b *Bus) SetFineGrainCacheCap(n int) {
	b.fgCacheCap = n
	if len(b.fgCache) > n {
		b.fgCache = b.fgCache[:n]
	}
}

// SetAttr replaces the guest attributes of a page.
func (b *Bus) SetAttr(page uint32, a Attr) {
	if page < uint32(len(b.pages)) {
		b.pages[page].attr = a
		b.pages[page].gen++ // mapping changes invalidate content-derived caches
	}
}

// Gen returns the modification generation of a page. Pages beyond RAM report
// 0; they can hold no cacheable content.
func (b *Bus) Gen(page uint32) uint64 {
	if page >= uint32(len(b.pages)) {
		return 0
	}
	return b.pages[page].gen
}

// AttrOf returns the guest attributes of the page containing addr; pages
// beyond RAM report 0 (not present).
func (b *Bus) AttrOf(addr uint32) Attr {
	p := PageOf(addr)
	if p >= uint32(len(b.pages)) {
		return 0
	}
	return b.pages[p].attr
}

// MapMMIO attaches dev at [base, base+size). The covered pages are marked
// AttrMMIO. base and size must be page-aligned.
func (b *Bus) MapMMIO(base, size uint32, dev MMIODevice) {
	if base%PageSize != 0 || size%PageSize != 0 {
		panic("mem: MMIO region must be page-aligned")
	}
	b.regions = append(b.regions, mmioRegion{base: base, size: size, dev: dev})
	for p := PageOf(base); p < PageOf(base+size-1)+1; p++ {
		if p < uint32(len(b.pages)) {
			b.pages[p].attr = AttrPresent | AttrMMIO
			b.pages[p].gen++
		}
	}
}

// MapPort attaches dev to a range of I/O ports [lo, hi].
func (b *Bus) MapPort(lo, hi uint16, dev PortDevice) {
	for p := uint32(lo); p <= uint32(hi); p++ {
		b.ports[uint16(p)] = dev
	}
}

// IsMMIO reports whether addr falls in a memory-mapped I/O page. This is the
// predicate the speculation hardware applies to reordered memory atoms
// (§3.4): the translator cannot know it statically, but the hardware can
// check it per access.
func (b *Bus) IsMMIO(addr uint32) bool {
	return b.AttrOf(addr)&AttrMMIO != 0
}

func (b *Bus) findRegion(addr uint32) *mmioRegion {
	for i := range b.regions {
		r := &b.regions[i]
		if addr >= r.base && addr < r.base+r.size {
			return r
		}
	}
	return nil
}

// --- Guest-architectural access checks -------------------------------------

// CheckRead reports the guest fault, if any, for a data read of size bytes
// at addr.
func (b *Bus) CheckRead(addr uint32, size int) *GuestFault {
	return b.check(addr, size, false)
}

// CheckWrite reports the guest fault, if any, for a data write of size bytes
// at addr. It does not consult CMS protection; see CheckProt.
func (b *Bus) CheckWrite(addr uint32, size int) *GuestFault {
	return b.check(addr, size, true)
}

// FastRead reports whether a read of size bytes at addr lies entirely
// within one present, non-MMIO page — the case where CheckRead returns nil
// and the data comes from RAM. It is small enough to inline into the
// compiled backend's load closures; any access it rejects takes the full
// slow path, so it may be conservative but never wrong.
func (b *Bus) FastRead(addr, size uint32) bool {
	p := addr >> PageShift
	return p < uint32(len(b.pages)) && (addr+size-1)>>PageShift == p &&
		b.pages[p].attr&(AttrPresent|AttrMMIO) == AttrPresent
}

// LoadRAM32 is FastRead(addr, 4) and the little-endian read it licenses in
// one step: ok is false, and nothing is read, for any word FastRead rejects.
func (b *Bus) LoadRAM32(addr uint32) (v uint32, ok bool) {
	p := addr >> PageShift
	if p >= uint32(len(b.pages)) || (addr+3)>>PageShift != p {
		return 0, false
	}
	pg := &b.pages[p]
	if pg.attr&(AttrPresent|AttrMMIO) != AttrPresent {
		return 0, false
	}
	if pg.ram == nil {
		return 0, true
	}
	return binary.LittleEndian.Uint32(pg.ram[addr&(PageSize-1):]), true
}

// FastWrite is FastRead's store twin: a single present, writable, non-MMIO
// page with no CMS write protection, where CheckWrite and CheckProt both
// return nil with no side effects.
func (b *Bus) FastWrite(addr, size uint32) bool {
	if b.ForceProtHit != nil {
		return false
	}
	p := addr >> PageShift
	return p < uint32(len(b.pages)) && (addr+size-1)>>PageShift == p &&
		b.pages[p].attr&(AttrPresent|AttrMMIO|AttrWritable) == AttrPresent|AttrWritable &&
		(p >= uint32(len(b.protected)) || !b.protected[p])
}

func (b *Bus) check(addr uint32, size int, write bool) *GuestFault {
	end := addr + uint32(size) - 1
	if end < addr { // wrap
		return &GuestFault{Vector: guest.VecGP, Addr: addr, Write: write}
	}
	for p := PageOf(addr); ; p++ {
		if p >= uint32(len(b.pages)) || b.pages[p].attr&AttrPresent == 0 {
			return &GuestFault{Vector: guest.VecPF, Addr: addr, Write: write}
		}
		a := b.pages[p].attr
		if a&AttrMMIO != 0 {
			// MMIO accesses must be naturally aligned and not straddle the
			// region; otherwise the device semantics are undefined.
			if addr%uint32(size) != 0 || b.findRegion(addr) == nil {
				return &GuestFault{Vector: guest.VecGP, Addr: addr, Write: write}
			}
		} else if write && a&AttrWritable == 0 {
			return &GuestFault{Vector: guest.VecPF, Addr: addr, Write: true}
		}
		if p == PageOf(end) {
			return nil
		}
	}
}

// CheckFetch reports the guest fault, if any, for fetching n instruction
// bytes at addr. Fetching from an MMIO page is a protection error.
func (b *Bus) CheckFetch(addr uint32, n int) *GuestFault {
	end := addr + uint32(n) - 1
	if end < addr {
		return &GuestFault{Vector: guest.VecGP, Addr: addr}
	}
	for p := PageOf(addr); ; p++ {
		if p >= uint32(len(b.pages)) || b.pages[p].attr&AttrPresent == 0 {
			return &GuestFault{Vector: guest.VecNP, Addr: addr}
		}
		if b.pages[p].attr&AttrMMIO != 0 {
			return &GuestFault{Vector: guest.VecGP, Addr: addr}
		}
		if p == PageOf(end) {
			return nil
		}
	}
}

// --- CMS write protection ---------------------------------------------------

// Protect places a page under coarse CMS write protection (set when a
// translation is made from code on the page).
func (b *Bus) Protect(page uint32) {
	if page < uint32(len(b.protected)) {
		b.protected[page] = true
		b.fineGrain[page] = false
	}
}

// Unprotect removes all CMS protection from a page.
func (b *Bus) Unprotect(page uint32) {
	if page < uint32(len(b.protected)) {
		b.protected[page] = false
		b.fineGrain[page] = false
		b.fineMask[page] = 0
		b.fgEvict(page)
	}
}

// SetFineGrain switches a page to fine-grain protection with the given chunk
// mask (bit i set = chunk i contains translated code and must fault on
// writes).
func (b *Bus) SetFineGrain(page uint32, mask uint32) {
	if page < uint32(len(b.protected)) {
		b.protected[page] = true
		b.fineGrain[page] = true
		b.fineMask[page] = mask
	}
}

// AddFineGrainChunks ORs chunks into a fine-grain page's mask.
func (b *Bus) AddFineGrainChunks(page uint32, mask uint32) {
	if page < uint32(len(b.fineMask)) && b.fineGrain[page] {
		b.fineMask[page] |= mask
	}
}

// ClearFineGrainChunks clears chunks from a fine-grain page's mask (used
// when the translations covering them are invalidated or their prologues
// take over checking).
func (b *Bus) ClearFineGrainChunks(page uint32, mask uint32) {
	if page < uint32(len(b.fineMask)) && b.fineGrain[page] {
		b.fineMask[page] &^= mask
	}
}

// IsProtected reports whether the page has any CMS protection.
func (b *Bus) IsProtected(page uint32) bool {
	return page < uint32(len(b.protected)) && b.protected[page]
}

// IsFineGrain reports whether the page is under fine-grain protection, and
// its chunk mask.
func (b *Bus) IsFineGrain(page uint32) (bool, uint32) {
	if page >= uint32(len(b.protected)) || !b.fineGrain[page] {
		return false, 0
	}
	return true, b.fineMask[page]
}

func (b *Bus) fgCacheLookup(page uint32) bool {
	for i, p := range b.fgCache {
		if p == page {
			// Move to front (LRU).
			copy(b.fgCache[1:i+1], b.fgCache[:i])
			b.fgCache[0] = page
			return true
		}
	}
	return false
}

func (b *Bus) fgCacheInsert(page uint32) {
	if len(b.fgCache) < b.fgCacheCap {
		b.fgCache = append(b.fgCache, 0)
	}
	copy(b.fgCache[1:], b.fgCache)
	b.fgCache[0] = page
}

func (b *Bus) fgEvict(page uint32) {
	for i, p := range b.fgCache {
		if p == page {
			b.fgCache = append(b.fgCache[:i], b.fgCache[i+1:]...)
			return
		}
	}
}

// CheckProt consults CMS write protection for a write of size bytes at addr.
// It returns a non-nil ProtHit if the write must be referred to CMS. Writes
// to fine-grain pages whose touched chunks are all clear proceed without a
// hit (that is the whole point of fine-grain protection); a fine-grain cache
// miss is charged to Stats.FineGrainRefills.
func (b *Bus) CheckProt(addr uint32, size int, src WriteSource) *ProtHit {
	if b.ForceProtHit != nil && b.ForceProtHit(addr, size, src) {
		return &ProtHit{Addr: addr, Size: size, Src: src}
	}
	first, last := PageOf(addr), PageOf(addr+uint32(size)-1)
	for p := first; p <= last && p < uint32(len(b.protected)); p++ {
		if !b.protected[p] {
			continue
		}
		if !b.fineGrain[p] {
			return &ProtHit{Addr: addr, Size: size, Src: src}
		}
		// Fine-grain page: model the hardware cache.
		if !b.fgCacheLookup(p) {
			b.Stats.FineGrainRefills++
			b.fgCacheInsert(p)
		}
		lo, hi := addr, addr+uint32(size)-1
		if PageOf(lo) != p {
			lo = p << PageShift
		}
		if PageOf(hi) != p {
			hi = p<<PageShift + PageSize - 1
		}
		for c := ChunkOf(lo); c <= ChunkOf(hi); c++ {
			if b.fineMask[p]&(1<<c) != 0 {
				return &ProtHit{Addr: addr, Size: size, Src: src}
			}
		}
	}
	return nil
}

// --- Data access ------------------------------------------------------------

// Read8 performs a guest byte load. The caller must have passed CheckRead.
func (b *Bus) Read8(addr uint32) uint8 {
	pg := &b.pages[addr>>PageShift]
	if pg.attr&AttrMMIO != 0 {
		return uint8(b.findRegion(addr).dev.MMIORead(addr, 1))
	}
	if pg.ram == nil {
		return 0
	}
	return pg.ram[addr&(PageSize-1)]
}

// Read32 performs a guest 32-bit load (little-endian). The caller must have
// passed CheckRead.
func (b *Bus) Read32(addr uint32) uint32 {
	if v, ok := b.LoadRAM32(addr); ok {
		return v
	}
	if b.AttrOf(addr)&AttrMMIO != 0 {
		return b.findRegion(addr).dev.MMIORead(addr, 4)
	}
	var v uint32
	for i := 0; i < 4; i++ {
		v |= uint32(b.Read8(addr+uint32(i))) << (8 * i)
	}
	return v
}

// Write8 performs a guest byte store. The caller must have passed CheckWrite
// and handled CheckProt.
func (b *Bus) Write8(addr uint32, v uint8) {
	p := addr >> PageShift
	pg := &b.pages[p]
	if pg.attr&AttrMMIO != 0 {
		b.findRegion(addr).dev.MMIOWrite(addr, 1, uint32(v))
		return
	}
	r := pg.ram
	if r == nil {
		r = b.page(p)
	}
	r[addr&(PageSize-1)] = v
	pg.gen++
}

// Write32 performs a guest 32-bit store. The caller must have passed
// CheckWrite and handled CheckProt.
func (b *Bus) Write32(addr uint32, v uint32) {
	if !b.StoreRAM32(addr, v) {
		b.store32(addr, v)
	}
}

// StoreRAM32 is Write32's fast path, and the whole of it for a store the
// gated store buffer already knows is RAM: a word inside one backed,
// non-MMIO page, stored with one generation step. It stores nothing and
// reports false for any other word; Write32 then takes its slow path.
// Declining a page's first write, rather than backing the page here, is
// what keeps this inlinable.
func (b *Bus) StoreRAM32(addr uint32, v uint32) bool {
	p := addr >> PageShift
	if p >= uint32(len(b.pages)) || (addr+3)>>PageShift != p {
		return false
	}
	pg := &b.pages[p]
	if pg.ram == nil || pg.attr&AttrMMIO != 0 {
		return false
	}
	binary.LittleEndian.PutUint32(pg.ram[addr&(PageSize-1):], v)
	pg.gen++
	return true
}

// store32 is Write32 for a word StoreRAM32 declined. An MMIO word goes to
// its device. A RAM word inside one page is the page's first write: the page
// gets its backing and the word is stored whole, one generation step as on
// every other word store. A word across two pages goes byte by byte.
func (b *Bus) store32(addr uint32, v uint32) {
	if b.AttrOf(addr)&AttrMMIO != 0 {
		b.findRegion(addr).dev.MMIOWrite(addr, 4, v)
		return
	}
	if p := addr >> PageShift; (addr+3)>>PageShift == p {
		b.page(p)
		b.StoreRAM32(addr, v)
		return
	}
	for i := 0; i < 4; i++ {
		b.Write8(addr+uint32(i), uint8(v>>(8*i)))
	}
}

// PortRead reads a 32-bit value from an I/O port. Unmapped ports float high,
// as on a PC.
func (b *Bus) PortRead(port uint16) uint32 {
	if d, ok := b.ports[port]; ok {
		return d.PortRead(port)
	}
	return 0xFFFFFFFF
}

// PortWrite writes a 32-bit value to an I/O port. Writes to unmapped ports
// are discarded.
func (b *Bus) PortWrite(port uint16, v uint32) {
	if d, ok := b.ports[port]; ok {
		d.PortWrite(port, v)
	}
}

// FetchBytes copies up to n instruction bytes starting at addr into dst,
// returning how many bytes were fetchable before hitting an unmapped or
// MMIO page. It never faults; callers detect short fetches by the count.
func (b *Bus) FetchBytes(addr uint32, dst []byte) int {
	n := 0
	for n < len(dst) {
		a := addr + uint32(n)
		if a < addr { // wrapped
			break
		}
		p := PageOf(a)
		if p >= uint32(len(b.pages)) || b.pages[p].attr&(AttrPresent|AttrMMIO) != AttrPresent {
			break
		}
		n += b.copyOut(dst[n:], a)
	}
	return n
}

// copyOut fills dst from RAM at addr, stopping at the end of addr's page,
// and returns how many bytes it filled. A page with no backing reads as
// zero. addr must be in RAM.
func (b *Bus) copyOut(dst []byte, addr uint32) int {
	off := addr & (PageSize - 1)
	if r := b.pages[addr>>PageShift].ram; r != nil {
		return copy(dst, r[off:])
	}
	n := min(len(dst), PageSize-int(off))
	clear(dst[:n])
	return n
}

// copyIn stores data at addr page by page, giving each page its backing and
// advancing its generation. data must lie in RAM.
func (b *Bus) copyIn(addr uint32, data []byte) {
	for len(data) > 0 {
		p := addr >> PageShift
		n := copy(b.page(p)[addr&(PageSize-1):], data)
		b.pages[p].gen++
		addr += uint32(n)
		data = data[n:]
	}
}

// inRAM clips the n-byte range at addr to RAM and returns how many of its
// bytes exist. The raw and DMA accessors take addresses and counts from
// device registers and image headers, which the guest (or whoever wrote the
// image) controls; they are clipped here, once, so no caller can index past
// RAM and the interpreter and translated paths see the same behaviour.
func (b *Bus) inRAM(addr uint32, n int) int {
	size := uint64(len(b.pages)) << PageShift
	if n <= 0 || uint64(addr) >= size {
		return 0
	}
	return int(min(uint64(n), size-uint64(addr)))
}

// ReadRaw returns a copy of n bytes of RAM at addr with no checks (for
// loaders, snapshots, the self-check comparators, and device DMA reads).
// Bytes beyond RAM read as zero.
func (b *Bus) ReadRaw(addr uint32, n int) []byte {
	out := make([]byte, n)
	m := b.inRAM(addr, n)
	for k := 0; k < m; {
		k += b.copyOut(out[k:m], addr+uint32(k))
	}
	return out
}

// WriteRaw stores bytes with no checks and no protection interaction (image
// loading only). Bytes beyond RAM are dropped.
func (b *Bus) WriteRaw(addr uint32, data []byte) {
	b.copyIn(addr, data[:b.inRAM(addr, len(data))])
}

// DMAWrite performs a device DMA write. DMA bypasses guest page permissions
// but interacts with CMS protection: a protected page is reported through
// DMAInvalidate and its protection dropped before the data lands (§3.6.1).
// Bytes beyond RAM are dropped, and an empty transfer touches nothing.
func (b *Bus) DMAWrite(addr uint32, data []byte) {
	n := b.inRAM(addr, len(data))
	if n == 0 {
		return
	}
	for p := PageOf(addr); p <= PageOf(addr+uint32(n)-1); p++ {
		if b.protected[p] {
			b.Stats.DMAInvalidations++
			if b.DMAInvalidate != nil {
				b.DMAInvalidate(p)
			}
			b.Unprotect(p)
		}
	}
	b.copyIn(addr, data[:n])
}
