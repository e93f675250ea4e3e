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

// Bus is the guest memory system. The zero value is not usable; call NewBus.
type Bus struct {
	ram   []byte
	attrs []Attr // one per RAM page

	regions []mmioRegion
	ports   map[uint16]PortDevice

	// CMS write protection (translation-consistency machinery).
	protected []bool   // coarse page protection
	fineMask  []uint32 // per-page chunk mask; only meaningful when fineGrain[page]
	fineGrain []bool   // page is under fine-grain rather than coarse protection

	// gen is a per-page modification generation, bumped by every RAM write
	// (CPU store, DMA, raw image write) and by attribute changes. Consumers
	// that cache anything derived from page contents — the interpreter's
	// decoded-instruction cache above all — record the generation at fill
	// time and treat any mismatch as an invalidation. This is deliberately
	// coarser than CMS write protection: it also covers pages that hold no
	// translations yet.
	gen []uint64

	// restored marks the pages RestoreState populated (nil until it runs).
	// Restored generations are verbatim, so an envelope can put bytes on a
	// page and leave its generation 0; this is the one writer gen cannot
	// vouch for. See dirty.
	restored []bool

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
// all pages initially present and writable.
func NewBus(size uint32) *Bus {
	pages := (size + PageSize - 1) / PageSize
	b := &Bus{
		ram:       make([]byte, pages*PageSize),
		attrs:     make([]Attr, pages),
		protected: make([]bool, pages),
		fineMask:  make([]uint32, pages),
		fineGrain: make([]bool, pages),
		gen:       make([]uint64, pages),
		ports:     make(map[uint16]PortDevice),
	}
	b.Reset()
	return b
}

// Reset returns the bus to exactly the state NewBus left it in — RAM zero,
// every page present and writable, no protection, no MMIO or port mappings,
// no hooks, zero Stats — and reports how many RAM pages it had to zero. The
// cost follows what the previous user touched, not the RAM size: only dirty
// pages (see dirty) are zeroed, and the per-page arrays are a few bytes a
// page. A reset bus references no device and no engine, so it can be parked
// and handed to the next tenant.
//
// NewBus itself ends in Reset, so the initial state is defined once. Every
// field the literal below does not carry over takes its zero value: a field
// added to Bus is reset by construction unless it is an allocation kept
// here, and those are what FuzzBusResetComplete compares with a fresh bus.
func (b *Bus) Reset() int {
	scrubbed := b.scrubRAM()
	for i := range b.attrs {
		b.attrs[i] = AttrPresent | AttrWritable
	}
	clear(b.protected)
	clear(b.fineMask)
	clear(b.fineGrain)
	clear(b.gen)
	clear(b.ports)
	*b = Bus{
		ram:        b.ram,
		attrs:      b.attrs,
		protected:  b.protected,
		fineMask:   b.fineMask,
		fineGrain:  b.fineGrain,
		gen:        b.gen,
		ports:      b.ports,
		fgCacheCap: 8,
	}
	return scrubbed
}

// dirty reports whether RAM page p may hold a non-zero byte. This is the
// invariant every writer of b.ram must keep: it either bumps gen[p] (CPU
// stores, DMA, WriteRaw — the hot paths already do, for the decode caches)
// or marks restored[p] (RestoreState, whose generations are the envelope's,
// not its own). Reset, ExportState and RestoreState visit dirty pages only,
// so a writer that kept neither would leak bytes to the next tenant and
// drop them from snapshots.
func (b *Bus) dirty(p uint32) bool {
	return b.gen[p] != 0 || (b.restored != nil && b.restored[p])
}

// scrubRAM zeroes every dirty page and returns how many there were.
func (b *Bus) scrubRAM() int {
	n := 0
	for p := range b.gen {
		if b.dirty(uint32(p)) {
			clear(b.ram[p<<PageShift : (p+1)<<PageShift])
			n++
		}
	}
	return n
}

// RAMSize returns the size of RAM in bytes.
func (b *Bus) RAMSize() uint32 { return uint32(len(b.ram)) }

// NumPages returns the number of RAM pages.
func (b *Bus) NumPages() uint32 { return uint32(len(b.attrs)) }

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
	if page < uint32(len(b.attrs)) {
		b.attrs[page] = a
		b.gen[page]++ // mapping changes invalidate content-derived caches
	}
}

// Gen returns the modification generation of a page. Pages beyond RAM report
// 0; they can hold no cacheable content.
func (b *Bus) Gen(page uint32) uint64 {
	if page >= uint32(len(b.gen)) {
		return 0
	}
	return b.gen[page]
}

// bumpRange advances the generation of every page intersecting
// [addr, addr+n).
func (b *Bus) bumpRange(addr uint32, n int) {
	if n <= 0 {
		return
	}
	for p := PageOf(addr); p <= PageOf(addr+uint32(n)-1) && p < uint32(len(b.gen)); p++ {
		b.gen[p]++
	}
}

// AttrOf returns the guest attributes of the page containing addr; pages
// beyond RAM report 0 (not present).
func (b *Bus) AttrOf(addr uint32) Attr {
	p := PageOf(addr)
	if p >= uint32(len(b.attrs)) {
		return 0
	}
	return b.attrs[p]
}

// MapMMIO attaches dev at [base, base+size). The covered pages are marked
// AttrMMIO. base and size must be page-aligned.
func (b *Bus) MapMMIO(base, size uint32, dev MMIODevice) {
	if base%PageSize != 0 || size%PageSize != 0 {
		panic("mem: MMIO region must be page-aligned")
	}
	b.regions = append(b.regions, mmioRegion{base: base, size: size, dev: dev})
	for p := PageOf(base); p < PageOf(base+size-1)+1; p++ {
		if p < uint32(len(b.attrs)) {
			b.attrs[p] = AttrPresent | AttrMMIO
			b.gen[p]++
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
	return p < uint32(len(b.attrs)) && (addr+size-1)>>PageShift == p &&
		b.attrs[p]&(AttrPresent|AttrMMIO) == AttrPresent
}

// LoadRAM32 is FastRead(addr, 4) and the little-endian read it licenses in
// one step: ok is false, and nothing is read, for any word FastRead rejects.
func (b *Bus) LoadRAM32(addr uint32) (v uint32, ok bool) {
	p := addr >> PageShift
	if p < uint32(len(b.attrs)) && (addr+3)>>PageShift == p &&
		b.attrs[p]&(AttrPresent|AttrMMIO) == AttrPresent {
		return binary.LittleEndian.Uint32(b.ram[addr:]), true
	}
	return 0, false
}

// FastWrite is FastRead's store twin: a single present, writable, non-MMIO
// page with no CMS write protection, where CheckWrite and CheckProt both
// return nil with no side effects.
func (b *Bus) FastWrite(addr, size uint32) bool {
	if b.ForceProtHit != nil {
		return false
	}
	p := addr >> PageShift
	return p < uint32(len(b.attrs)) && (addr+size-1)>>PageShift == p &&
		b.attrs[p]&(AttrPresent|AttrMMIO|AttrWritable) == AttrPresent|AttrWritable &&
		(p >= uint32(len(b.protected)) || !b.protected[p])
}

func (b *Bus) check(addr uint32, size int, write bool) *GuestFault {
	end := addr + uint32(size) - 1
	if end < addr { // wrap
		return &GuestFault{Vector: guest.VecGP, Addr: addr, Write: write}
	}
	for p := PageOf(addr); ; p++ {
		if p >= uint32(len(b.attrs)) || b.attrs[p]&AttrPresent == 0 {
			return &GuestFault{Vector: guest.VecPF, Addr: addr, Write: write}
		}
		a := b.attrs[p]
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
		if p >= uint32(len(b.attrs)) || b.attrs[p]&AttrPresent == 0 {
			return &GuestFault{Vector: guest.VecNP, Addr: addr}
		}
		if b.attrs[p]&AttrMMIO != 0 {
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
	if b.AttrOf(addr)&AttrMMIO != 0 {
		return uint8(b.findRegion(addr).dev.MMIORead(addr, 1))
	}
	return b.ram[addr]
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
	if b.AttrOf(addr)&AttrMMIO != 0 {
		b.findRegion(addr).dev.MMIOWrite(addr, 1, uint32(v))
		return
	}
	b.ram[addr] = v
	b.gen[PageOf(addr)]++
}

// Write32 performs a guest 32-bit store. The caller must have passed
// CheckWrite and handled CheckProt.
func (b *Bus) Write32(addr uint32, v uint32) {
	if b.AttrOf(addr)&AttrMMIO != 0 {
		b.findRegion(addr).dev.MMIOWrite(addr, 4, v)
		return
	}
	if !b.StoreRAM32(addr, v) {
		for i := 0; i < 4; i++ {
			b.Write8(addr+uint32(i), uint8(v>>(8*i)))
		}
	}
}

// StoreRAM32 is Write32 for a word the caller knows is not MMIO (the gated
// store buffer checked when the store entered it): it skips the device
// dispatch. It stores nothing and reports false when the word is not inside
// one RAM page; Write32 then goes byte by byte.
func (b *Bus) StoreRAM32(addr uint32, v uint32) bool {
	p := addr >> PageShift
	if p >= uint32(len(b.gen)) || (addr+3)>>PageShift != p {
		return false
	}
	binary.LittleEndian.PutUint32(b.ram[addr:], v)
	b.gen[p]++
	return true
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
		if p >= uint32(len(b.attrs)) || b.attrs[p]&AttrPresent == 0 || b.attrs[p]&AttrMMIO != 0 {
			break
		}
		// Copy to end of page or end of dst.
		pageEnd := (p + 1) << PageShift
		m := int(pageEnd - a)
		if m > len(dst)-n {
			m = len(dst) - n
		}
		copy(dst[n:n+m], b.ram[a:uint32(a)+uint32(m)])
		n += m
	}
	return n
}

// inRAM clips the n-byte range at addr to RAM and returns how many of its
// bytes exist. The raw and DMA accessors take addresses and counts from
// device registers and image headers, which the guest (or whoever wrote the
// image) controls; they are clipped here, once, so no caller can index past
// RAM and the interpreter and translated paths see the same behaviour.
func (b *Bus) inRAM(addr uint32, n int) int {
	if n <= 0 || uint64(addr) >= uint64(len(b.ram)) {
		return 0
	}
	return min(n, len(b.ram)-int(addr))
}

// ReadRaw returns a copy of n bytes of RAM at addr with no checks (for
// loaders, snapshots, the self-check comparators, and device DMA reads).
// Bytes beyond RAM read as zero.
func (b *Bus) ReadRaw(addr uint32, n int) []byte {
	out := make([]byte, n)
	if m := b.inRAM(addr, n); m > 0 {
		copy(out, b.ram[addr:])
	}
	return out
}

// WriteRaw stores bytes with no checks and no protection interaction (image
// loading only). Bytes beyond RAM are dropped.
func (b *Bus) WriteRaw(addr uint32, data []byte) {
	n := b.inRAM(addr, len(data))
	if n == 0 {
		return
	}
	copy(b.ram[addr:], data[:n])
	b.bumpRange(addr, n)
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
	copy(b.ram[addr:], data[:n])
	b.bumpRange(addr, n)
}
