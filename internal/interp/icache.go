package interp

import (
	"cms/internal/guest"
	"cms/internal/mem"
)

// The decoded-instruction cache removes the fetch+decode work from the
// interpreter's per-step critical path. The paper's interpreter spends its
// time in "decode and dispatch"; on hot (but not yet translated) code our
// Step paid that price on every visit to the same EIP. The cache is a pure
// host-side accelerator: hits and misses execute identically, so profiles,
// costs, and architectural state are unaffected.
//
// Correctness against self-modifying code rides on the bus's per-page
// modification generations (mem.Bus.Gen): every RAM write — CPU store, DMA,
// raw image load — and every page-attribute change bumps the page's
// generation, and an entry is valid only while the generation(s) of the
// page(s) holding its bytes still match the fill-time values. That is
// strictly stronger than the CMS write-protection machinery, which only
// guards pages holding translations.

// icacheBits sizes the direct-mapped decoded-instruction cache. Its hit
// ratio is the same at 1024 slots as at 4096 on every benchmark workload —
// the misses are generation invalidations, not capacity — and each engine
// builds one, so it is sized for construction: 64 KiB.
const icacheBits = 10

// icacheSize is the number of entries (one per low-address slot).
const icacheSize = 1 << icacheBits

type icEntry struct {
	addr uint32 // guest EIP this slot holds (valid only if filled)
	cost uint32 // Cost(in), computed at fill; sits in addr's padding
	gen  uint64 // fill-time generation of the first byte's page
	gen2 uint64 // fill-time generation of the last byte's page
	in   guest.Insn
	ok   bool
}

// icache is the decoded-instruction cache.
type icache struct {
	slots [icacheSize]icEntry
	// Hits/Misses count lookups, for reporting and tests.
	Hits   uint64
	Misses uint64
}

// lookup returns eip's slot if it holds a still-valid decode, else nil.
func (c *icache) lookup(bus *mem.Bus, eip uint32) *icEntry {
	e := &c.slots[eip&(icacheSize-1)]
	if e.ok && e.addr == eip {
		first := mem.PageOf(eip)
		last := mem.PageOf(eip + e.in.Len - 1)
		if bus.Gen(first) == e.gen && (first == last || bus.Gen(last) == e.gen2) {
			c.Hits++
			return e
		}
	}
	c.Misses++
	return nil
}

// fill records a successful decode and returns its slot.
func (c *icache) fill(bus *mem.Bus, in guest.Insn) *icEntry {
	e := &c.slots[in.Addr&(icacheSize-1)]
	first := mem.PageOf(in.Addr)
	last := mem.PageOf(in.Addr + in.Len - 1)
	*e = icEntry{addr: in.Addr, cost: uint32(Cost(in)), gen: bus.Gen(first), gen2: bus.Gen(last), in: in, ok: true}
	return e
}
