package vliw

import (
	"fmt"
	"math/rand"
	"testing"

	"cms/internal/guest"
	"cms/internal/mem"
)

// ioLog is an MMIO and port device that records every write it receives, in
// order; reads are a fixed function of the address.
type ioLog struct{ writes []string }

func (d *ioLog) MMIORead(addr uint32, size int) uint32 { return addr ^ 0xA5A5A5A5 }
func (d *ioLog) MMIOWrite(addr uint32, size int, v uint32) {
	d.writes = append(d.writes, fmt.Sprintf("mmio %#x/%d=%#x", addr, size, v))
}
func (d *ioLog) PortRead(port uint16) uint32 { return uint32(port) * 3 }
func (d *ioLog) PortWrite(port uint16, v uint32) {
	d.writes = append(d.writes, fmt.Sprintf("out %#x=%#x", port, v))
}

const (
	sbRAMSize  = 1 << 16
	sbMMIOBase = 0x8000
	sbPort     = 0x60
)

// sbModel is the naive statement of what the gated store buffer means:
// committed RAM as bytes, and the uncommitted stores as an ordered list that
// a load overlays byte by byte.
type sbModel struct {
	ram     [sbRAMSize]byte
	pending []sbEntry
	io      []string // device writes commits have released, in order
}

func (md *sbModel) load(addr uint32, size uint8) uint32 {
	var v uint32
	for i := uint32(0); i < uint32(size); i++ {
		b := md.ram[addr+i]
		for _, e := range md.pending {
			if e.kind == sbRAM && addr+i >= e.addr && addr+i < e.addr+uint32(e.size) {
				b = byte(e.val >> (8 * (addr + i - e.addr)))
			}
		}
		v |= uint32(b) << (8 * i)
	}
	return v
}

func (md *sbModel) pendingIO() bool {
	for _, e := range md.pending {
		if e.kind != sbRAM {
			return true
		}
	}
	return false
}

func (md *sbModel) commit() {
	for _, e := range md.pending {
		switch e.kind {
		case sbRAM:
			for i := uint32(0); i < uint32(e.size); i++ {
				md.ram[e.addr+i] = byte(e.val >> (8 * i))
			}
		case sbMMIO:
			v := e.val
			if e.size == 1 {
				v &= 0xFF
			}
			md.io = append(md.io, fmt.Sprintf("mmio %#x/%d=%#x", e.addr, e.size, v))
		case sbOut:
			md.io = append(md.io, fmt.Sprintf("out %#x=%#x", e.addr, e.val))
		}
	}
	md.pending = md.pending[:0]
}

// sbAddrs is the pool the stream draws RAM addresses from: neighbours that
// overlap byte-wise, words that straddle a word boundary, pairs 256 bytes
// apart (the same bit of the summary mask, no overlap), and a word that
// straddles a page (no fast path on either side, drained byte by byte).
var sbAddrs = []uint32{
	0x2000, 0x2001, 0x2002, 0x2003, 0x2004, 0x2006, 0x2008,
	0x2100, 0x2101, 0x2104, 0x2200, 0x2ffd, 0x2ffe, 0x3000, 0x3040,
}

// sbHarness runs single-atom translations that leave without committing, so
// the store buffer carries over from one to the next exactly as it does
// between the molecules of a real translation.
type sbHarness struct {
	m        *Machine
	bus      *mem.Bus
	dev      *ioLog
	compiled bool
}

func newSBHarness(compiled bool) *sbHarness {
	h := &sbHarness{bus: mem.NewBus(sbRAMSize), dev: &ioLog{}, compiled: compiled}
	h.bus.MapMMIO(sbMMIOBase, mem.PageSize, h.dev)
	h.bus.MapPort(sbPort, sbPort, h.dev)
	h.m = NewMachine(h.bus)
	var regs [guest.NumRegs]uint32
	h.m.LoadGuest(&regs, guest.FlagsAlways, 0x1000)
	return h
}

const (
	sbRegAddr = RTempBase
	sbRegVal  = RTempBase + 1
	sbRegDst  = RTempBase + 2
)

func (h *sbHarness) run(a Atom, commit bool) Outcome {
	code := &Code{NumExits: 1, Mols: []Molecule{mol(a), mol(Atom{Op: AExit, Commit: commit})}}
	if h.compiled {
		return *h.m.ExecCompiled(Compile(code))
	}
	return h.m.Exec(code)
}

// checkSummaries holds the two invariants gate and dropGated keep: the mask
// covers every word of every buffered RAM store, and the I/O count is the
// number of buffered MMIO stores and OUTs.
func (h *sbHarness) checkSummaries(t *testing.T, md *sbModel, step int) {
	t.Helper()
	m := h.m
	if len(m.sb) != len(md.pending) {
		t.Fatalf("step %d: %d entries buffered, model has %d", step, len(m.sb), len(md.pending))
	}
	io := 0
	for _, e := range md.pending {
		if e.kind != sbRAM {
			io++
		} else if w := wordMask(e.addr, e.size); m.sbMask&w != w {
			t.Fatalf("step %d: summary mask %#x misses store at %#x/%d", step, m.sbMask, e.addr, e.size)
		}
	}
	if m.sbIO != io || m.pendingIO() != (io != 0) {
		t.Fatalf("step %d: sbIO = %d, want %d", step, m.sbIO, io)
	}
	if len(md.pending) == 0 && m.sbMask != 0 {
		t.Fatalf("step %d: summary mask %#x with an empty buffer", step, m.sbMask)
	}
}

// TestStoreBufferModel drives random streams of gated byte and word stores
// (overlapping, straddling, colliding in the summary mask), MMIO stores and
// OUTs, loads, commits and rollbacks through both executors and compares
// every loaded value, every fault, committed RAM and the device's view with
// the byte-map model.
func TestStoreBufferModel(t *testing.T) {
	for _, compiled := range []bool{false, true} {
		for seed := int64(1); seed <= 40; seed++ {
			rng := rand.New(rand.NewSource(seed))
			h := newSBHarness(compiled)
			md := &sbModel{}
			m := h.m
			for step := 0; step < 400; step++ {
				addr := sbAddrs[rng.Intn(len(sbAddrs))]
				size := uint8(4)
				if rng.Intn(2) == 0 {
					size = 1
				}
				val := rng.Uint32()
				m.Regs[sbRegVal] = val
				switch op := rng.Intn(20); {
				case op < 8: // RAM store
					m.Regs[sbRegAddr] = addr
					if out := h.run(Atom{Op: ASt, Ra: sbRegAddr, Rb: sbRegVal, Size: size}, false); out.Fault != FNone {
						t.Fatalf("seed %d step %d: store %#x/%d: %+v", seed, step, addr, size, out)
					}
					md.pending = append(md.pending, sbEntry{kind: sbRAM, addr: addr, val: val, size: size})
				case op < 15: // RAM load
					m.Regs[sbRegAddr] = addr
					out := h.run(Atom{Op: ALd, Rd: sbRegDst, Ra: sbRegAddr, Size: size, ProtIdx: NoAliasIdx}, false)
					if want := md.load(addr, size); out.Fault != FNone || m.Regs[sbRegDst] != want {
						t.Fatalf("seed %d step %d: load %#x/%d = %#x (%+v), want %#x; pending %+v",
							seed, step, addr, size, m.Regs[sbRegDst], out, want, md.pending)
					}
				case op == 15: // MMIO store (naturally aligned)
					mmio := sbMMIOBase + addr&0xFC
					m.Regs[sbRegAddr] = mmio
					if out := h.run(Atom{Op: ASt, Ra: sbRegAddr, Rb: sbRegVal, Size: size}, false); out.Fault != FNone {
						t.Fatalf("seed %d step %d: mmio store: %+v", seed, step, out)
					}
					md.pending = append(md.pending, sbEntry{kind: sbMMIO, addr: mmio, val: val, size: size})
				case op == 16: // OUT
					if out := h.run(Atom{Op: AOut, Imm: sbPort, Rb: sbRegVal}, false); out.Fault != FNone {
						t.Fatalf("seed %d step %d: out: %+v", seed, step, out)
					}
					md.pending = append(md.pending, sbEntry{kind: sbOut, addr: sbPort, val: val, size: 4})
				case op == 17: // in-order MMIO load: faults, and rolls back, behind gated I/O
					m.Regs[sbRegAddr] = sbMMIOBase
					out := h.run(Atom{Op: ALd, Rd: sbRegDst, Ra: sbRegAddr, Size: 4, ProtIdx: NoAliasIdx}, false)
					if md.pendingIO() {
						if out.Fault != FMMIOOrder {
							t.Fatalf("seed %d step %d: mmio load behind gated I/O: %+v", seed, step, out)
						}
						md.pending = md.pending[:0]
					} else if out.Fault != FNone || m.Regs[sbRegDst] != h.dev.MMIORead(sbMMIOBase, 4) {
						t.Fatalf("seed %d step %d: mmio load: %+v", seed, step, out)
					}
				case op == 18: // commit
					if out := h.run(Atom{Op: ANop}, true); out.Fault != FNone {
						t.Fatalf("seed %d step %d: commit: %+v", seed, step, out)
					}
					md.commit()
					if got := h.bus.ReadRaw(0x2000, 0x1100); string(got) != string(md.ram[0x2000:0x3100]) {
						t.Fatalf("seed %d step %d: committed RAM differs from the model", seed, step)
					}
					if fmt.Sprint(h.dev.writes) != fmt.Sprint(md.io) {
						t.Fatalf("seed %d step %d: device saw %v, want %v", seed, step, h.dev.writes, md.io)
					}
				default: // rollback, or the reload that follows one
					if rng.Intn(2) == 0 {
						m.rollback()
					} else {
						var regs [guest.NumRegs]uint32
						m.LoadGuest(&regs, guest.FlagsAlways, 0x1000)
					}
					md.pending = md.pending[:0]
				}
				h.checkSummaries(t, md, step)
			}
		}
	}
}

// A load pays for the buffer only when the summary says it might overlap.
func TestStoreBufferSummaryMask(t *testing.T) {
	h := newSBHarness(false)
	m := h.m
	m.gate(sbRAM, 0x2003, 0x11223344, 4) // words 0x2000 and 0x2004
	for _, c := range []struct {
		addr uint32
		size uint8
		hit  bool
	}{
		{0x2000, 4, true}, {0x2004, 1, true}, {0x2007, 1, true},
		{0x2008, 4, false}, {0x1ffc, 4, false}, {0x1ffd, 4, true}, // straddles into 0x2000
		{0x2100, 4, true}, {0x2104, 1, true}, // 256 bytes on: a collision the scan resolves
		{0x2040, 4, false},
	} {
		if got := m.sbMask&wordMask(c.addr, c.size) != 0; got != c.hit {
			t.Errorf("load %#x/%d: summary hit = %v, want %v", c.addr, c.size, got, c.hit)
		}
	}
	if v := m.sbLoad(0x2100, 4); v != 0 {
		t.Errorf("colliding load forwarded %#x from a store it does not overlap", v)
	}
	m.gate(sbMMIO, sbMMIOBase+0x40, 1, 4)
	if !m.pendingIO() {
		t.Error("gated MMIO store not counted")
	}
	if m.sbMask&wordMask(sbMMIOBase+0x40, 4) != 0 {
		t.Error("an MMIO store entered the RAM summary")
	}
}
