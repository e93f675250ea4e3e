package mem

import (
	"encoding/binary"
	"testing"
)

// fuzzDev is a trivial MMIO device: a RAM-like backing array, so data read
// back through the device can be compared exactly.
type fuzzDev struct {
	mem [0x1000]byte
}

func (d *fuzzDev) MMIORead(addr uint32, size int) uint32 {
	off := addr & 0xFFF
	var v uint32
	for i := 0; i < size; i++ {
		v |= uint32(d.mem[(off+uint32(i))&0xFFF]) << (8 * i)
	}
	return v
}

func (d *fuzzDev) MMIOWrite(addr uint32, size int, v uint32) {
	off := addr & 0xFFF
	for i := 0; i < size; i++ {
		d.mem[(off+uint32(i))&0xFFF] = byte(v >> (8 * i))
	}
}

// FuzzBusReadWrite asserts the fast-path/checked-path agreement contract
// the compiled backend depends on: whenever FastRead/FastWrite approve an
// access, the checked path must agree there is no guest fault, no MMIO
// dispatch, and no CMS protection — and the data must be plain RAM. The
// bus under test has an MMIO window, a protected page, and a fine-grain
// page, so page edges against all three attribute kinds get exercised.
// Only page 1 has backing when the access runs (the last word of it is
// written), so accesses also land on never-written pages and straddle a
// backed page and an unbacked one; every RAM read, fast or not, must see
// exactly the bytes written, zeros everywhere else.
func FuzzBusReadWrite(f *testing.F) {
	const (
		ramSize  = 0x10000
		mmioBase = 0x4000
		mmioSize = 0x1000
		seeded   = 0x1FFC // page 1's last word: the only bytes written
	)
	seed := []byte{0x11, 0x22, 0x33, 0x44}
	f.Add(uint32(0x0FFE), uint8(0), uint32(0xDEADBEEF), true) // straddles pages 0/1
	f.Add(uint32(0x3FFC), uint8(2), uint32(1), false)         // last word before MMIO
	f.Add(uint32(0x4000), uint8(2), uint32(2), true)          // MMIO base
	f.Add(uint32(0x4FFF), uint8(0), uint32(3), true)          // MMIO last byte
	f.Add(uint32(0x2008), uint8(2), uint32(4), true)          // protected page
	f.Add(uint32(0x3010), uint8(1), uint32(5), true)          // fine-grain page
	f.Add(uint32(ramSize-2), uint8(2), uint32(6), false)      // runs off RAM
	f.Add(uint32(0xFFFFFFFE), uint8(2), uint32(7), true)      // address wrap
	f.Add(uint32(0x6000), uint8(2), uint32(8), false)         // never-written page
	f.Add(uint32(0x7FFF), uint8(0), uint32(9), false)         // never-written last byte
	f.Add(uint32(0x1FFE), uint8(2), uint32(10), false)        // backed 1 / protected 2
	f.Add(uint32(0x0FFE), uint8(2), uint32(11), true)         // unbacked 0 / backed 1
	f.Add(uint32(0x5FFE), uint8(2), uint32(12), true)         // both sides unbacked
	f.Add(uint32(0x1FFD), uint8(2), uint32(13), true)         // inside the backed word

	f.Fuzz(func(t *testing.T, addr uint32, sizeSel uint8, val uint32, doWrite bool) {
		bus := NewBus(ramSize)
		bus.MapMMIO(mmioBase, mmioSize, &fuzzDev{})
		bus.Protect(2) // page 2: CMS write-protected
		bus.Protect(3)
		bus.SetFineGrain(3, 0x1) // page 3: fine-grain, chunk 0 live
		bus.WriteRaw(seeded, seed)

		size := [3]uint32{1, 2, 4}[sizeSel%3]
		samePage := addr>>PageShift == (addr+size-1)>>PageShift && addr+size-1 >= addr
		ram := addr+size-1 >= addr && addr+size <= ramSize &&
			!bus.IsMMIO(addr) && !bus.IsMMIO(addr+size-1)

		// Every RAM read agrees with the bytes written, through every path.
		if ram && bus.CheckRead(addr, int(size)) == nil {
			raw := bus.ReadRaw(addr, int(size))
			for i, v := range raw {
				want := byte(0)
				if a := addr + uint32(i); a >= seeded && a < seeded+4 {
					want = seed[a-seeded]
				}
				if v != want {
					t.Fatalf("ReadRaw %#x = %#x, want %#x", addr+uint32(i), v, want)
				}
			}
			if size == 1 && bus.Read8(addr) != raw[0] {
				t.Fatalf("Read8 %#x disagrees with ReadRaw", addr)
			}
			if size == 4 && bus.Read32(addr) != binary.LittleEndian.Uint32(raw) {
				t.Fatalf("Read32 %#x disagrees with ReadRaw", addr)
			}
		}

		rfault := bus.CheckRead(addr, int(size))
		if bus.FastRead(addr, size) {
			if rfault != nil {
				t.Fatalf("FastRead approved %#x+%d but CheckRead faults: %+v", addr, size, rfault)
			}
			if bus.IsMMIO(addr) {
				t.Fatalf("FastRead approved MMIO %#x", addr)
			}
			raw := bus.ReadRaw(addr, int(size))
			var want, got uint32
			switch size {
			case 1:
				want, got = uint32(raw[0]), uint32(bus.Read8(addr))
			case 4:
				want, got = binary.LittleEndian.Uint32(raw), bus.Read32(addr)
			default:
				want, got = 0, 0
			}
			if want != got {
				t.Fatalf("fast read %#x+%d: raw %#x vs accessor %#x", addr, size, want, got)
			}
		} else if rfault == nil && samePage && !bus.IsMMIO(addr) {
			t.Fatalf("FastRead rejected a same-page RAM read at %#x+%d", addr, size)
		}

		wfault := bus.CheckWrite(addr, int(size))
		if bus.FastWrite(addr, size) {
			if wfault != nil {
				t.Fatalf("FastWrite approved %#x+%d but CheckWrite faults: %+v", addr, size, wfault)
			}
			if hit := bus.CheckProt(addr, int(size), SrcCPU); hit != nil {
				t.Fatalf("FastWrite approved %#x+%d but CheckProt hits: %+v", addr, size, hit)
			}
			if !doWrite {
				return
			}
			switch size {
			case 1:
				bus.Write8(addr, uint8(val))
				if bus.ReadRaw(addr, 1)[0] != uint8(val) {
					t.Fatalf("fast write8 %#x lost data", addr)
				}
			case 4:
				bus.Write32(addr, val)
				if binary.LittleEndian.Uint32(bus.ReadRaw(addr, 4)) != val {
					t.Fatalf("fast write32 %#x lost data", addr)
				}
			}
		} else if wfault == nil && samePage && !bus.IsMMIO(addr) &&
			!bus.IsProtected(addr>>PageShift) {
			t.Fatalf("FastWrite rejected a same-page unprotected RAM write at %#x+%d", addr, size)
		} else if doWrite && ram && size == 4 && wfault == nil &&
			bus.CheckProt(addr, int(size), SrcCPU) == nil {
			// The checked path: a word across two pages, or one FastWrite
			// declined for a clear fine-grain chunk.
			bus.Write32(addr, val)
			if binary.LittleEndian.Uint32(bus.ReadRaw(addr, 4)) != val || bus.Read32(addr) != val {
				t.Fatalf("checked write32 %#x lost data", addr)
			}
		}
	})
}
