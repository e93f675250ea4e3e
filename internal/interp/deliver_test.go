package interp

import (
	"bytes"
	"fmt"
	"maps"
	"testing"

	"cms/internal/guest"
	"cms/internal/mem"
)

// countingDev is an MMIO device that answers every read with val and counts
// the reads and writes it sees.
type countingDev struct {
	val            uint32
	reads, writes  int
	lastW, lastVal uint32
}

func (d *countingDev) MMIORead(addr uint32, size int) uint32 { d.reads++; return d.val }
func (d *countingDev) MMIOWrite(addr uint32, size int, v uint32) {
	d.writes++
	d.lastW, d.lastVal = addr, v
}

// TestDeliveryFastPathIsExact runs deliver, which tries the bus fast paths
// first, and deliverChecked, which makes every check, on the same state
// across every way a delivery's IVT read or stack pushes can leave RAM's
// common case. Both must leave identical CPU state, Result, profile heads,
// bus bytes, page generations, protection statistics and device traffic;
// fast says which cases the fast path itself decides.
func TestDeliveryFastPathIsExact(t *testing.T) {
	const (
		vec     = guest.VecIRQBase
		ivt     = guest.IVTBase + 4*vec
		handler = 0x3000
		retEIP  = 0x1234
		stackPg = 7 // the stack words of esp 0x8000
	)
	setIVT := func(b *mem.Bus) { b.WriteRaw(ivt, []byte{0x00, 0x30, 0, 0}) }
	backStack := func(b *mem.Bus) { b.WriteRaw(stackPg<<mem.PageShift, []byte{1}) }
	cases := []struct {
		name      string
		esp       uint32
		noProt    bool // run with CheckProt off, as a standalone reference does
		setup     func(b *mem.Bus, d *countingDev)
		fast      bool
		stop      StopKind
		deviceOps bool // the device must have seen traffic
	}{
		{name: "ram", esp: 0x8000, fast: true, setup: func(b *mem.Bus, _ *countingDev) { setIVT(b); backStack(b) }},
		{name: "unbacked-stack", esp: 0x8000, fast: true, setup: func(b *mem.Bus, _ *countingDev) { setIVT(b) }},
		{name: "ivt-mmio", esp: 0x8000, deviceOps: true, setup: func(b *mem.Bus, d *countingDev) {
			d.val = handler
			b.MapMMIO(0, mem.PageSize, d)
		}},
		{name: "ivt-unmapped", esp: 0x8000, stop: StopError, setup: func(b *mem.Bus, _ *countingDev) {
			setIVT(b)
			b.SetAttr(0, 0)
		}},
		{name: "handler-zero", esp: 0x8000, stop: StopError, setup: func(b *mem.Bus, _ *countingDev) {}},
		{name: "straddle", esp: 0x8004, setup: func(b *mem.Bus, _ *countingDev) { setIVT(b) }},
		{name: "stack-unmapped", esp: 0x8000, stop: StopError, setup: func(b *mem.Bus, _ *countingDev) {
			setIVT(b)
			b.SetAttr(stackPg, 0)
		}},
		{name: "stack-readonly", esp: 0x8000, stop: StopError, setup: func(b *mem.Bus, _ *countingDev) {
			setIVT(b)
			b.SetAttr(stackPg, mem.AttrPresent)
		}},
		{name: "stack-beyond-ram", esp: 0x20008, stop: StopError, setup: func(b *mem.Bus, _ *countingDev) { setIVT(b) }},
		{name: "stack-mmio", esp: 0x8000, deviceOps: true, setup: func(b *mem.Bus, d *countingDev) {
			setIVT(b)
			b.MapMMIO(stackPg<<mem.PageShift, mem.PageSize, d)
		}},
		{name: "coarse-protected", esp: 0x8000, stop: StopProt, setup: func(b *mem.Bus, _ *countingDev) {
			setIVT(b)
			b.Protect(stackPg)
		}},
		{name: "coarse-protected-noprot", esp: 0x8000, noProt: true, setup: func(b *mem.Bus, _ *countingDev) {
			setIVT(b)
			b.Protect(stackPg)
		}},
		{name: "fine-grain-clear", esp: 0x8000, setup: func(b *mem.Bus, _ *countingDev) {
			setIVT(b)
			b.SetFineGrain(stackPg, 1) // chunk 0 only: far from the stack words
		}},
		{name: "fine-grain-set", esp: 0x8000, stop: StopProt, setup: func(b *mem.Bus, _ *countingDev) {
			setIVT(b)
			b.SetFineGrain(stackPg, 1<<mem.ChunkOf(0x7FF8))
		}},
		{name: "force-prot-hit", esp: 0x8000, stop: StopProt, setup: func(b *mem.Bus, _ *countingDev) {
			setIVT(b)
			b.ForceProtHit = func(uint32, int, mem.WriteSource) bool { return true }
		}},
		{name: "force-prot-pass", esp: 0x8000, setup: func(b *mem.Bus, _ *countingDev) {
			setIVT(b)
			b.ForceProtHit = func(uint32, int, mem.WriteSource) bool { return false }
		}},
		{name: "esp-below-8", esp: 4, stop: StopError, setup: func(b *mem.Bus, _ *countingDev) { setIVT(b) }},
		{name: "esp-zero", esp: 0, stop: StopError, setup: func(b *mem.Bus, _ *countingDev) { setIVT(b) }},
	}

	type world struct {
		ip  *Interp
		dev *countingDev
	}
	build := func(esp uint32, noProt bool, setup func(*mem.Bus, *countingDev)) world {
		bus := mem.NewBus(0x20000)
		d := &countingDev{}
		setup(bus, d)
		ip := New(bus)
		ip.CPU = NewCPU(0x1000)
		ip.CPU.Flags |= guest.FlagCF | guest.FlagZF
		ip.CPU.Regs[guest.ESP] = esp
		ip.CheckProt = !noProt
		ip.Prof = NewProfile()
		ip.Prof.Heads[handler] = 3
		return world{ip, d}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fast, checked := build(c.esp, c.noProt, c.setup), build(c.esp, c.noProt, c.setup)
			if _, ok := fast.ip.fastDelivery(vec, c.esp); ok != c.fast {
				t.Fatalf("fast path taken = %v, want %v", ok, c.fast)
			}
			fast.ip.deliver(vec, retEIP)
			checked.ip.deliverChecked(vec, retEIP)

			f, k := fast.ip, checked.ip
			if f.res.Stop != c.stop {
				t.Fatalf("stop = %v (err %v), want %v", f.res.Stop, f.res.Err, c.stop)
			}
			if f.CPU != k.CPU {
				t.Errorf("CPU %+v, checked path %+v", f.CPU, k.CPU)
			}
			if got, want := resultString(&f.res), resultString(&k.res); got != want {
				t.Errorf("Result %s, checked path %s", got, want)
			}
			if !maps.Equal(f.Prof.Heads, k.Prof.Heads) {
				t.Errorf("profile heads %v, checked path %v", f.Prof.Heads, k.Prof.Heads)
			}
			fb, kb := f.Bus, k.Bus
			if !bytes.Equal(fb.ReadRaw(0, int(fb.RAMSize())), kb.ReadRaw(0, int(kb.RAMSize()))) {
				t.Error("RAM bytes differ from the checked path's")
			}
			for p := uint32(0); p < fb.NumPages(); p++ {
				if fb.Gen(p) != kb.Gen(p) {
					t.Errorf("page %d generation %d, checked path %d", p, fb.Gen(p), kb.Gen(p))
				}
			}
			if fb.Stats != kb.Stats {
				t.Errorf("bus stats %+v, checked path %+v", fb.Stats, kb.Stats)
			}
			if *fast.dev != *checked.dev {
				t.Errorf("device saw %+v, checked path %+v", *fast.dev, *checked.dev)
			}
			if c.deviceOps && fast.dev.reads+fast.dev.writes == 0 {
				t.Error("the device saw no traffic: the case does not reach it")
			}
			if c.stop == StopNone && (f.CPU.EIP != handler || f.CPU.Flags&guest.FlagIF != 0) {
				t.Errorf("delivered to eip %#x flags %#x, want handler %#x with IF clear", f.CPU.EIP, f.CPU.Flags, handler)
			}
		})
	}
}

// resultString renders a Result with its error text and protection hit
// by value, so two Results compare by what they say.
func resultString(r *Result) string {
	var prot mem.ProtHit
	if r.Prot != nil {
		prot = *r.Prot
	}
	return fmt.Sprintf("stop=%v prot=%v/%+v err=%v retired=%v irq=%v vec=%d cost=%d",
		r.Stop, r.Prot != nil, prot, r.Err, r.Retired, r.IRQ, r.Vector, r.Cost)
}
