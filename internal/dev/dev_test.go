package dev

import (
	"bytes"
	"reflect"
	"testing"

	"cms/internal/mem"
)

func TestIRQController(t *testing.T) {
	var c IRQController
	if _, ok := c.Pending(); ok {
		t.Fatal("fresh controller must have nothing pending")
	}
	c.Raise(IRQDisk)
	c.Raise(IRQTimer)
	line, ok := c.Pending()
	if !ok || line != IRQTimer {
		t.Fatalf("Pending = %d, %v; want timer (priority)", line, ok)
	}
	c.Ack(IRQTimer)
	line, ok = c.Pending()
	if !ok || line != IRQDisk {
		t.Fatalf("after ack, Pending = %d, %v; want disk", line, ok)
	}
	c.Ack(IRQDisk)
	if c.HasPending() {
		t.Fatal("all acked, nothing should be pending")
	}
	c.Raise(-1)
	c.Raise(NumIRQLines) // out of range: ignored
	if c.HasPending() {
		t.Fatal("out-of-range raise must be ignored")
	}
}

func TestConsolePorts(t *testing.T) {
	c := NewConsole()
	if c.PortRead(ConsoleStatusPort) != 1 {
		t.Error("console must always report ready")
	}
	for _, ch := range []byte("ok\n") {
		c.PortWrite(ConsoleDataPort, uint32(ch))
	}
	if c.OutputString() != "ok\n" {
		t.Errorf("output = %q", c.OutputString())
	}
	if c.WriteCount != 3 {
		t.Errorf("WriteCount = %d", c.WriteCount)
	}
}

func TestConsoleMMIO(t *testing.T) {
	c := NewConsole()
	c.MMIOWrite(ConsoleMMIOBase+0x10, 4, 0x44434241) // "ABCD"
	if got := c.MMIORead(ConsoleMMIOBase+0x10, 4); got != 0x44434241 {
		t.Errorf("MMIORead = %#x", got)
	}
	if got := c.MMIORead(ConsoleMMIOBase+0x11, 1); got != 0x42 {
		t.Errorf("byte read = %#x", got)
	}
	txt := c.Text()
	if !bytes.Equal(txt[0x10:0x14], []byte("ABCD")) {
		t.Errorf("text buffer = %q", txt[0x10:0x14])
	}
	// Reads are idempotent: reading twice changes nothing.
	before := c.WriteCount
	c.MMIORead(ConsoleMMIOBase, 4)
	c.MMIORead(ConsoleMMIOBase, 4)
	if c.WriteCount != before {
		t.Error("reads must not count as writes")
	}
	// Out-of-range accesses are ignored.
	c.MMIOWrite(ConsoleMMIOBase+ConsoleMMIOSize-1, 4, 0)
	if c.MMIORead(ConsoleMMIOBase+ConsoleMMIOSize-1, 4) != 0 {
		t.Error("overhanging access must read 0")
	}
}

func TestTimer(t *testing.T) {
	var irq IRQController
	tm := NewTimer(&irq)
	tm.Advance(1000) // period 0: off
	if irq.HasPending() {
		t.Fatal("disabled timer must not fire")
	}
	tm.PortWrite(TimerPeriodPort, 100)
	tm.Advance(99)
	if irq.HasPending() {
		t.Fatal("99 < 100: must not fire")
	}
	tm.Advance(1)
	if line, ok := irq.Pending(); !ok || line != IRQTimer {
		t.Fatal("timer must fire at period")
	}
	irq.Ack(IRQTimer)
	tm.Advance(250) // 2.5 more periods: two more ticks
	if tm.Ticks != 3 {
		t.Errorf("Ticks = %d, want 3", tm.Ticks)
	}
	if tm.PortRead(TimerCountPort) != 3 {
		t.Errorf("count port = %d", tm.PortRead(TimerCountPort))
	}
	if tm.PortRead(TimerPeriodPort) != 100 {
		t.Errorf("period port = %d", tm.PortRead(TimerPeriodPort))
	}
}

func TestDiskDMARead(t *testing.T) {
	bus := mem.NewBus(1 << 16)
	var irq IRQController
	img := make([]byte, 4*SectorSize)
	for i := range img {
		img[i] = byte(i)
	}
	d := NewDisk(bus, &irq, img)
	if d.PortRead(DiskStatusPort) != 0 {
		t.Fatal("fresh disk must not be done")
	}
	d.PortWrite(DiskLBAPort, 1)
	d.PortWrite(DiskAddrPort, 0x2000)
	d.PortWrite(DiskCountPort, 2)
	d.PortWrite(DiskCmdPort, DiskCmdRead)
	if d.PortRead(DiskStatusPort) != 1 {
		t.Fatal("disk must report done")
	}
	if line, ok := irq.Pending(); !ok || line != IRQDisk {
		t.Fatal("disk must raise its IRQ")
	}
	got := bus.ReadRaw(0x2000, 2*SectorSize)
	if !bytes.Equal(got, img[SectorSize:3*SectorSize]) {
		t.Error("DMA data mismatch")
	}
	if d.Reads != 1 {
		t.Errorf("Reads = %d", d.Reads)
	}
}

func TestDiskDMAInvalidatesProtectedPage(t *testing.T) {
	bus := mem.NewBus(1 << 16)
	var irq IRQController
	img := make([]byte, 2*SectorSize)
	d := NewDisk(bus, &irq, img)
	bus.Protect(2)
	var hits []uint32
	bus.DMAInvalidate = func(p uint32) { hits = append(hits, p) }
	d.PortWrite(DiskLBAPort, 0)
	d.PortWrite(DiskAddrPort, 2*mem.PageSize)
	d.PortWrite(DiskCountPort, 1)
	d.PortWrite(DiskCmdPort, DiskCmdRead)
	if len(hits) != 1 || hits[0] != 2 {
		t.Errorf("DMA invalidations: %v", hits)
	}
}

func TestDiskOutOfRangeRead(t *testing.T) {
	bus := mem.NewBus(1 << 16)
	var irq IRQController
	d := NewDisk(bus, &irq, make([]byte, SectorSize))
	d.PortWrite(DiskLBAPort, 10) // beyond image
	d.PortWrite(DiskAddrPort, 0x1000)
	d.PortWrite(DiskCountPort, 1)
	d.PortWrite(DiskCmdPort, DiskCmdRead)
	if d.PortRead(DiskStatusPort) != 1 {
		t.Error("out-of-range read still completes (zero bytes)")
	}
}

func TestBltCopyFillXor(t *testing.T) {
	bus := mem.NewBus(1 << 16)
	var irq IRQController
	b := NewBlt(bus, &irq)
	bus.WriteRaw(0x1000, []byte{1, 2, 3, 4})

	prog := func(src, dst, count, op, fill uint32) {
		b.MMIOWrite(BltMMIOBase+BltRegSrc, 4, src)
		b.MMIOWrite(BltMMIOBase+BltRegDst, 4, dst)
		b.MMIOWrite(BltMMIOBase+BltRegCount, 4, count)
		b.MMIOWrite(BltMMIOBase+BltRegOp, 4, op)
		b.MMIOWrite(BltMMIOBase+BltRegFill, 4, fill)
		b.MMIOWrite(BltMMIOBase+BltRegGo, 4, 1)
	}

	prog(0x1000, 0x2000, 4, BltOpCopy, 0)
	if got := bus.ReadRaw(0x2000, 4); !bytes.Equal(got, []byte{1, 2, 3, 4}) {
		t.Errorf("copy result %v", got)
	}
	prog(0, 0x3000, 4, BltOpFill, 0xAA)
	if got := bus.ReadRaw(0x3000, 4); !bytes.Equal(got, []byte{0xAA, 0xAA, 0xAA, 0xAA}) {
		t.Errorf("fill result %v", got)
	}
	prog(0x1000, 0x2000, 4, BltOpXor, 0)
	if got := bus.ReadRaw(0x2000, 4); !bytes.Equal(got, []byte{0, 0, 0, 0}) {
		t.Errorf("xor result %v", got)
	}
	if b.Ops() != 3 {
		t.Errorf("Ops = %d", b.Ops())
	}
	if got := b.MMIORead(BltMMIOBase+BltRegStat, 4); got != 3 {
		t.Errorf("stat reg = %d", got)
	}
	if line, ok := irq.Pending(); !ok || line != IRQBlt {
		t.Error("BLT must raise its IRQ")
	}
}

func TestPlatformWiring(t *testing.T) {
	img := make([]byte, SectorSize)
	for i := range img {
		img[i] = 0x5A
	}
	p := NewPlatform(1<<20, img)
	// Console through the bus.
	p.Bus.PortWrite(ConsoleDataPort, 'X')
	if p.Console.OutputString() != "X" {
		t.Error("console not wired to port space")
	}
	if !p.Bus.IsMMIO(ConsoleMMIOBase) || !p.Bus.IsMMIO(BltMMIOBase) {
		t.Error("MMIO regions not mapped")
	}
	// Disk through the bus.
	p.Bus.PortWrite(DiskLBAPort, 0)
	p.Bus.PortWrite(DiskAddrPort, 0x4000)
	p.Bus.PortWrite(DiskCountPort, 1)
	p.Bus.PortWrite(DiskCmdPort, DiskCmdRead)
	if p.Bus.Read8(0x4000) != 0x5A {
		t.Error("disk not wired to bus")
	}
	// Text buffer through the bus.
	p.Bus.Write32(ConsoleMMIOBase+8, 0x31323334)
	if p.Console.Text()[8] != 0x34 {
		t.Error("text MMIO not wired")
	}
}

// The DMA address and BLT source/destination registers hold whatever the
// guest wrote. Transfers aimed beyond RAM must complete as defined no-ops
// (bytes beyond RAM dropped, read as zero) instead of panicking the host.
func TestDiskDMABeyondRAM(t *testing.T) {
	const ram = 1 << 16
	bus := mem.NewBus(ram)
	var irq IRQController
	img := bytes.Repeat([]byte{0x5A}, 2*SectorSize)
	d := NewDisk(bus, &irq, img)
	read := func(addr uint32) {
		d.PortWrite(DiskLBAPort, 0)
		d.PortWrite(DiskAddrPort, addr)
		d.PortWrite(DiskCountPort, 2)
		d.PortWrite(DiskCmdPort, DiskCmdRead)
		if d.PortRead(DiskStatusPort) != 1 {
			t.Fatalf("read to %#x did not complete", addr)
		}
	}
	read(2 * ram) // wholly beyond RAM: every byte dropped
	read(0xFFFFFFF0)
	read(ram - SectorSize) // straddles the end: the first sector lands
	if got := bus.ReadRaw(ram-SectorSize, SectorSize); !bytes.Equal(got, img[:SectorSize]) {
		t.Error("the in-RAM part of a straddling DMA was lost")
	}
	if d.Reads != 3 {
		t.Errorf("Reads = %d, want 3", d.Reads)
	}
}

func TestBltBeyondRAM(t *testing.T) {
	const ram = 1 << 16
	bus := mem.NewBus(ram)
	var irq IRQController
	b := NewBlt(bus, &irq)
	bus.WriteRaw(ram-2, []byte{7, 8})
	prog := func(src, dst, count, op uint32) {
		b.MMIOWrite(BltMMIOBase+BltRegSrc, 4, src)
		b.MMIOWrite(BltMMIOBase+BltRegDst, 4, dst)
		b.MMIOWrite(BltMMIOBase+BltRegCount, 4, count)
		b.MMIOWrite(BltMMIOBase+BltRegOp, 4, op)
		b.MMIOWrite(BltMMIOBase+BltRegGo, 4, 1)
	}
	prog(ram-2, 0x100, 4, BltOpCopy) // source runs off RAM: the tail reads as zero
	if got := bus.ReadRaw(0x100, 4); !bytes.Equal(got, []byte{7, 8, 0, 0}) {
		t.Errorf("copy from a straddling source = %v", got)
	}
	prog(4*ram, 0x200, 4, BltOpCopy) // source wholly beyond RAM
	prog(0x100, 4*ram, 4, BltOpCopy) // destination wholly beyond RAM
	prog(4*ram, 4*ram, 16, BltOpXor) // both
	prog(0x100, 0xFFFFFFFE, 8, BltOpCopy)
	if got := bus.ReadRaw(0x200, 4); !bytes.Equal(got, make([]byte, 4)) {
		t.Errorf("copy from beyond RAM = %v, want zeros", got)
	}
	if b.Ops() != 5 {
		t.Errorf("Ops = %d, want 5", b.Ops())
	}
}

// A platform wired onto a reset bus is the platform NewPlatform builds.
func TestNewPlatformOnRecycledBus(t *testing.T) {
	const ram = 1 << 20
	p := NewPlatform(ram, []byte{1, 2, 3})
	p.Bus.Write32(0x5000, 0xdeadbeef)
	p.Bus.PortWrite(ConsoleDataPort, 'A')
	p.Bus.Protect(5)
	p.Bus.Reset()
	q := NewPlatformOn(p.Bus, nil)
	if !reflect.DeepEqual(q.ExportState(), NewPlatform(ram, nil).ExportState()) {
		t.Error("platform on a recycled bus differs from a fresh platform")
	}
	q.Bus.PortWrite(ConsoleDataPort, 'B')
	if q.Console.OutputString() != "B" || p.Console.OutputString() != "A" {
		t.Error("recycled bus still routes to the previous platform's console")
	}
}
