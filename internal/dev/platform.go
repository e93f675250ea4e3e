package dev

import "cms/internal/mem"

// Platform bundles the bus and the standard device complement, wired the way
// every workload in this repository expects: serial console + text MMIO,
// instruction-driven timer, DMA disk, and BLT engine.
type Platform struct {
	Bus     *mem.Bus
	IRQ     *IRQController
	Console *Console
	Timer   *Timer
	Disk    *Disk
	Blt     *Blt
}

// NewPlatform builds a platform with ramSize bytes of RAM and the given disk
// image (may be nil).
func NewPlatform(ramSize uint32, diskImage []byte) *Platform {
	return NewPlatformOn(mem.NewBus(ramSize), diskImage)
}

// NewPlatformOn wires the standard device complement onto bus, which must be
// in its NewBus state: fresh, or returned there by Bus.Reset. This is the
// only place devices are attached, so a platform on a recycled bus is wired
// exactly as one on a new bus. The devices themselves are always new — they
// are a few hundred bytes, and building them per platform makes device
// reset complete by construction; only the bus carries a reset contract.
func NewPlatformOn(bus *mem.Bus, diskImage []byte) *Platform {
	irq := &IRQController{}
	p := &Platform{
		Bus:     bus,
		IRQ:     irq,
		Console: NewConsole(),
		Timer:   NewTimer(irq),
		Disk:    NewDisk(bus, irq, diskImage),
		Blt:     NewBlt(bus, irq),
	}
	bus.MapPort(ConsoleDataPort, ConsoleStatusPort, p.Console)
	bus.MapPort(TimerPeriodPort, TimerCountPort, p.Timer)
	bus.MapPort(DiskLBAPort, DiskStatusPort, p.Disk)
	bus.MapMMIO(ConsoleMMIOBase, ConsoleMMIOSize, p.Console)
	bus.MapMMIO(BltMMIOBase, BltMMIOSize, p.Blt)
	return p
}
