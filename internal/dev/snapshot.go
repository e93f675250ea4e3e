package dev

import (
	"fmt"

	"cms/internal/mem"
)

// PlatformState is the serializable state of a Platform: the bus (RAM,
// attributes, protection, generations) plus every device register that can
// change after reset. The disk's backing image is included so a restored
// platform is self-contained; device-to-bus wiring is topology and is
// re-created by NewPlatformOn.
type PlatformState struct {
	Bus        *mem.BusState `json:"bus"`
	IRQPending uint32        `json:"irq_pending"`

	TimerPeriod uint64 `json:"timer_period"`
	TimerAccum  uint64 `json:"timer_accum"`
	TimerTicks  uint64 `json:"timer_ticks"`

	ConsoleOut        []byte `json:"console_out"`
	ConsoleText       []byte `json:"console_text"`
	ConsoleWriteCount uint64 `json:"console_write_count"`

	DiskImage []byte `json:"disk_image"`
	DiskLBA   uint32 `json:"disk_lba"`
	DiskAddr  uint32 `json:"disk_addr"`
	DiskCount uint32 `json:"disk_count"`
	DiskDone  bool   `json:"disk_done"`
	DiskReads uint64 `json:"disk_reads"`

	BltSrc   uint32 `json:"blt_src"`
	BltDst   uint32 `json:"blt_dst"`
	BltCount uint32 `json:"blt_count"`
	BltOp    uint32 `json:"blt_op"`
	BltFill  uint32 `json:"blt_fill"`
	BltOps   uint64 `json:"blt_ops"`
}

// ExportState captures the platform and all device state.
func (p *Platform) ExportState() *PlatformState {
	return &PlatformState{
		Bus:        p.Bus.ExportState(),
		IRQPending: p.IRQ.pending,

		TimerPeriod: p.Timer.period,
		TimerAccum:  p.Timer.accum,
		TimerTicks:  p.Timer.Ticks,

		ConsoleOut:        append([]byte(nil), p.Console.out...),
		ConsoleText:       p.Console.Text(),
		ConsoleWriteCount: p.Console.WriteCount,

		DiskImage: append([]byte(nil), p.Disk.image...),
		DiskLBA:   p.Disk.lba,
		DiskAddr:  p.Disk.addr,
		DiskCount: p.Disk.count,
		DiskDone:  p.Disk.done,
		DiskReads: p.Disk.Reads,

		BltSrc:   p.Blt.src,
		BltDst:   p.Blt.dst,
		BltCount: p.Blt.count,
		BltOp:    p.Blt.op,
		BltFill:  p.Blt.fill,
		BltOps:   p.Blt.ops,
	}
}

// RAMSize validates the state's bus section and returns the RAM size in
// bytes of the bus RestorePlatform needs for it.
func (s *PlatformState) RAMSize() (uint32, error) {
	if s == nil || s.Bus == nil {
		return 0, fmt.Errorf("dev: platform state missing bus")
	}
	return s.Bus.RAMSize()
}

// RestorePlatform rebuilds a platform from an exported state on bus, which
// must be in its NewBus state and of the state's RAMSize. The platform is
// wired exactly as NewPlatformOn wires it, then every device register and
// the bus contents are overwritten with the captured values.
func RestorePlatform(bus *mem.Bus, s *PlatformState) (*Platform, error) {
	if s == nil || s.Bus == nil {
		return nil, fmt.Errorf("dev: platform state missing bus")
	}
	p := NewPlatformOn(bus, append([]byte(nil), s.DiskImage...))
	if err := p.Bus.RestoreState(s.Bus); err != nil {
		return nil, err
	}
	p.IRQ.pending = s.IRQPending

	p.Timer.period = s.TimerPeriod
	p.Timer.accum = s.TimerAccum
	p.Timer.Ticks = s.TimerTicks

	p.Console.out = append([]byte(nil), s.ConsoleOut...)
	if len(s.ConsoleText) > len(p.Console.text) {
		return nil, fmt.Errorf("dev: console text buffer %d bytes, want <= %d",
			len(s.ConsoleText), len(p.Console.text))
	}
	copy(p.Console.text[:], s.ConsoleText)
	p.Console.WriteCount = s.ConsoleWriteCount

	p.Disk.lba = s.DiskLBA
	p.Disk.addr = s.DiskAddr
	p.Disk.count = s.DiskCount
	p.Disk.done = s.DiskDone
	p.Disk.Reads = s.DiskReads

	p.Blt.src = s.BltSrc
	p.Blt.dst = s.BltDst
	p.Blt.count = s.BltCount
	p.Blt.op = s.BltOp
	p.Blt.fill = s.BltFill
	p.Blt.ops = s.BltOps
	return p, nil
}
