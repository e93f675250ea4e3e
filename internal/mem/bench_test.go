package mem

import "testing"

var sinkWord uint32

// BenchmarkBusFastPaths times the word accesses translated code and the
// store buffer's commit make, per access: loads and stores on pages that
// have backing, and a load from a page nobody wrote. Go's -gcflags=-m must
// keep reporting LoadRAM32, StoreRAM32, FastRead and FastWrite as inlinable
// (scripts/check.sh checks it); these numbers are what that buys.
func BenchmarkBusFastPaths(b *testing.B) {
	const base, span = 0x80000, 0x1000
	bus := NewBus(1 << 20)
	bus.WriteRaw(base, make([]byte, span)) // back the page
	b.Run("LoadRAM32", func(b *testing.B) {
		var sum uint32
		for i := 0; i < b.N; i++ {
			v, _ := bus.LoadRAM32(base + uint32(i*4)%span)
			sum += v
		}
		sinkWord = sum
	})
	b.Run("StoreRAM32", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bus.StoreRAM32(base+uint32(i*4)%span, uint32(i))
		}
	})
	b.Run("Write32", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bus.Write32(base+uint32(i*4)%span, uint32(i))
		}
	})
	b.Run("Read32Unbacked", func(b *testing.B) {
		var sum uint32
		for i := 0; i < b.N; i++ {
			sum += bus.Read32(base + 2*span + uint32(i*4)%span)
		}
		sinkWord = sum
	})
}
