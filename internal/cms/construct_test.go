package cms

import (
	"runtime"
	"testing"

	"cms/internal/dev"
)

// maxConstructBytes bounds what building a VM allocates: a platform with
// 1 MiB of guest RAM and an engine on it, before the guest runs. Guest RAM
// is backed page by page on first write, so none of it is paid here; what is
// left is the per-page arrays, the devices, the engine's tables and the
// interpreter's decoded-instruction cache (64 KiB of it).
const maxConstructBytes = 96 << 10

var sinkEngine *Engine

// TestConstructionAllocCeiling keeps construction paying only for what a
// guest touches. A cold program runs for well under a millisecond, so what
// building its VM allocates is a large share of its whole cost.
func TestConstructionAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	const builds = 200
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < builds; i++ {
		sinkEngine = New(dev.NewPlatform(1<<20, nil), 0x1000, DefaultConfig())
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / builds
	t.Logf("dev.NewPlatform(1 MiB) + cms.New: %.1f KiB per VM", float64(per)/1024)
	if per > maxConstructBytes {
		t.Fatalf("building a VM allocates %.1f KiB, ceiling %d KiB", float64(per)/1024, maxConstructBytes>>10)
	}
}
