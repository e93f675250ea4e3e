package vliw_test

import (
	"runtime"
	"sync"
	"testing"

	"cms/internal/cms"
	"cms/internal/dev"
	"cms/internal/fuzzer"
	"cms/internal/vliw"
	"cms/internal/workload"
)

// The corpus is scheduled code from real engines, as internal/xlate's is:
// every image of the workload suite and generated programs of both shapes
// cmsperf draws from (every gate on; long and gate-free) run to completion,
// and the Code of every translation still installed is collected.
var (
	corpusOnce sync.Once
	theCorpus  []*vliw.Code
)

const corpusFuzzSeeds = 48 // per generator shape

func corpus(tb testing.TB) []*vliw.Code {
	corpusOnce.Do(func() {
		harvest := func(cfg cms.Config, ram uint32, disk []byte, org uint32, image []byte, entry uint32, budget uint64) {
			plat := dev.NewPlatform(ram, disk)
			plat.Bus.WriteRaw(org, image)
			e := cms.New(plat, entry, cfg)
			if err := e.Run(budget); err != nil {
				tb.Fatalf("harvest run: %v", err)
			}
			for _, ent := range e.Cache.Overlapping(0, int(ram)) {
				theCorpus = append(theCorpus, ent.T.Code)
			}
		}
		for _, w := range workload.All() {
			img := w.Build()
			harvest(cms.DefaultConfig(), img.RAM, img.Disk, img.Org, img.Data, img.Entry, img.Budget)
		}
		for _, gc := range []fuzzer.GenConfig{{}, {Frags: 16, NoSMC: true, NoIRQ: true, NoMMIO: true, NoFault: true}} {
			for seed := uint64(1); seed <= corpusFuzzSeeds; seed++ {
				p := fuzzer.MustBuild(seed, gc)
				harvest(fuzzer.OracleConfig(), p.RAM, nil, p.Org, p.Image, p.Entry, p.Budget)
			}
		}
	})
	return theCorpus
}

func corpusAtoms(codes []*vliw.Code) (atoms int) {
	for _, c := range codes {
		atoms += c.NumAtoms()
	}
	return atoms
}

var sinkCompiled *vliw.CompiledCode

// BenchmarkCompile is the executable-form build of the layer ledger
// (vliw.compile_us_per_atom), with the garbage it leaves.
func BenchmarkCompile(b *testing.B) {
	codes := corpus(b)
	atoms := corpusAtoms(codes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range codes {
			sinkCompiled = vliw.Compile(c)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(atoms), "ns/atom")
}

// Ceilings on what Compile allocates per atom of scheduled code, set at the
// closure-per-atom, wrapper-per-molecule, fuser-per-entry design this one
// replaced (3.19 objects, 83.2 bytes measured there). Compile runs once per
// translation, so on workloads that translate more than they execute this is
// peak memory and collector work: a step array that costs more than the
// closures it replaced — one slice per run entry did — fails here.
const (
	maxObjectsPerAtom = 3.19
	maxBytesPerAtom   = 83.2
)

func TestCompileAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	codes := corpus(t)
	atoms := float64(corpusAtoms(codes))
	compileAll := func() {
		for _, c := range codes {
			sinkCompiled = vliw.Compile(c)
		}
	}
	objects := testing.AllocsPerRun(3, compileAll) / atoms

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	compileAll()
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / atoms

	t.Logf("%d translations, %.0f atoms: %.3f objects and %.1f bytes per atom", len(codes), atoms, objects, bytes)
	if objects > maxObjectsPerAtom || bytes > maxBytesPerAtom {
		t.Fatalf("Compile allocates %.3f objects and %.1f bytes per atom, ceilings %.2f and %.0f",
			objects, bytes, float64(maxObjectsPerAtom), float64(maxBytesPerAtom))
	}
}
