package bench

import (
	"testing"

	"cms/internal/cms"
	"cms/internal/workload"
)

// PerfWorkloads are the hot kernels BenchmarkEngineRun times — the
// translation-dominated benchmarks where simulator speed matters most.
var PerfWorkloads = []string{
	"eqntott", "compress", "alvinn", "tomcatv", "li", "gcc",
	"win98_boot", "quake_demo2",
}

// BenchmarkEngineRun times one full engine run of each hot workload kernel
// under the default configuration (compiled backend on). It is the profiling
// entry point for the engine's hot paths:
//
//	go test -run '^$' -bench EngineRun -cpuprofile cpu.out ./internal/bench/
//
// Numbers of record come from the repo's benchmark (perf/cmd/cmsperf).
func BenchmarkEngineRun(b *testing.B) {
	for _, name := range PerfWorkloads {
		w, err := workload.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Run(w, cms.DefaultConfig()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineRunInterp is the same measurement with the compiled
// backend off, for quick A/B profiling of the two hot paths.
func BenchmarkEngineRunInterp(b *testing.B) {
	cfg := cms.DefaultConfig()
	cfg.EnableCompiledBackend = false
	for _, name := range PerfWorkloads {
		w, err := workload.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Run(w, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
