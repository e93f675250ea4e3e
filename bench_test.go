// Benchmarks that regenerate the paper's evaluation under `go test -bench`.
// Each table and figure has a benchmark; the interesting output is the
// custom metrics (degradation %, fault ratios, slowdowns, frame rates), not
// ns/op. Run with:
//
//	go test -bench=. -benchmem
//
// cmd/cmsbench renders the same experiments as the paper's tables.
package cms_test

import (
	"testing"

	"cms"
	"cms/internal/bench"
	engine "cms/internal/cms"
	"cms/internal/workload"
)

// runPair runs a workload under base and variant configs once per benchmark
// iteration and reports the molecule degradation.
func runPair(b *testing.B, w workload.Workload, variant func(*engine.Config)) {
	b.Helper()
	var degr float64
	for i := 0; i < b.N; i++ {
		base := bench.MustRun(w, engine.DefaultConfig())
		cfg := engine.DefaultConfig()
		variant(&cfg)
		v := bench.MustRun(w, cfg)
		degr = 100 * (float64(v.Mols()) - float64(base.Mols())) / float64(base.Mols())
	}
	b.ReportMetric(degr, "degr%")
}

// BenchmarkFigure2 regenerates "Degradation Caused by Suppressing Memory
// Reordering" per benchmark.
func BenchmarkFigure2(b *testing.B) {
	for _, w := range workload.All() {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			runPair(b, w, func(c *engine.Config) { c.BasePolicy.NoReorderMem = true })
		})
	}
}

// BenchmarkFigure3 regenerates "Degradation Caused By No Alias Hardware".
func BenchmarkFigure3(b *testing.B) {
	for _, w := range workload.All() {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			runPair(b, w, func(c *engine.Config) { c.BasePolicy.NoAliasHW = true })
		})
	}
}

// BenchmarkTable1 regenerates "Slowdown Without Fine-Grain Protection":
// fault ratio and molecules-per-instruction slowdown per benchmark.
func BenchmarkTable1(b *testing.B) {
	for _, name := range bench.Table1Workloads {
		name := name
		b.Run(name, func(b *testing.B) {
			w, err := workload.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			var ratio, slowdown float64
			for i := 0; i < b.N; i++ {
				fg := bench.MustRun(w, engine.DefaultConfig())
				cfg := engine.DefaultConfig()
				cfg.EnableFineGrain = false
				nofg := bench.MustRun(w, cfg)
				ratio = float64(nofg.Metrics.ProtFaults) / float64(fg.Metrics.ProtFaults)
				slowdown = nofg.Metrics.MPI() / fg.Metrics.MPI()
			}
			b.ReportMetric(ratio, "fault-ratio")
			b.ReportMetric(slowdown, "slowdown")
		})
	}
}

// BenchmarkSelfCheck regenerates the §3.6.3 forced-self-checking costs
// (code-size and molecule growth) on a representative subset (the full
// suite version is `cmsbench -exp selfcheck`).
func BenchmarkSelfCheck(b *testing.B) {
	for _, name := range []string{"eqntott", "gcc", "win98_boot", "quake_demo2"} {
		name := name
		b.Run(name, func(b *testing.B) {
			w, err := workload.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			var codeGrowth, molGrowth float64
			for i := 0; i < b.N; i++ {
				base := bench.MustRun(w, engine.DefaultConfig())
				cfg := engine.DefaultConfig()
				cfg.BasePolicy.SelfCheck = true
				chk := bench.MustRun(w, cfg)
				bs := float64(base.Metrics.CodeAtoms) / float64(base.Metrics.GuestInsnsTranslated)
				cs := float64(chk.Metrics.CodeAtoms) / float64(chk.Metrics.GuestInsnsTranslated)
				codeGrowth = 100 * (cs - bs) / bs
				molGrowth = 100 * (float64(chk.Mols()) - float64(base.Mols())) / float64(base.Mols())
			}
			b.ReportMetric(codeGrowth, "code+%")
			b.ReportMetric(molGrowth, "mols+%")
		})
	}
}

// BenchmarkSelfReval regenerates the §3.6.2 Quake frame-rate experiment.
func BenchmarkSelfReval(b *testing.B) {
	var improvement float64
	for i := 0; i < b.N; i++ {
		r, err := bench.SelfReval()
		if err != nil {
			b.Fatal(err)
		}
		improvement = r.Improvement
	}
	b.ReportMetric(improvement, "fps+%")
}

// BenchmarkChaining measures what §2's exit chaining saves on a hot
// workload.
func BenchmarkChaining(b *testing.B) {
	var save float64
	for i := 0; i < b.N; i++ {
		r, err := bench.Chain("eqntott")
		if err != nil {
			b.Fatal(err)
		}
		save = 100 * (float64(r.MolsUnchained) - float64(r.MolsChained)) / float64(r.MolsChained)
	}
	b.ReportMetric(save, "unchained+%")
}

// BenchmarkFlow runs the Figure 1 dispatch loop on a boot and reports the
// interpret/translate split.
func BenchmarkFlow(b *testing.B) {
	var texecShare float64
	for i := 0; i < b.N; i++ {
		r, err := bench.Flow("win98_boot")
		if err != nil {
			b.Fatal(err)
		}
		texecShare = 100 * float64(r.Metrics.GuestTexec) / float64(r.Metrics.GuestTotal())
	}
	b.ReportMetric(texecShare, "texec%")
}

// BenchmarkEngineThroughput measures raw simulation speed (guest
// instructions per second of host time) — a sanity benchmark for the
// simulator itself rather than a paper figure.
func BenchmarkEngineThroughput(b *testing.B) {
	prog, err := cms.Assemble(`
.org 0x1000
	mov ecx, 100000
loop:
	add eax, ecx
	mov [0x8000], eax
	mov ebx, [0x8000]
	dec ecx
	jne loop
	hlt
`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var guestInsns uint64
	for i := 0; i < b.N; i++ {
		sys := cms.NewSystem(prog, cms.SystemConfig{})
		if err := sys.Run(10_000_000); err != nil {
			b.Fatal(err)
		}
		guestInsns = sys.Metrics.GuestTotal()
	}
	b.ReportMetric(float64(guestInsns)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mguest/s")
}
