// Package perf is the repository's benchmark: four long workloads measured
// end to end from outside the engine, and a per-layer ledger built from spans
// the benchmark's own driver records around each call into a layer's public
// API plus isolated replays of the workload's artifacts through each layer.
// Nothing inside the engine is instrumented. See README.md for why each
// workload and metric exists and how to compare two commits.
package perf

import (
	"cmp"
	"slices"
	"time"
)

// Metric directions, as BENCHMARK.json spells them.
const (
	Higher = "higher"
	Lower  = "lower"
)

// MetricDef names one metric. Bounds live only in BENCHMARK.json: the
// self-check reads them from there, so the file is the single record of how
// much a metric may worsen.
type MetricDef struct {
	Name   string
	Unit   string
	Better string
	// Exact marks simulated and count-type metrics: two runs of one build on
	// one seed must report the identical value.
	Exact bool
}

// EndToEnd lists what a user of the system sees, measured with tracing off.
// Every workload reports every one of them.
var EndToEnd = []MetricDef{
	{Name: "guest_mips", Unit: "Minsn/s", Better: Higher},
	{Name: "jobs_per_s", Unit: "1/s", Better: Higher},
	{Name: "job_latency_p50_ms", Unit: "ms", Better: Lower},
	{Name: "job_latency_p99_ms", Unit: "ms", Better: Lower},
	{Name: "sim_mpi", Unit: "mol/insn", Better: Lower, Exact: true},
	{Name: "peak_rss_mb", Unit: "MB", Better: Lower},
	{Name: "setup_s", Unit: "s", Better: Lower},
}

// PerLayer lists the ledger of the traced run, grouped by the module whose
// public API the number was measured at. A metric a workload never exercises
// (the farm's on a solo workload, say) reads 0 there.
var PerLayer = []MetricDef{
	{Name: "workload.build_ms_per_job", Unit: "ms", Better: Lower},
	{Name: "asm.assemble_ms_per_job", Unit: "ms", Better: Lower},
	{Name: "incident.image_hash_us_per_job", Unit: "us", Better: Lower},

	{Name: "dev.new_platform_ms", Unit: "ms", Better: Lower},
	{Name: "mem.new_bus_ms_per_mib", Unit: "ms/MiB", Better: Lower},
	{Name: "mem.fast_read_ns", Unit: "ns", Better: Lower},
	{Name: "mem.fast_write_ns", Unit: "ns", Better: Lower},
	{Name: "mem.checked_write_ns", Unit: "ns", Better: Lower},
	{Name: "mem.fine_grain_refills", Unit: "count", Better: Lower, Exact: true},

	{Name: "guest.decode_ns_per_insn", Unit: "ns", Better: Lower},

	{Name: "interp.ns_per_insn", Unit: "ns", Better: Lower},
	{Name: "interp.guest_share", Unit: "ratio", Better: Lower, Exact: true},
	{Name: "interp.icache_hit_ratio", Unit: "ratio", Better: Higher, Exact: true},

	{Name: "xlate.prepare_us_per_insn", Unit: "us", Better: Lower},
	{Name: "xlate.translate_us_per_insn", Unit: "us", Better: Lower},
	{Name: "xlate.key_us", Unit: "us", Better: Lower},
	{Name: "xlate.translations", Unit: "count", Better: Lower, Exact: true},
	{Name: "xlate.guest_insns_translated", Unit: "count", Better: Lower, Exact: true},
	{Name: "xlate.atoms_per_insn", Unit: "atom/insn", Better: Lower, Exact: true},
	{Name: "xlate.texec_mols_per_insn", Unit: "mol/insn", Better: Lower, Exact: true},

	{Name: "vliw.compile_us_per_atom", Unit: "us", Better: Lower},
	{Name: "vliw.fallback_ratio", Unit: "ratio", Better: Lower, Exact: true},
	{Name: "vliw.fused_ratio", Unit: "ratio", Better: Higher, Exact: true},
	{Name: "vliw.texec_ns_per_mol", Unit: "ns", Better: Lower},
	{Name: "risc.lower_us_per_atom", Unit: "us", Better: Lower},
	{Name: "risc.specialized_ratio", Unit: "ratio", Better: Higher, Exact: true},
	{Name: "risc.texec_ns_per_mol", Unit: "ns", Better: Lower},

	{Name: "cms.new_us", Unit: "us", Better: Lower},
	{Name: "cms.run_ms", Unit: "ms", Better: Lower},
	{Name: "cms.dispatch_to_texec", Unit: "count", Better: Lower, Exact: true},
	{Name: "cms.chain_ratio", Unit: "ratio", Better: Higher, Exact: true},
	{Name: "cms.lookup_transfers", Unit: "count", Better: Lower, Exact: true},
	{Name: "cms.indirect_hit_ratio", Unit: "ratio", Better: Higher, Exact: true},
	{Name: "cms.faults_per_minsn", Unit: "1/Minsn", Better: Lower, Exact: true},
	{Name: "cms.adaptations", Unit: "count", Better: Lower, Exact: true},
	{Name: "cms.prot_faults", Unit: "count", Better: Lower, Exact: true},

	{Name: "tcache.lookup_ns", Unit: "ns", Better: Lower},
	{Name: "tcache.install_us", Unit: "us", Better: Lower},
	{Name: "tcache.invalidate_page_us", Unit: "us", Better: Lower},
	{Name: "tcache.installs", Unit: "count", Better: Lower, Exact: true},
	{Name: "tcache.invalidations", Unit: "count", Better: Lower, Exact: true},
	{Name: "tcache.evictions", Unit: "count", Better: Lower, Exact: true},
	{Name: "tcache.group_hits", Unit: "count", Better: Higher, Exact: true},
	{Name: "tcache.shared_hit_us", Unit: "us", Better: Lower},
	{Name: "tcache.shared_miss_us", Unit: "us", Better: Lower},
	{Name: "tcache.shared_hit_ratio", Unit: "ratio", Better: Higher},
	{Name: "tcache.shared_waits", Unit: "count", Better: Lower},
	{Name: "tcache.shared_evictions", Unit: "count", Better: Lower},

	{Name: "snapshot.save_ms", Unit: "ms", Better: Lower},
	{Name: "snapshot.save_ms_per_mib", Unit: "ms/MiB", Better: Lower},
	{Name: "snapshot.bytes_kib", Unit: "KiB", Better: Lower, Exact: true},
	{Name: "snapshot.dirty_pages", Unit: "count", Better: Lower, Exact: true},
	{Name: "snapshot.restore_warm_ms", Unit: "ms", Better: Lower},
	{Name: "snapshot.restore_cold_ms", Unit: "ms", Better: Lower},

	{Name: "farm.submit_us", Unit: "us", Better: Lower},
	{Name: "farm.overhead_ms_per_job", Unit: "ms", Better: Lower},
	{Name: "farm.nonrun_ms_p50", Unit: "ms", Better: Lower},
	{Name: "farm.run_share", Unit: "ratio", Better: Higher},
	{Name: "farm.write_metrics_ms", Unit: "ms", Better: Lower},
	{Name: "farm.metrics_kib", Unit: "KiB", Better: Lower},
	{Name: "farm.jobs_view_ms", Unit: "ms", Better: Lower},
	{Name: "farm.retries", Unit: "count", Better: Lower, Exact: true},
	{Name: "farm.failures", Unit: "count", Better: Lower, Exact: true},
	{Name: "farm.timeouts", Unit: "count", Better: Lower, Exact: true},
	{Name: "farm.scaling_efficiency", Unit: "ratio", Better: Higher},

	{Name: "runtime.alloc_kib_per_job", Unit: "KiB", Better: Lower},
	{Name: "runtime.gc_cycles", Unit: "count", Better: Lower},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: Lower},
	{Name: "runtime.heap_live_mb_end", Unit: "MB", Better: Lower},

	{Name: "trace.overhead_pct", Unit: "%", Better: Lower},
}

// Sample is one reported metric: the median lap, with the extremes and the
// number of laps beside it. Single-valued metrics have N == 1.
type Sample struct {
	Value, Min, Max float64
	N               int
}

func single(v float64) Sample { return Sample{Value: v, Min: v, Max: v, N: 1} }

// medianOf summarises per-lap values.
func medianOf(vs []float64) Sample {
	if len(vs) == 0 {
		return Sample{}
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	mid := s[len(s)/2]
	if len(s)%2 == 0 {
		mid = (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return Sample{Value: mid, Min: s[0], Max: s[len(s)-1], N: len(s)}
}

// quantile is the q-quantile of v by the convention of
// farm.LatencyPercentiles: the sample at index floor(q*(n-1)). On a 128-job
// lap p99 is therefore the third-slowest job, on a 1200-job lap the 13th.
func quantile[T cmp.Ordered](v []T, q float64) T {
	if len(v) == 0 {
		var zero T
		return zero
	}
	s := slices.Clone(v)
	slices.Sort(s)
	return s[int(q*float64(len(s)-1))]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
