package farm

import (
	"fmt"
	"io"
	"sort"
)

// LatencyPercentiles computes p50/p99 submit-to-completion latency over a
// slice of job snapshots (finished jobs only). Zeros when nothing finished.
// It operates on JobView values precisely so callers snapshot first and
// compute outside any farm lock.
func LatencyPercentiles(jobs []JobView) (p50, p99 int64) {
	lat := make([]int64, 0, len(jobs))
	for _, j := range jobs {
		if j.LatencyNs > 0 {
			lat = append(lat, j.LatencyNs)
		}
	}
	if len(lat) == 0 {
		return 0, 0
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	pick := func(q float64) int64 {
		i := int(q * float64(len(lat)-1))
		return lat[i]
	}
	return pick(0.50), pick(0.99)
}

// WriteMetrics renders the farm's counters in Prometheus text exposition
// format (hand-rolled; the repo is stdlib-only). Gauges describe the current
// farm shape, counters accumulate over completed jobs, and the per-job
// series expose each VM's shared-store attribution — that is where the
// "second VM of an identical workload hits >90%" claim is visible.
//
// Everything below is formatted from point-in-time snapshots (Stats() folds
// atomics, Jobs() copies views): no farm or job lock is held while bytes
// are written, so a slow scrape can never stall admission or a runner.
func WriteMetrics(w io.Writer, f *Farm) {
	st := f.Stats()
	jobs := f.Jobs()
	p50, p99 := LatencyPercentiles(jobs)

	gauge := func(name, help string, v interface{}) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, v)
	}
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}

	gauge("cms_farm_vms", "Configured concurrent VM slots.", st.VMs)
	gauge("cms_farm_vms_active", "VMs currently executing a job.", st.Active)
	gauge("cms_farm_jobs_queued", "Jobs admitted but not yet running.", st.Queued)
	counter("cms_farm_jobs_done_total", "Jobs completed successfully.", st.Done)
	counter("cms_farm_jobs_failed_total", "Jobs that ended in an error.", st.Failed)
	counter("cms_farm_jobs_timeout_total", "Jobs preempted by the per-job watchdog deadline.", st.Timeouts)
	counter("cms_farm_jobs_checkpointed_total", "Jobs preempted into a snapshot by Checkpoint or CheckpointDrain.", st.Checkpoints)
	counter("cms_farm_store_rehydrate_hits_total", "Snapshot-restore translations served from the shared store.", st.Store.RehydrateHits)
	counter("cms_farm_store_rehydrate_misses_total", "Snapshot-restore translations deterministically retranslated.", st.Store.RehydrateMisses)
	counter("cms_farm_jobs_submitted_total", "Jobs admitted since start.", st.Submitted)
	counter("cms_farm_panics_total", "Engine attempts that panicked and were contained.", st.Panics)
	counter("cms_farm_retries_total", "Rung-demoting retries started.", st.Retries)
	counter("cms_farm_retry_successes_total", "Retries that completed the job on a demoted rung.", st.RetrySuccesses)
	counter("cms_farm_incidents_total", "Replayable incident bundles written.", st.Incidents)
	open := 0
	if st.BreakerOpen {
		open = 1
	}
	gauge("cms_farm_breaker_open", "1 while the admission circuit breaker is shedding load.", open)
	counter("cms_farm_breaker_shed_total", "Submissions shed while the breaker was open.", st.BreakerShed)
	counter("cms_farm_vm_builds_total", "Guest RAM allocations: a runner's first job, or a job whose RAM size differs from the runner's previous one.", st.VMBuilds)
	counter("cms_farm_vm_reuses_total", "Engine attempts served on a runner's recycled guest RAM.", st.VMReuses)
	counter("cms_farm_scrubbed_pages_total", "Guest RAM pages zeroed by the between-job scrubs.", st.ScrubbedPages)
	gauge("cms_farm_job_latency_p50_ns", "Median submit-to-completion latency over finished jobs.", p50)
	gauge("cms_farm_job_latency_p99_ns", "99th-percentile submit-to-completion latency over finished jobs.", p99)

	counter("cms_farm_store_hits_total", "Shared-store lookups served from an installed artifact.", st.Store.Hits)
	counter("cms_farm_store_waits_total", "Shared-store lookups that joined an in-flight translation.", st.Store.Waits)
	counter("cms_farm_store_misses_total", "Shared-store lookups that ran the translator.", st.Store.Misses)
	counter("cms_farm_store_evictions_total", "Artifacts evicted from the shared store, on probation or in the LRU.", st.Store.Evictions)
	counter("cms_farm_store_promotions_total", "Artifacts admitted from probation to the LRU by a second request.", st.Store.Promotions)
	counter("cms_farm_store_ghost_admits_total", "Misses admitted straight to the LRU because probation had dropped their key.", st.Store.GhostAdmits)
	counter("cms_farm_store_poisons_total", "Content keys quarantined after a host panic.", st.Store.Poisons)
	counter("cms_farm_store_poison_hits_total", "Translation requests bypassing the store on a poisoned key.", st.Store.PoisonHits)
	gauge("cms_farm_store_poisoned_keys", "Content keys currently quarantined.", st.Store.Poisoned)
	gauge("cms_farm_store_entries", "Artifacts resident in the shared store.", st.Store.Entries)
	gauge("cms_farm_store_atoms", "Code atoms resident in the shared store.", st.Store.Atoms)
	gauge("cms_farm_store_dedup_ratio", "Fraction of translation requests deduplicated (hits+waits over all).", st.Store.DedupRatio())

	counter("cms_farm_guest_insns_total", "Guest instructions retired across completed jobs.", st.GuestInsns)
	counter("cms_farm_mols_total", "Simulated molecules across completed jobs.", st.Mols)
	counter("cms_farm_translations_total", "Translations installed across completed jobs.", st.Translations)
	counter("cms_farm_rollbacks_total", "Faults absorbed by rollback and re-interpretation across completed jobs.", st.Rollbacks)
	counter("cms_farm_retranslations_total", "Adaptive retranslation events across completed jobs.", st.Retranslations)

	// Per-job series, labeled by job id and workload.
	fmt.Fprintf(w, "# HELP cms_farm_job_store_hits_total Shared-store hits attributed to one VM.\n# TYPE cms_farm_job_store_hits_total counter\n")
	for _, j := range jobs {
		if j.Result != nil {
			fmt.Fprintf(w, "cms_farm_job_store_hits_total{job=%q,workload=%q} %d\n",
				j.ID, j.Spec.Workload, j.Result.SharedHits)
		}
	}
	fmt.Fprintf(w, "# HELP cms_farm_job_store_misses_total Shared-store misses attributed to one VM.\n# TYPE cms_farm_job_store_misses_total counter\n")
	for _, j := range jobs {
		if j.Result != nil {
			fmt.Fprintf(w, "cms_farm_job_store_misses_total{job=%q,workload=%q} %d\n",
				j.ID, j.Spec.Workload, j.Result.SharedMisses)
		}
	}
	fmt.Fprintf(w, "# HELP cms_farm_job_rollbacks_total Faults absorbed by rollback in one VM.\n# TYPE cms_farm_job_rollbacks_total counter\n")
	for _, j := range jobs {
		if j.Result == nil {
			continue
		}
		var rb uint64
		for _, n := range j.Result.Metrics.Faults {
			rb += n
		}
		fmt.Fprintf(w, "cms_farm_job_rollbacks_total{job=%q,workload=%q} %d\n", j.ID, j.Spec.Workload, rb)
	}
	fmt.Fprintf(w, "# HELP cms_farm_job_retranslations_total Adaptive retranslations in one VM.\n# TYPE cms_farm_job_retranslations_total counter\n")
	for _, j := range jobs {
		if j.Result == nil {
			continue
		}
		var rt uint64
		for _, n := range j.Result.Metrics.Adaptations {
			rt += n
		}
		fmt.Fprintf(w, "cms_farm_job_retranslations_total{job=%q,workload=%q} %d\n", j.ID, j.Spec.Workload, rt)
	}
}
