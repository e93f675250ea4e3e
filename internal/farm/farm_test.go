package farm

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"cms/internal/cms"
)

// testSource is a small hot loop, cheap enough for unit tests.
const testSource = `
.org 0x1000
_start:
	mov ecx, 20000
loop:
	add eax, 3
	dec ecx
	jne loop
	hlt
`

func TestSubmitValidation(t *testing.T) {
	f := New(Config{MaxVMs: 1})
	defer f.Drain()
	if _, err := f.Submit(JobSpec{}); err == nil {
		t.Error("empty spec must be rejected")
	}
	if _, err := f.Submit(JobSpec{Workload: "eqntott", Source: testSource}); err == nil {
		t.Error("both workload and source must be rejected")
	}
	if _, err := f.Submit(JobSpec{Workload: "no-such-benchmark"}); err == nil {
		t.Error("unknown workload must be rejected")
	}
}

func TestRunSourceJob(t *testing.T) {
	f := New(Config{MaxVMs: 2})
	v, err := f.Submit(JobSpec{Source: testSource})
	if err != nil {
		t.Fatal(err)
	}
	f.Drain()
	got, ok := f.Job(v.ID)
	if !ok {
		t.Fatal("job vanished")
	}
	if got.Status != StatusDone {
		t.Fatalf("status = %s (%s)", got.Status, got.Error)
	}
	if !got.Result.Halted {
		t.Error("guest did not halt")
	}
	if got.Result.Regs[0] != 60000 {
		t.Errorf("eax = %d, want 60000", got.Result.Regs[0])
	}
	if got.Result.Metrics.Translations == 0 {
		t.Error("hot loop never translated")
	}
}

func TestQueueOverflow(t *testing.T) {
	// One VM, depth 2: the first job may start immediately, so between 2 and
	// 3 submissions are admitted and the rest must fail fast with
	// ErrQueueFull — Submit never blocks.
	f := New(Config{MaxVMs: 1, QueueDepth: 2})
	defer f.Drain()
	admitted, full := 0, 0
	for i := 0; i < 8; i++ {
		_, err := f.Submit(JobSpec{Source: testSource})
		switch err {
		case nil:
			admitted++
		case ErrQueueFull:
			full++
		default:
			t.Fatal(err)
		}
	}
	if full == 0 {
		t.Error("no submission was rejected for backpressure")
	}
	if admitted < 2 {
		t.Errorf("only %d admitted with queue depth 2", admitted)
	}
}

func TestDrainRejectsAndFinishes(t *testing.T) {
	f := New(Config{MaxVMs: 2})
	var ids []string
	for i := 0; i < 4; i++ {
		v, err := f.Submit(JobSpec{Source: testSource})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	f.Drain()
	if _, err := f.Submit(JobSpec{Source: testSource}); err != ErrDraining {
		t.Errorf("submit after drain = %v, want ErrDraining", err)
	}
	for _, id := range ids {
		v, _ := f.Job(id)
		if v.Status != StatusDone {
			t.Errorf("%s: status = %s after drain (%s)", id, v.Status, v.Error)
		}
	}
	// Drain is idempotent.
	f.Drain()
}

func TestFailedJobReported(t *testing.T) {
	f := New(Config{MaxVMs: 1})
	v, err := f.Submit(JobSpec{Source: "bogus instruction soup"})
	if err != nil {
		t.Fatal(err)
	}
	f.Drain()
	got, _ := f.Job(v.ID)
	if got.Status != StatusFailed || got.Error == "" {
		t.Errorf("status = %s, error = %q; want failed with message", got.Status, got.Error)
	}
}

// TestSharedStoreDedupAcrossVMs runs the same program twice sequentially
// (one VM slot) and asserts the second VM's translations come almost
// entirely from the shared store — the ISSUE's >90% hit-rate criterion.
func TestSharedStoreDedupAcrossVMs(t *testing.T) {
	f := New(Config{MaxVMs: 1})
	a, err := f.Submit(JobSpec{Workload: "eqntott"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.Submit(JobSpec{Workload: "eqntott"})
	if err != nil {
		t.Fatal(err)
	}
	f.Drain()

	va, _ := f.Job(a.ID)
	vb, _ := f.Job(b.ID)
	if va.Status != StatusDone || vb.Status != StatusDone {
		t.Fatalf("jobs not done: %s/%s (%s %s)", va.Status, vb.Status, va.Error, vb.Error)
	}
	if va.Result.SharedHits != 0 {
		t.Errorf("first VM saw %d store hits in an empty store", va.Result.SharedHits)
	}
	total := vb.Result.SharedHits + vb.Result.SharedMisses
	if total == 0 {
		t.Fatal("second VM made no translation requests")
	}
	rate := float64(vb.Result.SharedHits) / float64(total)
	if rate <= 0.9 {
		t.Errorf("second VM hit rate = %.2f (%d/%d), want > 0.9",
			rate, vb.Result.SharedHits, total)
	}
	// Determinism: identical jobs, identical simulated outcomes.
	if va.Result.Metrics != vb.Result.Metrics {
		t.Error("identical jobs produced different Metrics")
	}
	if va.Result.Regs != vb.Result.Regs {
		t.Error("identical jobs produced different final registers")
	}
}

// TestConcurrentObserversUnderLoad is the lock-layout regression test, run
// under -race by check.sh: while a stream of jobs flows through every VM
// slot, observer goroutines hammer Stats, Jobs, Job, and WriteMetrics, and
// submitter goroutines race each other into the admission queue. The old
// single farm mutex made these serialize behind running jobs' bookkeeping
// (and Stats() raced runner updates); now none of them may block progress
// or trip the race detector.
func TestConcurrentObserversUnderLoad(t *testing.T) {
	f := New(Config{MaxVMs: 4, QueueDepth: 256})
	const jobs = 40
	var submitters, observers sync.WaitGroup
	ids := make(chan string, jobs)
	for s := 0; s < 4; s++ {
		submitters.Add(1)
		go func() {
			defer submitters.Done()
			for i := 0; i < jobs/4; i++ {
				v, err := f.Submit(JobSpec{Source: testSource})
				if err != nil {
					t.Error(err)
					return
				}
				ids <- v.ID
			}
		}()
	}
	stop := make(chan struct{})
	for o := 0; o < 3; o++ {
		observers.Add(1)
		go func() {
			defer observers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := f.Stats()
				if st.Queued < 0 || st.Active < 0 || st.Active > 4 {
					t.Errorf("implausible stats snapshot: %+v", st)
					return
				}
				for _, j := range f.Jobs() {
					if _, ok := f.Job(j.ID); !ok {
						t.Errorf("%s listed but not found", j.ID)
						return
					}
				}
				WriteMetrics(io.Discard, f)
				time.Sleep(200 * time.Microsecond) // keep the spin from starving runners on small hosts
			}
		}()
	}
	submitters.Wait()
	f.Drain()
	close(stop)
	observers.Wait()
	close(ids)

	st := f.Stats()
	if st.Done != jobs || st.Failed != 0 {
		t.Fatalf("done=%d failed=%d, want %d/0", st.Done, st.Failed, jobs)
	}
	if st.Submitted != jobs {
		t.Errorf("submitted=%d, want %d", st.Submitted, jobs)
	}
	seen := make(map[string]bool)
	for id := range ids {
		if seen[id] {
			t.Fatalf("duplicate job id %s under concurrent submission", id)
		}
		seen[id] = true
		v, ok := f.Job(id)
		if !ok || v.Status != StatusDone {
			t.Errorf("%s: %v %s (%s)", id, ok, v.Status, v.Error)
		}
		if v.LatencyNs <= 0 {
			t.Errorf("%s: no latency recorded on a finished job", id)
		}
	}
}

func TestWriteMetrics(t *testing.T) {
	f := New(Config{MaxVMs: 1})
	if _, err := f.Submit(JobSpec{Workload: "eqntott"}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Submit(JobSpec{Workload: "eqntott"}); err != nil {
		t.Fatal(err)
	}
	f.Drain()
	var sb strings.Builder
	WriteMetrics(&sb, f)
	out := sb.String()
	st := f.Stats().Store
	if st.Promotions == 0 {
		t.Error("the second job's hits promoted nothing")
	}
	for _, want := range []string{
		"cms_farm_vms 1",
		"cms_farm_jobs_done_total 2",
		"cms_farm_store_hits_total",
		"cms_farm_store_dedup_ratio",
		fmt.Sprintf("cms_farm_store_promotions_total %d", st.Promotions),
		fmt.Sprintf("cms_farm_store_ghost_admits_total %d", st.GhostAdmits),
		`cms_farm_job_store_hits_total{job="job-000002",workload="eqntott"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// TestEngineTemplateRespected checks the farm passes its engine config
// template through (here: chaining off) while still forcing the shared
// store in.
func TestEngineTemplateRespected(t *testing.T) {
	cfg := cms.DefaultConfig()
	cfg.EnableChaining = false
	f := New(Config{MaxVMs: 1, Engine: cfg})
	v, err := f.Submit(JobSpec{Source: testSource})
	if err != nil {
		t.Fatal(err)
	}
	f.Drain()
	got, _ := f.Job(v.ID)
	if got.Status != StatusDone {
		t.Fatalf("status = %s (%s)", got.Status, got.Error)
	}
	if got.Result.Metrics.Translations == 0 {
		t.Fatal("nothing translated: the template assertion below would be vacuous")
	}
	if got.Result.Metrics.ChainTransfers != 0 {
		t.Errorf("chaining-off engine template was not applied: %d chain transfers", got.Result.Metrics.ChainTransfers)
	}
	if got.Result.SharedMisses == 0 {
		t.Error("shared store was not wired into the templated engine")
	}
}
