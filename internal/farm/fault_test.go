package farm

import (
	"errors"
	"os"
	"strings"
	"sync"
	"testing"

	"cms/internal/cms"
	"cms/internal/incident"
	"cms/internal/workload"
)

// spinSource never halts on its own: ecx wraps from 0 through 2^32
// iterations, far more guest work than any test budget, so the only ways out
// are the instruction budget or the watchdog.
const spinSource = `
.org 0x1000
_start:
	mov ecx, 0
spin:
	dec ecx
	jne spin
	hlt
`

// newTestFarm is New with the circuit breaker's ring resized to window
// outcomes; window 0 disables the breaker, for tests whose failures are the
// point and must not be shed.
func newTestFarm(cfg Config, window int) *Farm {
	f := New(cfg)
	f.breaker.init(window)
	return f
}

// TestChaosPanicContained drives a deterministic injected panic through a
// serving farm and asserts the blast radius: the job fails with the panic
// captured, the implicated shared artifact is poisoned, incident bundles are
// written for both attempts (the retry demotes full → nocompile, where texec
// boundaries still exist, so the chaos schedule panics again), and the SAME
// runner goes on to serve a healthy job — the process never stops serving.
func TestChaosPanicContained(t *testing.T) {
	dir := t.TempDir()
	f := newTestFarm(Config{MaxVMs: 1, Engine: cms.DefaultConfig(), IncidentDir: dir}, 0)
	v, err := f.Submit(JobSpec{Source: testSource, InjectSeed: 7, ChaosPanics: true})
	if err != nil {
		t.Fatal(err)
	}
	h, err := f.Submit(JobSpec{Source: testSource})
	if err != nil {
		t.Fatal(err)
	}
	f.Drain()

	got, _ := f.Job(v.ID)
	if got.Status != StatusFailed {
		t.Fatalf("chaos job status = %s (%s)", got.Status, got.Error)
	}
	if !strings.Contains(got.Error, "panic:") || !strings.Contains(got.Error, "injected panic") {
		t.Errorf("error = %q, want captured injected panic", got.Error)
	}
	if len(got.Incidents) != 2 {
		t.Fatalf("incidents = %v, want one bundle per failed attempt", got.Incidents)
	}
	for i, p := range got.Incidents {
		b, err := incident.Load(p)
		if err != nil {
			t.Fatalf("bundle %d: %v", i, err)
		}
		if b.Kind != incident.KindPanic || b.Stack == "" || b.Job != v.ID || b.Attempt != i {
			t.Errorf("bundle %d = kind %s attempt %d job %s stack %d bytes", i, b.Kind, b.Attempt, b.Job, len(b.Stack))
		}
	}

	healthy, _ := f.Job(h.ID)
	if healthy.Status != StatusDone || healthy.Result.Regs[0] != 60000 {
		t.Errorf("runner did not survive the panic: healthy job %s (%s)", healthy.Status, healthy.Error)
	}

	st := f.Stats()
	if st.Panics < 2 || st.Retries != 1 || st.Failed != 1 || st.Done != 1 {
		t.Errorf("stats = panics %d retries %d failed %d done %d", st.Panics, st.Retries, st.Failed, st.Done)
	}
	if st.Incidents != 2 {
		t.Errorf("incidents counter = %d, want 2", st.Incidents)
	}
	if st.Store.Poisons == 0 {
		t.Error("panic did not quarantine the implicated shared artifact")
	}
}

// TestRetryDemotesToInterp is the rung-demoting retry's success path: on a
// nocompile engine template the retry lands on the interpreter-only rung,
// where no translations execute, so the chaos schedule has no texec boundary
// to panic at and the demoted attempt completes the job — with full retry
// provenance in the Result.
func TestRetryDemotesToInterp(t *testing.T) {
	eng := cms.DefaultConfig()
	eng.EnableCompiledBackend = false
	f := newTestFarm(Config{MaxVMs: 1, Engine: eng}, 0)
	v, err := f.Submit(JobSpec{Source: testSource, InjectSeed: 7, ChaosPanics: true})
	if err != nil {
		t.Fatal(err)
	}
	f.Drain()

	got, _ := f.Job(v.ID)
	if got.Status != StatusDone {
		t.Fatalf("status = %s (%s), want retry to succeed on the interp rung", got.Status, got.Error)
	}
	r := got.Result
	if r.Attempts != 2 || r.Rung != "interp" {
		t.Errorf("attempts = %d rung = %q, want 2 on interp", r.Attempts, r.Rung)
	}
	if !strings.Contains(r.RetryReason, "panic:") {
		t.Errorf("retry reason = %q, want the first attempt's panic", r.RetryReason)
	}
	if r.Regs[0] != 60000 || !r.Halted {
		t.Errorf("demoted rung produced wrong guest state: eax %d halted %v", r.Regs[0], r.Halted)
	}
	st := f.Stats()
	if st.RetrySuccesses != 1 || st.Done != 1 || st.Failed != 0 {
		t.Errorf("stats = retrySuccess %d done %d failed %d", st.RetrySuccesses, st.Done, st.Failed)
	}
}

// TestWatchdogDeadline expires a wall-clock deadline in the middle of
// translated execution: the engine must stop cooperatively at a committed
// boundary, the job must finish as StatusTimeout (terminal — no retry, the
// demoted rung is slower, not faster), and the incident bundle must replay
// bit-exactly from its retired-instruction count.
func TestWatchdogDeadline(t *testing.T) {
	dir := t.TempDir()
	f := newTestFarm(Config{MaxVMs: 2, Engine: cms.DefaultConfig(), IncidentDir: dir}, 0)
	v, err := f.Submit(JobSpec{Source: spinSource, Budget: 4_000_000_000, DeadlineMs: 15})
	if err != nil {
		t.Fatal(err)
	}
	f.Drain()

	got, _ := f.Job(v.ID)
	if got.Status != StatusTimeout {
		t.Fatalf("status = %s (%s), want timeout", got.Status, got.Error)
	}
	if !strings.Contains(got.Error, "deadline of 15ms exceeded") {
		t.Errorf("error = %q", got.Error)
	}
	if got.LatencyNs <= 0 {
		t.Error("timed-out job has no latency recorded")
	}
	if len(got.Incidents) != 1 {
		t.Fatalf("incidents = %v, want exactly one", got.Incidents)
	}
	st := f.Stats()
	if st.Timeouts != 1 || st.Retries != 0 || st.Failed != 0 || st.Done != 0 {
		t.Errorf("stats = timeouts %d retries %d failed %d done %d", st.Timeouts, st.Retries, st.Failed, st.Done)
	}

	b, err := incident.Load(got.Incidents[0])
	if err != nil {
		t.Fatal(err)
	}
	if b.Kind != incident.KindTimeout || b.Retired == 0 {
		t.Fatalf("bundle = kind %s retired %d", b.Kind, b.Retired)
	}
	// The replay contract: running solo to the recorded retired-instruction
	// count reaches the identical committed architectural state.
	if err := incident.Replay(b); err != nil {
		t.Fatalf("timeout incident did not replay: %v", err)
	}
}

// TestBreakerOpensShedsAndCloses walks the circuit breaker's full lifecycle:
// a failure storm fills the outcome window and opens it, Submit sheds load
// with ErrBreakerOpen while probe admissions slip through, and the first
// probe that succeeds closes the breaker and restores normal admission.
func TestBreakerOpensShedsAndCloses(t *testing.T) {
	f := newTestFarm(Config{MaxVMs: 1, QueueDepth: 16}, 4)
	defer f.Drain()
	for i := 0; i < 4; i++ {
		if _, err := f.Submit(JobSpec{Source: "not a program"}); err != nil {
			t.Fatal(err)
		}
	}
	f.Wait()
	if !f.Stats().BreakerOpen {
		t.Fatal("breaker did not open after a full window of failures")
	}

	shed, admitted := false, false
	for i := 0; i < 8 && !admitted; i++ {
		_, err := f.Submit(JobSpec{Source: testSource})
		switch {
		case errors.Is(err, ErrBreakerOpen):
			shed = true
		case err == nil:
			admitted = true
		default:
			t.Fatal(err)
		}
	}
	if !shed || !admitted {
		t.Fatalf("shed=%v admitted=%v, want load shedding with probe admissions", shed, admitted)
	}
	f.Wait()

	st := f.Stats()
	if st.BreakerOpen {
		t.Error("successful probe did not close the breaker")
	}
	if st.BreakerShed == 0 {
		t.Error("no shed submissions counted")
	}
	if _, err := f.Submit(JobSpec{Source: testSource}); err != nil {
		t.Errorf("closed breaker still rejecting: %v", err)
	}
	f.Wait()
}

// TestConcurrentDrainIdempotent races many Drain calls against each other
// and in-flight jobs: every call must return with all work finished, the
// queue must close exactly once, and admission must stay rejected after.
func TestConcurrentDrainIdempotent(t *testing.T) {
	f := New(Config{MaxVMs: 2, QueueDepth: 16})
	var ids []string
	for i := 0; i < 6; i++ {
		v, err := f.Submit(JobSpec{Source: testSource})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.Drain()
		}()
	}
	wg.Wait()
	if _, err := f.Submit(JobSpec{Source: testSource}); !errors.Is(err, ErrDraining) {
		t.Errorf("submit after concurrent drains = %v, want ErrDraining", err)
	}
	for _, id := range ids {
		if v, _ := f.Job(id); v.Status != StatusDone {
			t.Errorf("%s: %s (%s) after drain", id, v.Status, v.Error)
		}
	}
}

// TestFaultMetricsExposed drives one of every failure class through a farm
// and checks the Prometheus exposition carries the new gauges.
func TestFaultMetricsExposed(t *testing.T) {
	dir := t.TempDir()
	f := newTestFarm(Config{MaxVMs: 1, Engine: cms.DefaultConfig(), IncidentDir: dir}, 0)
	if _, err := f.Submit(JobSpec{Source: testSource, InjectSeed: 3, ChaosPanics: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Submit(JobSpec{Source: spinSource, Budget: 4_000_000_000, DeadlineMs: 10}); err != nil {
		t.Fatal(err)
	}
	f.Drain()
	var sb strings.Builder
	WriteMetrics(&sb, f)
	out := sb.String()
	for _, want := range []string{
		"cms_farm_jobs_timeout_total 1",
		"cms_farm_panics_total",
		"cms_farm_retries_total 1",
		"cms_farm_incidents_total 3",
		"cms_farm_breaker_open 0",
		"cms_farm_breaker_shed_total 0",
		"cms_farm_store_poisons_total",
		"cms_farm_store_poisoned_keys",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// TestChaosServing is the PR's capstone: a farm under sustained mixed load —
// healthy workloads, healthy raw-source jobs, deterministic injected panics,
// and watchdog timeouts, all interleaved across every VM slot — must keep
// every invariant at once. No job may hang or vanish, the process must keep
// serving through every failure, every failure must leave a replayable
// incident bundle, and the healthy jobs' results must stay bit-identical to
// solo runs of the same workloads. Run under -race by check.sh.
//
// The circuit breaker is disabled here on purpose: a third of the load is
// designed to fail, which would (correctly) open the breaker and shed the
// rest of the mix; its lifecycle has its own test above.
func TestChaosServing(t *testing.T) {
	const jobs = 240
	dir := t.TempDir()
	eng := cms.DefaultConfig()
	f := newTestFarm(Config{MaxVMs: 8, QueueDepth: jobs + 8, Engine: eng, IncidentDir: dir}, 0)

	ew, err := workload.ByName("eqntott")
	if err != nil {
		t.Fatal(err)
	}
	solo := soloRun(t, ew, eng)

	specFor := func(i int) JobSpec {
		switch i % 4 {
		case 0:
			return JobSpec{Workload: "eqntott"}
		case 1:
			return JobSpec{Source: testSource}
		case 2:
			return JobSpec{Source: testSource, InjectSeed: uint64(1000 + i), ChaosPanics: true}
		default:
			return JobSpec{Source: spinSource, Budget: 4_000_000_000, DeadlineMs: int64(8 + i%8)}
		}
	}

	ids := make([]string, jobs)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < jobs; i += 8 {
				v, err := f.Submit(specFor(i))
				if err != nil {
					t.Errorf("submit %d: %v", i, err)
					return
				}
				ids[i] = v.ID
			}
		}(g)
	}
	wg.Wait()
	f.Drain()

	var done, failed, timeouts int
	for i, id := range ids {
		if id == "" {
			continue // submit already failed the test
		}
		v, ok := f.Job(id)
		if !ok {
			t.Fatalf("job %d (%s) vanished", i, id)
		}
		switch v.Status {
		case StatusDone:
			done++
		case StatusFailed:
			failed++
		case StatusTimeout:
			timeouts++
		default:
			t.Fatalf("job %d (%s) hung in %s after Drain", i, id, v.Status)
		}
		switch i % 4 {
		case 0:
			if v.Status != StatusDone {
				t.Fatalf("healthy eqntott job %s: %s (%s)", id, v.Status, v.Error)
			}
			// Bit-identity with the solo run: same final architectural state
			// and the same full Metrics struct, chaos neighbours or not.
			diffResults(t, id+"/eqntott", solo, v.Result)
		case 1:
			if v.Status != StatusDone || v.Result.Regs[0] != 60000 {
				t.Fatalf("healthy source job %s: %s (%s)", id, v.Status, v.Error)
			}
		case 2:
			if v.Status != StatusFailed || !strings.Contains(v.Error, "panic:") {
				t.Fatalf("chaos job %s: %s (%s), want captured panic", id, v.Status, v.Error)
			}
			if len(v.Incidents) == 0 {
				t.Fatalf("chaos job %s failed without an incident bundle", id)
			}
		default:
			if v.Status != StatusTimeout || !strings.Contains(v.Error, "deadline") {
				t.Fatalf("deadline job %s: %s (%s), want timeout", id, v.Status, v.Error)
			}
			if len(v.Incidents) != 1 {
				t.Fatalf("timeout job %s: incidents = %v", id, v.Incidents)
			}
		}
		// Every failure is captured: each listed bundle exists on disk.
		for _, p := range v.Incidents {
			if _, err := os.Stat(p); err != nil {
				t.Fatalf("job %s incident missing: %v", id, err)
			}
		}
	}
	if done+failed+timeouts != jobs {
		t.Fatalf("accounted %d jobs, want %d", done+failed+timeouts, jobs)
	}

	st := f.Stats()
	if st.Done != uint64(done) || st.Failed != uint64(failed) || st.Timeouts != uint64(timeouts) {
		t.Errorf("stats disagree with job table: %+v vs %d/%d/%d", st, done, failed, timeouts)
	}
	if st.Panics == 0 || st.Retries == 0 || st.Incidents == 0 {
		t.Errorf("chaos left no trace: panics %d retries %d incidents %d", st.Panics, st.Retries, st.Incidents)
	}
	if st.Store.Poisons == 0 {
		t.Error("no shared artifact was quarantined under chaos load")
	}

	// Replayability spot-check: one bundle of each kind, re-run solo, must
	// reproduce the recorded outcome and architectural state hash exactly.
	replayed := map[string]bool{}
	for _, id := range ids {
		v, _ := f.Job(id)
		for _, p := range v.Incidents {
			b, err := incident.Load(p)
			if err != nil {
				t.Fatal(err)
			}
			if replayed[b.Kind] {
				continue
			}
			replayed[b.Kind] = true
			if err := incident.Replay(b); err != nil {
				t.Errorf("incident %s (%s) did not replay: %v", p, b.Kind, err)
			}
		}
		if len(replayed) >= 2 {
			break
		}
	}
	if !replayed[incident.KindPanic] || !replayed[incident.KindTimeout] {
		t.Errorf("replay spot-check covered %v, want both panic and timeout", replayed)
	}

	// The latency invariant: every terminal job recorded one.
	for _, id := range ids {
		if v, _ := f.Job(id); v.LatencyNs <= 0 {
			t.Errorf("job %s finished without latency", id)
		}
	}

	wd, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(wd)) != st.Incidents {
		t.Errorf("incident dir holds %d bundles, counter says %d", len(wd), st.Incidents)
	}
}
