package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"cms/internal/cms"
	"cms/internal/farm"
	"cms/internal/incident"
	"cms/internal/workload"
)

const smokeSource = `
.org 0x1000
_start:
	mov ecx, 20000
loop:
	add eax, 3
	dec ecx
	jne loop
	hlt
`

func newTestServer(t *testing.T, fcfg farm.Config) (*httptest.Server, *farm.Farm) {
	t.Helper()
	if fcfg.Engine.HotThreshold == 0 {
		fcfg.Engine = cms.DefaultConfig()
	}
	f := farm.New(fcfg)
	ts := httptest.NewServer((&server{farm: f}).routes())
	// Preempt rather than run out what a test left in flight: the
	// multi-second jobs that congest a queue are not the point of any test.
	t.Cleanup(func() { ts.Close(); f.CheckpointDrain() })
	return ts, f
}

func postJob(t *testing.T, base, body string) (*http.Response, farm.JobView) {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v farm.JobView
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
	}
	return resp, v
}

// TestServeSmoke is the end-to-end loop: submit a job over HTTP, poll until
// it completes, check the result and the metrics endpoint.
func TestServeSmoke(t *testing.T) {
	ts, _ := newTestServer(t, farm.Config{MaxVMs: 2})

	resp, v := postJob(t, ts.URL, `{"source":`+jsonString(smokeSource)+`}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	// The view is taken after the job is on the queue: an idle runner may
	// already have picked it up.
	if v.ID == "" || (v.Status != farm.StatusQueued && v.Status != farm.StatusRunning) {
		t.Fatalf("submit view = %+v", v)
	}

	deadline := time.Now().Add(10 * time.Second)
	var got farm.JobView
	for {
		r, err := http.Get(ts.URL + "/v1/jobs/" + v.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(r.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if got.Status == farm.StatusDone || got.Status == farm.StatusFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", got.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got.Status != farm.StatusDone {
		t.Fatalf("status %s: %s", got.Status, got.Error)
	}
	if !got.Result.Halted || got.Result.Regs[0] != 60000 {
		t.Errorf("result = halted %v eax %d, want halted 60000", got.Result.Halted, got.Result.Regs[0])
	}

	r, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{"cms_farm_jobs_done_total 1", "cms_farm_store_misses_total"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestBadRequests(t *testing.T) {
	ts, _ := newTestServer(t, farm.Config{MaxVMs: 1})
	if resp, _ := postJob(t, ts.URL, `{`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON: %d", resp.StatusCode)
	}
	if resp, _ := postJob(t, ts.URL, `{}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty spec: %d", resp.StatusCode)
	}
	if resp, _ := postJob(t, ts.URL, `{"workload":"nope"}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown workload: %d", resp.StatusCode)
	}
	r, err := http.Get(ts.URL + "/v1/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("missing job: %d", r.StatusCode)
	}
}

// TestQueueFullIs429 fills a tiny queue and checks the overflow submission
// is refused with 429 and a Retry-After hint.
func TestQueueFullIs429(t *testing.T) {
	ts, _ := newTestServer(t, farm.Config{MaxVMs: 1, QueueDepth: 1})
	// A job long enough (~15M guest insns) that the single VM slot is still
	// busy while the later submissions arrive.
	slow := strings.Replace(smokeSource, "20000", "5000000", 1)
	src := `{"source":` + jsonString(slow) + `}`
	saw429 := false
	for i := 0; i < 8; i++ {
		resp, _ := postJob(t, ts.URL, src)
		if resp.StatusCode == http.StatusTooManyRequests {
			if resp.Header.Get("Retry-After") == "" {
				t.Error("429 without Retry-After")
			}
			saw429 = true
			break
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("unexpected status %d", resp.StatusCode)
		}
	}
	if !saw429 {
		t.Error("never saw backpressure from a depth-1 queue")
	}
}

func TestListAndHealth(t *testing.T) {
	ts, f := newTestServer(t, farm.Config{MaxVMs: 1})
	if _, err := f.Submit(farm.JobSpec{Source: smokeSource}); err != nil {
		t.Fatal(err)
	}
	f.Wait()
	r, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var views []farm.JobView
	if err := json.NewDecoder(r.Body).Decode(&views); err != nil {
		t.Fatal(err)
	}
	if len(views) != 1 || views[0].Status != farm.StatusDone {
		t.Errorf("views = %+v", views)
	}
	h, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h.Body.Close()
	if h.StatusCode != http.StatusOK {
		t.Errorf("healthz: %d", h.StatusCode)
	}
}

func jsonString(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// TestErrorCodes is the API error contract, table-driven: every 4xx/5xx
// response carries a JSON body with a machine-readable "code" and a human
// "error" message, with the right status and Retry-After semantics — 429 for
// healthy backpressure, 503 for draining (terminal) and an open breaker
// (degraded, self-healing).
func TestErrorCodes(t *testing.T) {
	slow := strings.Replace(smokeSource, "20000", "5000000", 1)

	healthy := func(t *testing.T) (*httptest.Server, *farm.Farm) {
		return newTestServer(t, farm.Config{MaxVMs: 1})
	}
	drained := func(t *testing.T) (*httptest.Server, *farm.Farm) {
		ts, f := newTestServer(t, farm.Config{MaxVMs: 1})
		f.Drain()
		return ts, f
	}
	congested := func(t *testing.T) (*httptest.Server, *farm.Farm) {
		// One slot, queue depth 1: submit slow jobs until one is refused, so
		// the queue is provably full — and stays full, because the runner is
		// grinding on a multi-second job — when the table's POST arrives.
		ts, f := newTestServer(t, farm.Config{MaxVMs: 1, QueueDepth: 1})
		if _, err := f.Submit(farm.JobSpec{Source: slow}); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for f.Stats().Active != 1 {
			if time.Now().After(deadline) {
				t.Fatal("runner never picked up the slow job")
			}
			time.Sleep(time.Millisecond)
		}
		for i := 0; ; i++ {
			_, err := f.Submit(farm.JobSpec{Source: slow})
			if errors.Is(err, farm.ErrQueueFull) {
				break
			}
			if err != nil || i > 4 {
				t.Fatalf("could not congest the farm: submit %d = %v", i, err)
			}
		}
		return ts, f
	}
	broken := func(t *testing.T) (*httptest.Server, *farm.Farm) {
		// A full window of failures (32) opens the circuit breaker; the
		// probe period (8) keeps the table's single request shed.
		ts, f := newTestServer(t, farm.Config{MaxVMs: 1})
		for i := 0; !f.Stats().BreakerOpen; i++ {
			if i == 64 {
				t.Fatal("breaker did not open after 64 failed jobs")
			}
			if _, err := f.Submit(farm.JobSpec{Source: "not a program"}); err != nil {
				t.Fatal(err)
			}
			f.Wait()
		}
		return ts, f
	}
	// A syntactically fine spec whose source runs past maxJobBody: the cap
	// must cut the read off, not the JSON decoder's patience.
	oversized := `{"source":"` + strings.Repeat("nop\\n", maxJobBody/4) + `hlt"}`

	cases := []struct {
		name       string
		setup      func(*testing.T) (*httptest.Server, *farm.Farm)
		method     string
		path       string
		body       string
		wantStatus int
		wantCode   string
		wantRetry  bool
	}{
		{"bad json", healthy, "POST", "/v1/jobs", `{`, http.StatusBadRequest, "bad_json", false},
		{"empty spec", healthy, "POST", "/v1/jobs", `{}`, http.StatusBadRequest, "bad_spec", false},
		{"unknown workload", healthy, "POST", "/v1/jobs", `{"workload":"nope"}`, http.StatusBadRequest, "bad_spec", false},
		{"workload and source", healthy, "POST", "/v1/jobs", `{"workload":"eqntott","source":"hlt"}`, http.StatusBadRequest, "bad_spec", false},
		{"oversized job", healthy, "POST", "/v1/jobs", oversized, http.StatusRequestEntityTooLarge, "body_too_large", false},
		{"oversized migrate", healthy, "POST", "/v1/migrate", oversized, http.StatusRequestEntityTooLarge, "body_too_large", false},
		{"missing job", healthy, "GET", "/v1/jobs/job-999999", "", http.StatusNotFound, "not_found", false},
		{"queue full", congested, "POST", "/v1/jobs", `{"workload":"eqntott"}`, http.StatusTooManyRequests, "queue_full", true},
		{"draining submit", drained, "POST", "/v1/jobs", `{"workload":"eqntott"}`, http.StatusServiceUnavailable, "draining", true},
		{"draining readyz", drained, "GET", "/readyz", "", http.StatusServiceUnavailable, "draining", true},
		{"breaker submit", broken, "POST", "/v1/jobs", `{"workload":"eqntott"}`, http.StatusServiceUnavailable, "breaker_open", true},
		{"breaker readyz", broken, "GET", "/readyz", "", http.StatusServiceUnavailable, "breaker_open", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts, f := tc.setup(t)
			submitted := f.Stats().Submitted
			var resp *http.Response
			var err error
			switch tc.method {
			case "POST":
				resp, err = http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
			default:
				resp, err = http.Get(ts.URL + tc.path)
			}
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			var body struct {
				Code  string `json:"code"`
				Error string `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatalf("error body is not JSON: %v", err)
			}
			if body.Code != tc.wantCode {
				t.Errorf("code = %q, want %q", body.Code, tc.wantCode)
			}
			if body.Error == "" {
				t.Error("error body has no human message")
			}
			if got := resp.Header.Get("Retry-After") != ""; got != tc.wantRetry {
				t.Errorf("Retry-After present = %v, want %v", got, tc.wantRetry)
			}
			if got := f.Stats().Submitted; got != submitted {
				t.Errorf("refused request moved the submitted counter %d -> %d", submitted, got)
			}
		})
	}
}

// TestReadyzHealthy pins the happy-path readiness signal.
func TestReadyzHealthy(t *testing.T) {
	ts, _ := newTestServer(t, farm.Config{MaxVMs: 1})
	r, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Errorf("readyz on a healthy farm = %d", r.StatusCode)
	}
}

// longSource retires ~9M guest instructions: long enough that a migrate or
// drain request always lands while the job is still mid-run, and far past
// the first cancel poll, so the hot loop is translated by then.
const longSource = `
.org 0x1000
_start:
	mov edx, 150
outer:
	mov ecx, 20000
inner:
	add eax, 3
	dec ecx
	jne inner
	dec edx
	jne outer
	hlt
`

var longJob = farm.JobSpec{Source: longSource}

// testLog sends a daemon's log lines to the test log.
type testLog struct{ t *testing.T }

func (w testLog) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimSuffix(string(p), "\n"))
	return len(p), nil
}

// startDaemon runs the daemon cmsserve's main would build from args on a
// 127.0.0.1:0 listener and returns its base URL. stop is SIGTERM: it
// cancels serve's context and returns what serve returned once the drain is
// over. Cleanup stops a daemon the test left running.
func startDaemon(t *testing.T, args ...string) (d *daemon, base string, stop func() error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d, err = newDaemon(append([]string{"-addr", ln.Addr().String()}, args...), testLog{t})
	if err != nil {
		ln.Close()
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- d.serve(ctx, ln) }()
	stop = sync.OnceValue(func() error {
		cancel()
		return <-served
	})
	t.Cleanup(func() { _ = stop() })
	return d, "http://" + ln.Addr().String(), stop
}

// submitAndWait runs spec on f to completion and returns its result.
func submitAndWait(t *testing.T, f *farm.Farm, spec farm.JobSpec) *farm.Result {
	t.Helper()
	v, err := f.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	f.Wait()
	return doneResult(t, f, v.ID)
}

// doneResult is the result of job id on f, which must have finished done.
func doneResult(t *testing.T, f *farm.Farm, id string) *farm.Result {
	t.Helper()
	v, ok := f.Job(id)
	if !ok || v.Status != farm.StatusDone {
		t.Fatalf("%s: status %s (%s), want done", id, v.Status, v.Error)
	}
	return v.Result
}

// waitRunning blocks until f's runners have picked up n jobs.
func waitRunning(t *testing.T, f *farm.Farm, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for f.Stats().Active < n {
		if time.Now().After(deadline) {
			t.Fatalf("runners never picked up %d jobs", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// sameFinalState requires got to be bit-identical to want in everything but
// wall-clock cost, shared-store attribution and retry bookkeeping:
// registers, flags, console, the full Metrics struct, cache statistics.
func sameFinalState(t *testing.T, what string, want, got *farm.Result) {
	t.Helper()
	strip := func(r farm.Result) farm.Result {
		r.WallNs, r.SharedHits, r.SharedMisses = 0, 0, 0
		r.Attempts, r.Rung, r.RetryReason = 0, "", ""
		return r
	}
	if !reflect.DeepEqual(strip(*want), strip(*got)) {
		t.Errorf("%s: final state diverged from the uninterrupted run:\nwant %+v\ngot  %+v", what, *want, *got)
	}
}

// TestMigrate checkpoints a long job mid-run on daemon A through
// POST /v1/migrate and finishes it on daemon B: the final state must be
// bit-identical to an uninterrupted run, and B must have rebuilt the
// translations through its store's rehydrate path.
func TestMigrate(t *testing.T) {
	a, baseA, _ := startDaemon(t, "-vms", "2")
	b, baseB, _ := startDaemon(t, "-vms", "2")
	want := submitAndWait(t, a.farm, longJob)

	_, v := postJob(t, baseA, `{"source":`+jsonString(longSource)+`}`)
	resp, err := http.Post(baseA+"/v1/migrate", "application/json",
		strings.NewReader(`{"job":"`+v.ID+`","target":"`+baseB+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("migrate: %d: %s", resp.StatusCode, raw)
	}
	var mig struct{ Source, Target farm.JobView }
	if err := json.NewDecoder(resp.Body).Decode(&mig); err != nil {
		t.Fatal(err)
	}
	if mig.Source.Status != farm.StatusCheckpointed || mig.Source.SnapshotBytes == 0 {
		t.Fatalf("source view: status %s, %d snapshot bytes", mig.Source.Status, mig.Source.SnapshotBytes)
	}
	b.farm.Wait()
	sameFinalState(t, "migrated", want, doneResult(t, b.farm, mig.Target.ID))
	if tv, _ := b.farm.Job(mig.Target.ID); !tv.Restored {
		t.Error("migrated job not flagged restored")
	}
	if st := b.farm.Store().Stats(); st.RehydrateHits+st.RehydrateMisses == 0 {
		t.Error("target store rehydrated nothing: the job did not resume from its snapshot")
	}
}

// TestChaosIncidentReplays submits a job armed with a deterministic injected
// panic: the failure is contained (the job fails, the daemon stays ready),
// and the incident bundle it wrote replays solo through the calls
// cmsfuzz -replay makes.
func TestChaosIncidentReplays(t *testing.T) {
	d, base, _ := startDaemon(t, "-vms", "2", "-incidents", t.TempDir())
	_, v := postJob(t, base, `{"source":`+jsonString(smokeSource)+`,"inject_seed":5,"chaos_panics":true}`)
	d.farm.Wait()

	r, err := http.Get(base + "/v1/jobs/" + v.ID)
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(r.Body).Decode(&v)
	r.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != farm.StatusFailed || !strings.Contains(v.Error, "panic:") {
		t.Fatalf("chaos job: status %s (%s), want a contained panic", v.Status, v.Error)
	}
	if len(v.Incidents) == 0 {
		t.Fatal("chaos job failed without an incident bundle")
	}
	r, err = http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("/readyz = %d after a contained panic", r.StatusCode)
	}
	bundle, err := incident.Load(v.Incidents[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := incident.Replay(bundle); err != nil {
		t.Fatalf("replaying %s: %v", v.Incidents[0], err)
	}
}

// TestDrain is SIGTERM: with one job running and one queued, cancelling
// serve's context runs both to completion and serve returns nil.
func TestDrain(t *testing.T) {
	d, base, stop := startDaemon(t, "-vms", "1")
	var ids []string
	for i := 0; i < 2; i++ {
		_, v := postJob(t, base, `{"source":`+jsonString(longSource)+`}`)
		ids = append(ids, v.ID)
	}
	waitRunning(t, d.farm, 1)
	if err := stop(); err != nil {
		t.Fatalf("serve: %v", err)
	}
	for _, id := range ids {
		if res := doneResult(t, d.farm, id); res.Regs[0] != 9_000_000 {
			t.Errorf("%s: eax = %d, want 9000000", id, res.Regs[0])
		}
	}
}

// TestCheckpointDrain is SIGTERM under -checkpoint-drain: cancelling serve's
// context writes one <id>.cmssnap per in-flight job, and each, restored on
// another daemon's farm, finishes with the uninterrupted run's final state.
func TestCheckpointDrain(t *testing.T) {
	dir := t.TempDir()
	d, _, stop := startDaemon(t, "-vms", "1", "-checkpoint-drain", dir)
	want := submitAndWait(t, d.farm, longJob)
	var ids []string
	for i := 0; i < 2; i++ {
		v, err := d.farm.Submit(longJob)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	waitRunning(t, d.farm, 1)
	if err := stop(); err != nil {
		t.Fatalf("serve: %v", err)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(ids) {
		t.Fatalf("%d snapshots written for %d in-flight jobs", len(files), len(ids))
	}

	fresh, _, _ := startDaemon(t, "-vms", "2")
	var restored []string
	for _, id := range ids {
		blob, err := os.ReadFile(filepath.Join(dir, id+".cmssnap"))
		if err != nil {
			t.Fatal(err)
		}
		v, err := fresh.farm.SubmitRestore(blob, farm.JobSpec{})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		restored = append(restored, v.ID)
	}
	fresh.farm.Wait()
	for i, id := range restored {
		sameFinalState(t, ids[i]+" restored", want, doneResult(t, fresh.farm, id))
	}
}

// TestCheckpointDrainLostJobsFail drains two in-flight jobs into a directory
// that cannot be created: both are checkpointed and neither envelope
// reaches disk, so serve must fail and name both jobs.
func TestCheckpointDrainLostJobsFail(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	d, _, stop := startDaemon(t, "-vms", "2", "-checkpoint-drain", filepath.Join(file, "drain"))
	var ids []string
	for i := 0; i < 2; i++ {
		v, err := d.farm.Submit(longJob)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	waitRunning(t, d.farm, 2)
	err := stop()
	if err == nil {
		t.Fatal("serve returned nil after losing both checkpointed jobs")
	}
	for _, id := range ids {
		if v, _ := d.farm.Job(id); v.Status != farm.StatusCheckpointed {
			t.Fatalf("%s: status %s, want checkpointed", id, v.Status)
		}
		if !strings.Contains(err.Error(), id) {
			t.Errorf("serve error does not name lost job %s: %v", id, err)
		}
	}
}

// TestFlagErrors: a malformed flag, an unknown flag, the removed
// -storm-threshold and -h are refused before a farm is built.
func TestFlagErrors(t *testing.T) {
	for _, args := range [][]string{{"-vms", "many"}, {"-nope"}, {"-storm-threshold", "16"}} {
		if _, err := newDaemon(args, io.Discard); err == nil {
			t.Errorf("newDaemon(%q) accepted", args)
		}
	}
	if _, err := newDaemon([]string{"-h"}, io.Discard); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h: %v, want flag.ErrHelp", err)
	}
}

// TestDefaultDaemonPoisonsNothing runs the suite three times through the
// farm the production defaults build. Rollback is the routine way the engine
// reaches a consistent state — every delivered interrupt and every protected
// store rolls back — so a healthy run may fault often, and nothing in it may
// quarantine a shared translation: only a backend panic poisons a key.
func TestDefaultDaemonPoisonsNothing(t *testing.T) {
	d, err := newDaemon(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.farm.Drain() })
	// Round by round: the default queue holds 64 jobs, the suite is smaller.
	for round := 0; round < 3; round++ {
		for _, w := range workload.All() {
			if _, err := d.farm.Submit(farm.JobSpec{Workload: w.Name}); err != nil {
				t.Fatalf("round %d, %s: %v", round, w.Name, err)
			}
		}
		d.farm.Wait()
	}
	st := d.farm.Stats()
	if st.Failed != 0 || st.Store.Poisons != 0 || st.Store.PoisonHits != 0 {
		t.Errorf("failed=%d poisons=%d poison hits=%d, want all 0",
			st.Failed, st.Store.Poisons, st.Store.PoisonHits)
	}
}
