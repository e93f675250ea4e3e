package main

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cms/internal/cms"
	"cms/internal/farm"
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
	t.Cleanup(func() { ts.Close(); f.Drain() })
	return ts, f
}

func postJob(t *testing.T, ts *httptest.Server, body string) (*http.Response, farm.JobView) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
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

	resp, v := postJob(t, ts, `{"source":`+jsonString(smokeSource)+`}`)
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
	if resp, _ := postJob(t, ts, `{`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON: %d", resp.StatusCode)
	}
	if resp, _ := postJob(t, ts, `{}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty spec: %d", resp.StatusCode)
	}
	if resp, _ := postJob(t, ts, `{"workload":"nope"}`); resp.StatusCode != http.StatusBadRequest {
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
		resp, _ := postJob(t, ts, src)
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
		// A full window of failures opens the circuit breaker; the default
		// probe period (8) keeps the table's single request shed.
		ts, f := newTestServer(t, farm.Config{MaxVMs: 1, BreakerWindow: 2})
		for i := 0; i < 2; i++ {
			if _, err := f.Submit(farm.JobSpec{Source: "not a program"}); err != nil {
				t.Fatal(err)
			}
		}
		f.Wait()
		if !f.Stats().BreakerOpen {
			t.Fatal("breaker did not open")
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
