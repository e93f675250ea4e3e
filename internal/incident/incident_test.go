package incident_test

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"cms/internal/cms"
	"cms/internal/farm"
	"cms/internal/incident"
)

const chaosSource = `
.org 0x1000
_start:
	mov ecx, 20000
loop:
	add eax, 3
	dec ecx
	jne loop
	hlt
`

// captureBundle runs one chaos job through a single-VM farm and returns its
// first incident bundle — the same production path cmsserve exercises.
func captureBundle(t *testing.T) (string, *incident.Bundle) {
	t.Helper()
	dir := t.TempDir()
	f := farm.New(farm.Config{
		MaxVMs:        1,
		Engine:        cms.DefaultConfig(),
		IncidentDir:   dir,
		DisableRetry:  true,
		BreakerWindow: -1,
	})
	v, err := f.Submit(farm.JobSpec{Source: chaosSource, InjectSeed: 11, ChaosPanics: true})
	if err != nil {
		t.Fatal(err)
	}
	f.Drain()
	got, _ := f.Job(v.ID)
	if got.Status != farm.StatusFailed || len(got.Incidents) != 1 {
		t.Fatalf("chaos job = %s with incidents %v, want one failed attempt", got.Status, got.Incidents)
	}
	b, err := incident.Load(got.Incidents[0])
	if err != nil {
		t.Fatal(err)
	}
	return got.Incidents[0], b
}

// TestBundleRoundTripAndReplay is the flight recorder's contract: a bundle
// captured under serving load carries everything needed to re-run the
// failure solo, and Replay verifies the reproduction bit-exactly — same
// panic at the same boundary, same architectural state hash.
func TestBundleRoundTripAndReplay(t *testing.T) {
	path, b := captureBundle(t)
	if !incident.IsBundle(path) {
		t.Error("IsBundle rejected a JSON bundle")
	}
	if b.Kind != incident.KindPanic || b.Stack == "" || b.ArchSHA == "" || b.ImageSHA == "" {
		t.Fatalf("bundle incomplete: kind %s stack %d arch %q image %q", b.Kind, len(b.Stack), b.ArchSHA, b.ImageSHA)
	}
	if err := incident.Replay(b); err != nil {
		t.Fatalf("replay: %v", err)
	}
}

// TestReplayDetectsTampering flips each verified field of a valid bundle and
// requires Replay to refuse: a bundle that cannot fail verification would be
// worthless as a reproduction certificate.
func TestReplayDetectsTampering(t *testing.T) {
	path, _ := captureBundle(t)
	tamper := func(mut func(*incident.Bundle)) error {
		b, err := incident.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		mut(b)
		return incident.Replay(b)
	}
	if err := tamper(func(b *incident.Bundle) { b.ArchSHA = "0000" }); err == nil {
		t.Error("tampered ArchSHA replayed")
	}
	if err := tamper(func(b *incident.Bundle) { b.Error = "panic: something else" }); err == nil {
		t.Error("tampered panic message replayed")
	}
	if err := tamper(func(b *incident.Bundle) { b.InjectSeed++ }); err == nil {
		t.Error("wrong inject seed replayed")
	}
}

// TestLoadRefusesPipelineBundle: a bundle recorded by an engine with
// translation pipeline workers cannot be replayed and says so at Load, while
// the same bundle with the pipeline off still loads and reproduces.
func TestLoadRefusesPipelineBundle(t *testing.T) {
	path, _ := captureBundle(t)
	withEngineKeys := func(keys string) string {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var b map[string]json.RawMessage
		if err := json.Unmarshal(raw, &b); err != nil {
			t.Fatal(err)
		}
		b["engine"] = append(json.RawMessage(`{`+keys+`,`), b["engine"][1:]...)
		out, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(t.TempDir(), "bundle.json")
		if err := os.WriteFile(p, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	if _, err := incident.Load(withEngineKeys(`"pipeline_workers":2`)); !errors.Is(err, incident.ErrPipelineBundle) {
		t.Fatalf("pipelined bundle: %v, want ErrPipelineBundle", err)
	}
	b, err := incident.Load(withEngineKeys(`"pipeline_workers":0,"pipeline_depth":8,"pipeline_latency":600`))
	if err != nil {
		t.Fatal(err)
	}
	if err := incident.Replay(b); err != nil {
		t.Fatalf("synchronous bundle with pipeline keys: %v", err)
	}
}

// TestIsBundleDistinguishesText pins the dual -replay format contract: the
// fuzzer's text reproducers must never be mistaken for incident bundles.
func TestIsBundleDistinguishesText(t *testing.T) {
	p := filepath.Join(t.TempDir(), "seed-1.txt")
	if err := os.WriteFile(p, []byte("seed 0x1\nbody 4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if incident.IsBundle(p) {
		t.Error("text reproducer classified as a bundle")
	}
	if incident.IsBundle(filepath.Join(t.TempDir(), "missing.json")) {
		t.Error("missing file classified as a bundle")
	}
}

// TestEngineConfigRoundTrip checks the captured engine-config subset
// survives JSON-shape conversion unchanged — the replay must run the exact
// configuration the failing attempt did.
func TestEngineConfigRoundTrip(t *testing.T) {
	cfg := cms.DefaultConfig()
	cfg.EnableChaining = false
	cfg.RollbackStormThreshold = 9
	cfg.NoTranslate = false
	cfg.CancelQuantum = 1024
	got := incident.FromCMS(incident.FromCMS(cfg).ToCMS())
	if got != incident.FromCMS(cfg) {
		t.Errorf("round trip changed the config: %+v vs %+v", got, incident.FromCMS(cfg))
	}
}
