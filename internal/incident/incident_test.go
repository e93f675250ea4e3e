package incident_test

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
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
// first attempt's incident bundle — the same production path cmsserve
// exercises. The job's retry on the next rung down may fail again or
// succeed; either way the first attempt panicked and left a0.
func captureBundle(t *testing.T) (string, *incident.Bundle) {
	t.Helper()
	dir := t.TempDir()
	f := farm.New(farm.Config{
		MaxVMs:      1,
		Engine:      cms.DefaultConfig(),
		IncidentDir: dir,
	})
	v, err := f.Submit(farm.JobSpec{Source: chaosSource, InjectSeed: 11, ChaosPanics: true})
	if err != nil {
		t.Fatal(err)
	}
	f.Drain()
	got, _ := f.Job(v.ID)
	if len(got.Incidents) == 0 || !strings.HasSuffix(got.Incidents[0], "-a0.json") {
		t.Fatalf("chaos job = %s with incidents %v, want a failed first attempt", got.Status, got.Incidents)
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

// roundTrip writes a bundle carrying cfg and loads it back: the path an
// engine configuration takes from a failing farm attempt to its replay.
func roundTrip(t *testing.T, cfg cms.Config) cms.Config {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bundle.json")
	if err := (&incident.Bundle{Kind: incident.KindError, Engine: cfg}).Write(path); err != nil {
		t.Fatal(err)
	}
	b, err := incident.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	return b.Engine
}

// fill sets v, and every field of a struct v, to a non-zero value.
func fill(t *testing.T, v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(7)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(7)
	case reflect.String:
		v.SetString("x")
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		key, elem := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
		fill(t, key)
		fill(t, elem)
		m.SetMapIndex(key, elem)
		v.Set(m)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(t, v.Field(i))
		}
	default:
		t.Fatalf("no non-zero value for a %s", v.Type())
	}
}

// TestEngineConfigSerialized: a replay must run the exact configuration the
// failing attempt did, so every cms.Config field survives a bundle round
// trip at a non-zero value — or is one of the host hooks a replay supplies
// itself (json:"-" on a func, pointer or interface).
func TestEngineConfigSerialized(t *testing.T) {
	typ := reflect.TypeOf(cms.Config{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Tag.Get("json") == "-" {
			switch f.Type.Kind() {
			case reflect.Func, reflect.Pointer, reflect.Interface:
			default:
				t.Errorf("%s is left out of bundles but is a %s, not a host hook", f.Name, f.Type)
			}
			continue
		}
		var cfg cms.Config
		fill(t, reflect.ValueOf(&cfg).Elem().Field(i))
		got := roundTrip(t, cfg)
		if want, got := reflect.ValueOf(cfg).Field(i).Interface(), reflect.ValueOf(got).Field(i).Interface(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: round trip gave %+v, want %+v", f.Name, got, want)
		}
	}
}

// TestLoadsEarlierEngineFormat: a bundle written before the engine object
// was cms.Config's own JSON form — all sixteen keys, the retired
// rollback_storm_threshold included — loads to the same configuration.
func TestLoadsEarlierEngineFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.json")
	old := `{"version":1,"job":"j1","attempt":0,"rung":"full","kind":"error","error":"e","budget":1000,"arch_sha":"",
"engine":{"hot_threshold":40,"fault_threshold":3,"lookup_cost":11,"translate_cost_per_insn":140,
"enable_fine_grain":true,"enable_self_reval":true,"enable_stylized":true,"enable_groups":true,
"enable_compiled_backend":true,"backend":"risc","enable_chaining":true,"no_translate":true,
"tcache_cap_atoms":4096,"ind_tc_hit_cost":3,"cancel_quantum":1024,"rollback_storm_threshold":16}}`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := incident.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	want := cms.Config{
		HotThreshold: 40, FaultThreshold: 3, LookupCost: 11, TranslateCostPerInsn: 140,
		EnableFineGrain: true, EnableSelfReval: true, EnableStylized: true, EnableGroups: true,
		EnableCompiledBackend: true, Backend: "risc", EnableChaining: true, NoTranslate: true,
		TCacheCapAtoms: 4096, IndTCHitCost: 3, CancelQuantum: 1024,
	}
	if !reflect.DeepEqual(b.Engine, want) {
		t.Errorf("loaded %+v, want %+v", b.Engine, want)
	}
}

// TestDefaultEngineBytes pins the engine object a farm running the default
// configuration writes: the zero policy and host are left out, and the
// bytes are the ones bundles have always carried.
func TestDefaultEngineBytes(t *testing.T) {
	raw, err := json.Marshal(incident.Bundle{Engine: cms.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	var b map[string]json.RawMessage
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	const want = `{"hot_threshold":50,"fault_threshold":2,"lookup_cost":12,"translate_cost_per_insn":150,` +
		`"enable_fine_grain":true,"enable_self_reval":true,"enable_stylized":true,"enable_groups":true,` +
		`"enable_compiled_backend":true,"enable_chaining":true}`
	if got := string(b["engine"]); got != want {
		t.Errorf("engine object\n got %s\nwant %s", got, want)
	}
}
