package farm

import (
	"testing"

	"cms/internal/cms"
	"cms/internal/dev"
	"cms/internal/fuzzer"
	"cms/internal/workload"
)

// soloRun executes one workload on a dedicated engine with NO shared store —
// the exact setup of the solo harness (internal/bench.Run) — and returns the
// same observables Result carries.
func soloRun(t *testing.T, w workload.Workload, cfg cms.Config) *Result {
	t.Helper()
	img := w.Build()
	plat := dev.NewPlatform(img.RAM, img.Disk)
	plat.Bus.WriteRaw(img.Org, img.Data)
	e := cms.New(plat, img.Entry, cfg)
	if err := e.Run(img.Budget); err != nil {
		t.Fatalf("%s solo: %v", w.Name, err)
	}
	cpu := e.CPU()
	return &Result{
		Regs:       cpu.Regs,
		EIP:        cpu.EIP,
		Flags:      cpu.Flags,
		Halted:     cpu.Halted,
		Console:    plat.Console.OutputString(),
		Metrics:    e.Metrics,
		CacheStats: e.Cache.Stats,
	}
}

// stateOf adapts a farm Result to the differential oracle's State so the
// comparison logic lives in exactly one place (internal/fuzzer). Memory and
// MMIO text are not part of a farm Result; they compare as equal empties.
func stateOf(name string, r *Result) *fuzzer.State {
	return &fuzzer.State{
		Name:    name,
		Regs:    r.Regs,
		EIP:     r.EIP,
		Flags:   r.Flags,
		Halted:  r.Halted,
		Console: r.Console,
		Metrics: r.Metrics,
		Cache:   r.CacheStats,
	}
}

// diffResults compares every deterministic observable: final architectural
// state, console output, the full Metrics struct, and translation-cache
// statistics. Wall-clock and shared-store attribution are deliberately
// excluded — those are the only fields allowed to differ.
func diffResults(t *testing.T, name string, solo, farm *Result) {
	t.Helper()
	a, b := stateOf("solo", solo), stateOf("farm", farm)
	if d := fuzzer.DiffArch(a, b); d != "" {
		t.Errorf("%s: architectural state differs: %s", name, d)
	}
	if d := fuzzer.DiffMetrics(a, b); d != "" {
		t.Errorf("%s: %s", name, d)
	}
}

// TestFarmDifferential is the subsystem's correctness contract: every suite
// workload run inside a 4-VM farm — concurrently, over one shared store,
// with a duplicate copy of each boot workload in the mix so cross-VM dedup
// actually engages — finishes with final guest state and the full Metrics
// struct byte-identical to a solo run. Run under -race this also exercises
// the store's concurrency safety.
func TestFarmDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential suite is minutes long under -race")
	}
	cfg := cms.DefaultConfig()
	ws := workload.All()

	solo := make(map[string]*Result, len(ws))
	for _, w := range ws {
		solo[w.Name] = soloRun(t, w, cfg)
	}

	f := New(Config{MaxVMs: 4, QueueDepth: 2 * len(ws), Engine: cfg})
	var ids []string
	for _, w := range ws {
		v, err := f.Submit(JobSpec{Workload: w.Name})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	// Duplicates: same workloads again, so some VM pairs run identical
	// guests and the second of each pair is served largely from the store.
	for _, w := range ws {
		v, err := f.Submit(JobSpec{Workload: w.Name})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	f.Drain()

	for _, id := range ids {
		v, ok := f.Job(id)
		if !ok {
			t.Fatalf("%s vanished", id)
		}
		if v.Status != StatusDone {
			t.Fatalf("%s (%s): status %s: %s", id, v.Spec.Workload, v.Status, v.Error)
		}
		diffResults(t, id+"/"+v.Spec.Workload, solo[v.Spec.Workload], v.Result)
	}

	st := f.Stats()
	if st.Store.Hits+st.Store.Waits == 0 {
		t.Error("duplicate workloads produced no shared-store dedup")
	}
	if st.Done != uint64(2*len(ws)) {
		t.Errorf("done = %d, want %d", st.Done, 2*len(ws))
	}
}
