package cms

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"cms/internal/dev"
	"cms/internal/mem"
	"cms/internal/tcache"
)

// snapLoop retires enough instructions that a first-poll cancel always
// lands mid-run with the hot loop already translated.
const snapLoop = `
.org 0x1000
	mov eax, 0
	mov ecx, 40000
loop:
	add eax, ecx
	mov [0x8000], eax
	mov ebx, [0x8000]
	dec ecx
	jne loop
	hlt
`

// cancelOnce returns a Cancel hook that fires at the first poll boundary
// and never again — the capture engine preempts, the restored engine runs.
func cancelOnce() func() bool {
	fired := false
	return func() bool {
		if fired {
			return false
		}
		fired = true
		return true
	}
}

// captureMidRun runs src until the first cancel boundary and exports the
// engine. The platform is left exactly as captured (the engine stopped at a
// committed boundary), so restoring onto it is legal.
func captureMidRun(t *testing.T, cfg Config, budget uint64) (*Engine, *EngineState) {
	t.Helper()
	cfg.Cancel = cancelOnce()
	e := build(t, snapLoop, cfg, nil)
	if err := e.Run(budget); !errors.Is(err, ErrCancelled) {
		t.Fatalf("capture run: %v, want ErrCancelled", err)
	}
	if e.CPU().Halted {
		t.Fatal("cancel landed after the halt — nothing mid-run to capture")
	}
	st, err := e.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	return e, st
}

// TestEngineExportRestoreMidRun is the in-package half of the snapshot
// contract: export at a cancel boundary, rebuild with RestoreEngine on the
// captured platform, finish, and match an uninterrupted run bit-for-bit —
// registers, flags, and the full Metrics struct.
func TestEngineExportRestoreMidRun(t *testing.T) {
	const budget = 10_000_000
	solo := build(t, snapLoop, DefaultConfig(), nil)
	runToHalt(t, solo, budget)

	e, st := captureMidRun(t, DefaultConfig(), budget)
	re, err := RestoreEngine(e.Plat, DefaultConfig(), st)
	if err != nil {
		t.Fatal(err)
	}
	if re.Budget() != budget {
		t.Fatalf("restored budget = %d, want %d", re.Budget(), budget)
	}
	runToHalt(t, re, budget)
	if re.CPU().Regs != solo.CPU().Regs || re.CPU().Flags != solo.CPU().Flags {
		t.Fatalf("restored arch state diverged: %v vs %v", re.CPU().Regs, solo.CPU().Regs)
	}
	if !reflect.DeepEqual(re.Metrics, solo.Metrics) {
		t.Fatalf("restored Metrics diverged:\nrestored %+v\nsolo     %+v", re.Metrics, solo.Metrics)
	}
}

// TestEngineRestoreRehydratesThroughStore pins both rehydration paths: a
// warm shared store serves the captured translations as hits, a cold one
// retranslates as misses, and the continuation is bit-identical either way.
func TestEngineRestoreRehydratesThroughStore(t *testing.T) {
	const budget = 10_000_000
	solo := build(t, snapLoop, DefaultConfig(), nil)
	runToHalt(t, solo, budget)

	warm := tcache.NewShared(0)
	cfg := DefaultConfig()
	cfg.SharedStore = warm
	e, st := captureMidRun(t, cfg, budget)
	if len(st.Cache.Entries) == 0 {
		t.Fatal("capture carries no translations — the store paths are untested")
	}

	rcfg := DefaultConfig()
	rcfg.SharedStore = warm
	re, err := RestoreEngine(e.Plat, rcfg, st)
	if err != nil {
		t.Fatal(err)
	}
	if ws := warm.Stats(); ws.RehydrateHits == 0 {
		t.Fatalf("warm store rehydrated with no hits: %+v", ws)
	}
	if hits, _ := re.SharedStats(); hits == 0 {
		t.Fatal("restored engine's shared-hit counter did not move")
	}
	runToHalt(t, re, budget)
	if !reflect.DeepEqual(re.Metrics, solo.Metrics) {
		t.Fatal("warm-store restore diverged from solo Metrics")
	}

	// Cold store: same state, every translation rebuilt from scratch.
	ccfg := DefaultConfig()
	ccfg.SharedStore = tcache.NewShared(0)
	// Round-trip the captured platform through the dev snapshot layer so the
	// second restore gets its own bus — restoring two engines onto one
	// platform would alias guest memory.
	plat2, err := dev.RestorePlatform(mem.NewBus(e.Plat.Bus.RAMSize()), e.Plat.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	rc, err := RestoreEngine(plat2, ccfg, st)
	if err != nil {
		t.Fatal(err)
	}
	if cs := ccfg.SharedStore.Stats(); cs.RehydrateMisses == 0 {
		t.Fatalf("cold store rehydrated with no misses: %+v", cs)
	}
	runToHalt(t, rc, budget)
	if !reflect.DeepEqual(rc.Metrics, solo.Metrics) {
		t.Fatal("cold-store restore diverged from solo Metrics")
	}
}

// TestEngineExportErrors pins the export-time refusal: an injector that
// cannot ride a snapshot.
func TestEngineExportErrors(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Injector = statelessInjector{}
	ei := build(t, snapLoop, cfg, nil)
	if _, err := ei.ExportState(); err == nil || !strings.Contains(err.Error(), "injector") {
		t.Fatalf("export with stateless injector: %v", err)
	}
}

// statelessInjector implements Injector but not StatefulInjector.
type statelessInjector struct{}

func (statelessInjector) TexecBoundary(uint32, uint64) InjectAction { return InjectNone }

// TestEngineRestoreErrors pins the restore-time refusals: incomplete state,
// a resume point naming an uncached translation, and injector state without
// a matching StatefulInjector in the config.
func TestEngineRestoreErrors(t *testing.T) {
	e, st := captureMidRun(t, DefaultConfig(), 10_000_000)

	if _, err := RestoreEngine(e.Plat, DefaultConfig(), nil); err == nil {
		t.Fatal("nil state restored")
	}
	if _, err := RestoreEngine(e.Plat, DefaultConfig(), &EngineState{}); err == nil {
		t.Fatal("empty state restored")
	}

	bad := *st
	bad.Resume = ResumeState{Valid: true, Entry: 0xdead0}
	if _, err := RestoreEngine(e.Plat, DefaultConfig(), &bad); err == nil || !strings.Contains(err.Error(), "resume") {
		t.Fatalf("resume to uncached entry: %v", err)
	}

	inj := *st
	inj.Injector = []byte("schedule")
	if _, err := RestoreEngine(e.Plat, DefaultConfig(), &inj); err == nil || !strings.Contains(err.Error(), "injector") {
		t.Fatalf("injector state without injector: %v", err)
	}
}

// TestSitesOnlyWhereSomethingAdapted: the dispatcher's hotness check must
// not create a site per interpreted address, an export carries only sites
// that differ from a fresh one, and an old envelope that lists untouched
// sites still restores to the same continuation.
func TestSitesOnlyWhereSomethingAdapted(t *testing.T) {
	const budget = 10_000_000
	solo := build(t, snapLoop, DefaultConfig(), nil)
	runToHalt(t, solo, budget)
	// snapLoop is eight instructions and one hot region; before, every
	// address the dispatcher saw got a site.
	if len(solo.sites) > 2 {
		t.Fatalf("%d sites after a one-region program, want translated entries only", len(solo.sites))
	}

	// A site nothing has adapted yet (translateAt creates one per entry).
	const fresh = 0x2000
	cfg := DefaultConfig()
	cfg.Cancel = cancelOnce()
	e := build(t, snapLoop, cfg, nil)
	e.site(fresh)
	if err := e.Run(budget); !errors.Is(err, ErrCancelled) {
		t.Fatalf("capture run: %v, want ErrCancelled", err)
	}
	st, err := e.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	for _, ss := range st.Sites {
		if reflect.DeepEqual(ss, SiteState{Entry: ss.Entry}) {
			t.Fatalf("export lists untouched site %#x", ss.Entry)
		}
	}
	// The shape older builds exported: an all-zero entry per known address.
	st.Sites = append(st.Sites, SiteState{Entry: fresh})
	re, err := RestoreEngine(e.Plat, DefaultConfig(), st)
	if err != nil {
		t.Fatal(err)
	}
	runToHalt(t, re, budget)
	if re.CPU().Regs != solo.CPU().Regs || !reflect.DeepEqual(re.Metrics, solo.Metrics) {
		t.Fatalf("restore from an envelope with untouched sites diverged:\nrestored %+v\nsolo     %+v", re.Metrics, solo.Metrics)
	}
}
