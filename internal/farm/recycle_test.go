package farm

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"cms/internal/asm"
	"cms/internal/cms"
	"cms/internal/dev"
	"cms/internal/guest"
	"cms/internal/incident"
	"cms/internal/snapshot"
)

// Runners keep their guest RAM between jobs. These tests are the proof that
// nothing else survives: whatever job A did on a runner, and however it
// ended, job B on that runner is indistinguishable from B on a farm that
// never ran anything.

// sumSource reads every word of RAM it can (all but the MMIO hole) into a
// checksum. It reads memory it never wrote, so one byte a previous tenant
// left anywhere changes its final eax.
const sumSource = `
.org 0x1000
_start:
	mov eax, 0
	mov ebx, 0
lo:
	add eax, [ebx]
	add ebx, 4
	cmp ebx, 0xB8000
	jne lo
	mov ebx, 0x100000
hi:
	add eax, [ebx]
	add ebx, 4
	cmp ebx, 0x200000
	jne hi
	hlt
`

// dirtySource stores to every page of RAM outside its own code and the MMIO
// hole, prints, runs the BLT engine, and halts.
const dirtySource = `
.org 0x1000
_start:
	cli
	mov eax, 0x5A5A5A5A
	mov ebx, 0x20000
lo:
	mov [ebx], eax
	add ebx, 64
	cmp ebx, 0xB8000
	jne lo
	mov ebx, 0x100000
hi:
	mov [ebx], eax
	add ebx, 64
	cmp ebx, 0x200000
	jne hi
	out 0x3F8, eax
	mov ebx, 0xC0000
	mov eax, 0x30000
	mov [ebx+4], eax
	mov eax, 0x800
	mov [ebx+8], eax
	mov eax, 1
	mov [ebx+12], eax
	mov [ebx+24], eax
	mov [ebx+16], eax
	hlt
`

// spinDirtySource is dirtySource's store loop without an end: the only ways
// out are the watchdog and a checkpoint.
const spinDirtySource = `
.org 0x1000
_start:
	cli
	mov eax, 0xA5A5A5A5
again:
	mov ebx, 0x100000
hi:
	mov [ebx], eax
	add ebx, 64
	cmp ebx, 0x200000
	jne hi
	add eax, 1
	jmp again
`

// hostileDMASource aims the disk and the BLT engine at addresses beyond the
// 2 MiB of RAM — destination, then source — often enough that the loop is
// translated, so both the interpreter and translated code drive the devices.
const hostileDMASource = `
.org 0x1000
_start:
	cli
	mov ecx, 300
loop:
	mov eax, 0x400000
	out 0x1F4, eax
	mov eax, 4
	out 0x1F8, eax
	mov eax, 1
	out 0x1FC, eax
	mov ebx, 0xC0000
	mov eax, 0x400000
	mov [ebx+4], eax
	mov eax, 64
	mov [ebx+8], eax
	mov eax, 1
	mov [ebx+12], eax
	mov [ebx+16], eax
	mov eax, 0xFFFFFFF0
	mov [ebx], eax
	mov eax, 0x2000
	mov [ebx+4], eax
	mov eax, 0
	mov [ebx+12], eax
	mov [ebx+16], eax
	mov eax, 0x1FFFFE
	mov [ebx+4], eax
	mov eax, 2
	mov [ebx+12], eax
	mov [ebx+16], eax
	dec ecx
	jne loop
	mov eax, [0x2000]
	hlt
`

// sourceEngine builds a source job's VM exactly as attempt does, outside any
// farm: the never-recycled reference.
func sourceEngine(t *testing.T, src string, cfg cms.Config) *cms.Engine {
	t.Helper()
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	const ram = 1 << 21
	plat := dev.NewPlatform(ram, nil)
	plat.Bus.WriteRaw(prog.Org, prog.Image)
	e := cms.New(plat, prog.Entry(), cfg)
	e.CPU().Regs[guest.ESP] = ram / 2
	return e
}

// requestCheckpoint sets a job's checkpoint flag without waiting for it to
// land. Set while the job is still queued, it preempts the job at its first
// commit boundary, which makes the envelope deterministic.
func requestCheckpoint(f *Farm, id string) {
	f.jobsMu.RLock()
	j := f.jobs[id]
	f.jobsMu.RUnlock()
	j.checkpoint.Store(true)
}

// TestRecycledVMDifferential runs three probes — the RAM checksum, a boot
// workload that leans on protection, DMA and MMIO, and the checksum again
// preempted into a snapshot at its first boundary — on a one-runner farm
// straight after a predecessor that dirtied the VM and then halted, panicked
// twice, was retried onto a demoted rung, was preempted by its deadline in
// the middle of its translated loop, was checkpointed away, or was itself
// restored from an envelope with its page generations wiped. Every probe
// must be byte-identical (architectural state, console, Metrics, cache
// statistics) to the same probe alone on a brand-new farm, and the envelope
// to one captured from an engine no farm ever touched.
func TestRecycledVMDifferential(t *testing.T) {
	cfg := cms.DefaultConfig()
	nocompile := cfg
	nocompile.EnableCompiledBackend = false

	// A dirtySource run stopped half way, with every generation wiped: the
	// envelope a hostile /v1/restore would send to get its pages skipped.
	hostileBlob := func() []byte {
		run := cfg
		var e *cms.Engine
		run.CancelQuantum = 256
		run.Cancel = func() bool { return e.Metrics.GuestTotal() >= 60_000 }
		e = sourceEngine(t, dirtySource, run)
		if err := e.Run(100_000_000); !errors.Is(err, cms.ErrCancelled) {
			t.Fatalf("capture run: %v", err)
		}
		s, err := snapshot.Capture(e)
		if err != nil {
			t.Fatal(err)
		}
		if len(s.Platform.Bus.Pages) < 100 {
			t.Fatalf("capture holds %d pages; the run stopped too early to matter", len(s.Platform.Bus.Pages))
		}
		clear(s.Platform.Bus.Gen)
		blob, err := s.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}()

	probes := []JobSpec{{Source: sumSource}, {Workload: "dos_boot"}}
	probeNames := []string{"checksum", "dos_boot"}
	submit := func(t *testing.T, f *Farm, spec JobSpec, restore []byte) string {
		t.Helper()
		var v JobView
		var err error
		if restore != nil {
			v, err = f.SubmitRestore(restore, spec)
		} else {
			v, err = f.Submit(spec)
		}
		if err != nil {
			t.Fatal(err)
		}
		return v.ID
	}
	done := func(t *testing.T, f *Farm, id string) *Result {
		t.Helper()
		v, _ := f.Job(id)
		if v.Status != StatusDone {
			t.Fatalf("probe %s: %s (%s)", id, v.Status, v.Error)
		}
		return v.Result
	}

	// The references: each probe alone on a brand-new farm, and the envelope
	// from an engine no farm ever touched. One set per engine template.
	type reference struct {
		results  []*Result
		envelope []byte
	}
	refs := map[bool]*reference{}
	referenceFor := func(t *testing.T, engine cms.Config) *reference {
		if r := refs[engine.EnableCompiledBackend]; r != nil {
			return r
		}
		r := &reference{}
		for _, spec := range probes {
			f := New(Config{MaxVMs: 1, Engine: engine})
			id := submit(t, f, spec, nil)
			f.Drain()
			r.results = append(r.results, done(t, f, id))
		}
		if r.results[0].Regs[guest.EAX] == 0 {
			t.Fatal("checksum probe read nothing")
		}
		solo := engine
		solo.Cancel = func() bool { return true }
		e := sourceEngine(t, sumSource, solo)
		if err := e.Run(Config{}.normalized().DefaultBudget); !errors.Is(err, cms.ErrCancelled) {
			t.Fatalf("solo capture: %v", err)
		}
		var err error
		if r.envelope, err = snapshot.Save(e); err != nil {
			t.Fatal(err)
		}
		refs[engine.EnableCompiledBackend] = r
		return r
	}

	preds := []struct {
		name    string
		engine  cms.Config
		spec    JobSpec
		restore []byte
		preempt bool
		want    Status
	}{
		{name: "halted", engine: cfg, spec: JobSpec{Source: dirtySource}, want: StatusDone},
		{name: "panicked", engine: cfg, spec: JobSpec{Source: dirtySource, InjectSeed: 7, ChaosPanics: true}, want: StatusFailed},
		{name: "retried-demoted", engine: nocompile, spec: JobSpec{Source: dirtySource, InjectSeed: 7, ChaosPanics: true}, want: StatusDone},
		{name: "deadline", engine: cfg, spec: JobSpec{Source: spinDirtySource, Budget: 4_000_000_000, DeadlineMs: 10}, want: StatusTimeout},
		{name: "checkpointed", engine: cfg, spec: JobSpec{Source: spinDirtySource, Budget: 4_000_000_000}, preempt: true, want: StatusCheckpointed},
		{name: "restored", engine: cfg, restore: hostileBlob, want: StatusDone},
	}
	for _, p := range preds {
		t.Run(p.name, func(t *testing.T) {
			ref := referenceFor(t, p.engine)

			// A plug holds the only runner while everything else is queued,
			// so the checkpoint flags are set before their jobs start.
			f := newTestFarm(Config{MaxVMs: 1, Engine: p.engine, IncidentDir: t.TempDir()}, 0)
			plug := submit(t, f, JobSpec{Source: spinDirtySource, Budget: 4_000_000_000}, nil)
			pred := submit(t, f, p.spec, p.restore)
			if p.preempt {
				requestCheckpoint(f, pred)
			}
			var ids []string
			for _, spec := range probes {
				ids = append(ids, submit(t, f, spec, nil))
			}
			preempted := submit(t, f, probes[0], nil)
			requestCheckpoint(f, preempted)
			if v, _, err := f.Checkpoint(plug); err != nil {
				t.Fatalf("plug: %v (%s)", err, v.Status)
			}
			f.Drain()

			v, _ := f.Job(pred)
			if v.Status != p.want {
				t.Errorf("predecessor ended %s (%s), want %s", v.Status, v.Error, p.want)
			}
			if p.want == StatusTimeout {
				// The watchdog stopped the spin loop while it ran translated:
				// past the hot threshold, short of the budget.
				if len(v.Incidents) != 1 {
					t.Fatalf("timed-out predecessor wrote %d incident bundles, want 1", len(v.Incidents))
				}
				b, err := incident.Load(v.Incidents[0])
				if err != nil {
					t.Fatal(err)
				}
				if hot := 4 * cfg.HotThreshold; b.Retired <= hot || b.Retired >= p.spec.Budget {
					t.Errorf("deadline preempted the predecessor after %d insns, want in (%d, %d)", b.Retired, hot, p.spec.Budget)
				}
			}
			for k, id := range ids {
				diffResults(t, probeNames[k], ref.results[k], done(t, f, id))
			}
			envelope, ok := f.Snapshot(preempted)
			if !ok {
				v, _ := f.Job(preempted)
				t.Fatalf("preempted probe ended %s (%s), want a snapshot", v.Status, v.Error)
			}
			if !bytes.Equal(envelope, ref.envelope) {
				t.Errorf("snapshot envelope differs from a never-recycled VM's (%d vs %d bytes)",
					len(envelope), len(ref.envelope))
			}
			if st := f.Stats(); st.VMBuilds != 1 || st.VMReuses < 4 {
				t.Errorf("runner built %d VMs and reused them %d times; the probes did not run on recycled RAM",
					st.VMBuilds, st.VMReuses)
			}
		})
	}
}

// TestRecycledVMCanary fills everything a tenant could reach in a runner's
// VM — every byte of RAM, every page's attributes, protection, fine-grain
// mask and generation, the fine-grain cache, mappings and hooks — with a
// pattern, and requires the next platform built on that slot to export
// exactly what a platform on new RAM exports.
func TestRecycledVMCanary(t *testing.T) {
	const ram = 1 << 21
	disk := bytes.Repeat([]byte{0xD1}, 4*dev.SectorSize)
	vm := &vmSlot{ctr: &counters{}}

	a := dev.NewPlatformOn(vm.acquire(ram), disk)
	a.Bus.WriteRaw(0, bytes.Repeat([]byte{0xC5}, ram))
	for p := uint32(0); p < a.Bus.NumPages(); p++ {
		a.Bus.SetAttr(p, 0)
		a.Bus.SetFineGrain(p, 0xC5C5C5C5)
		a.Bus.CheckProt(p<<12, 4, 0)
	}
	a.Bus.SetFineGrainCacheCap(3)
	a.Bus.DMAInvalidate = func(uint32) {}
	a.Bus.PortWrite(dev.ConsoleDataPort, 0xC5)
	a.Bus.PortWrite(dev.TimerPeriodPort, 0xC5)
	a.Bus.PortWrite(dev.DiskAddrPort, 0xC5C5)
	vm.scrub()
	if got := vm.ctr.scrubbed.Load(); got != ram>>12 {
		t.Errorf("scrubbed %d pages, want all %d", got, ram>>12)
	}

	b := dev.NewPlatformOn(vm.acquire(ram), disk).ExportState()
	fresh := dev.NewPlatform(ram, disk).ExportState()
	if !reflect.DeepEqual(b, fresh) {
		t.Error("platform on the scrubbed slot differs from a fresh platform")
	}
	bj, _ := json.Marshal(b)
	fj, _ := json.Marshal(fresh)
	if !bytes.Equal(bj, fj) {
		t.Error("serialized state differs")
	}
	if bytes.Contains(bj, []byte("xcXF")) { // base64 of C5 C5 C5
		t.Error("the canary pattern survives in the exported state")
	}
	if vm.ctr.vmBuilds.Load() != 1 || vm.ctr.vmReuses.Load() != 1 {
		t.Errorf("builds %d reuses %d, want 1 and 1", vm.ctr.vmBuilds.Load(), vm.ctr.vmReuses.Load())
	}
	// A job with another RAM size gets RAM of that size, never a slice of
	// the old one.
	if small := vm.acquire(ram / 2); small.RAMSize() != ram/2 || vm.ctr.vmBuilds.Load() != 2 {
		t.Errorf("resized slot: %d bytes, %d builds", small.RAMSize(), vm.ctr.vmBuilds.Load())
	}
}

// TestHostileDMAJobContained: device registers are guest-controlled, and a
// source job may aim DMA anywhere. Such a job must run to its halt like any
// other — no recovered panic, so no innocent shared-store key poisoned and
// nothing fed to the circuit breaker — and so must an image whose load
// address is beyond RAM, which used to take the whole process down from
// outside the recover.
func TestHostileDMAJobContained(t *testing.T) {
	f := newTestFarm(Config{MaxVMs: 1, Engine: cms.DefaultConfig()}, 4)
	var ids []string
	for i := 0; i < 4; i++ {
		v, err := f.Submit(JobSpec{Source: hostileDMASource})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	f.Wait()
	for _, id := range ids {
		v, _ := f.Job(id)
		if v.Status != StatusDone || !v.Result.Halted || v.Result.Regs[guest.EAX] != 0 {
			t.Fatalf("%s: %s (%s)", id, v.Status, v.Error)
		}
		if v.Result.Metrics.Translations == 0 {
			t.Errorf("%s: the device loop was never translated", id)
		}
	}
	st := f.Stats()
	if st.Panics != 0 || st.Failed != 0 || st.Store.Poisons != 0 || st.BreakerOpen || st.BreakerShed != 0 {
		t.Errorf("panics %d failed %d poisons %d breaker open=%v shed=%d",
			st.Panics, st.Failed, st.Store.Poisons, st.BreakerOpen, st.BreakerShed)
	}

	// An image loaded beyond RAM is dropped; the guest then faults fetching
	// its first instruction, which is an ordinary engine error.
	v, err := f.Submit(JobSpec{Source: ".org 0x400000\n_start:\n\thlt\n"})
	if err != nil {
		t.Fatal(err)
	}
	f.Drain()
	got, _ := f.Job(v.ID)
	if got.Status != StatusFailed || strings.Contains(got.Error, "panic") {
		t.Errorf("out-of-RAM image: %s (%s), want a plain failure", got.Status, got.Error)
	}
	if st := f.Stats(); st.Panics != 0 {
		t.Errorf("panics = %d", st.Panics)
	}
}

// TestPhaseTimersAndPoolCounters pins the host-side accounting: every
// terminal job says where its runner's time went, and the pool counters are
// three fixed series however many jobs ran.
func TestPhaseTimersAndPoolCounters(t *testing.T) {
	f := New(Config{MaxVMs: 1})
	const jobs = 5
	for i := 0; i < jobs; i++ {
		if _, err := f.Submit(JobSpec{Source: testSource}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.Submit(JobSpec{Source: "not a program"}); err != nil {
		t.Fatal(err)
	}
	f.Drain()
	for _, v := range f.Jobs() {
		if v.QueueNs <= 0 || v.ConstructNs <= 0 || v.TeardownNs <= 0 {
			t.Errorf("%s (%s): queue %d construct %d teardown %d ns, want all set",
				v.ID, v.Status, v.QueueNs, v.ConstructNs, v.TeardownNs)
		}
		if v.Result != nil && v.QueueNs+v.ConstructNs+v.Result.WallNs > v.LatencyNs {
			t.Errorf("%s: queue+construct+run = %d ns exceeds the latency %d ns",
				v.ID, v.QueueNs+v.ConstructNs+v.Result.WallNs, v.LatencyNs)
		}
	}
	st := f.Stats()
	if st.VMBuilds != 1 || st.VMReuses != jobs-1 {
		t.Errorf("builds %d reuses %d, want 1 and %d (the job that never assembled takes no VM)", st.VMBuilds, st.VMReuses, jobs-1)
	}
	if st.ScrubbedPages < jobs || st.ScrubbedPages > 16*jobs {
		t.Errorf("scrubbed %d pages over %d small jobs; the scrub should follow the write set", st.ScrubbedPages, jobs)
	}
	var buf bytes.Buffer
	WriteMetrics(&buf, f)
	for _, name := range []string{"cms_farm_vm_builds_total", "cms_farm_vm_reuses_total", "cms_farm_scrubbed_pages_total"} {
		if n := strings.Count(buf.String(), "\n"+name); n != 1 {
			t.Errorf("%s has %d series, want exactly 1", name, n)
		}
	}
}
