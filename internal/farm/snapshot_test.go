package farm

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"testing"

	"cms/internal/cms"
	"cms/internal/incident"
	"cms/internal/mem"
	"cms/internal/snapshot"
	"cms/internal/workload"
)

// pickWorkload returns a suite workload long enough that a checkpoint
// request always lands before the guest halts.
func pickWorkload(t *testing.T) workload.Workload {
	t.Helper()
	for _, w := range workload.All() {
		if w.Name == "eqntott" {
			return w
		}
	}
	t.Fatal("suite lost the eqntott workload")
	return workload.Workload{}
}

// TestFarmCheckpointRestore preempts a running job into a snapshot, resumes
// the blob as a new job on the same farm (warm store), and requires the
// combined run — capture plus continuation — to be bit-identical to a solo
// uninterrupted run: architectural state, full Metrics, cache statistics.
func TestFarmCheckpointRestore(t *testing.T) {
	cfg := cms.DefaultConfig()
	w := pickWorkload(t)
	solo := soloRun(t, w, cfg)

	f := New(Config{MaxVMs: 2, Engine: cfg})
	v, err := f.Submit(JobSpec{Workload: w.Name})
	if err != nil {
		t.Fatal(err)
	}
	// The flag lands before the runner picks the job up, so the engine is
	// preempted at its first poll boundary — a few thousand retired
	// instructions in, far enough for the hot entry loop to be translated,
	// early enough that the job cannot win the race by halting first.
	cv, blob, err := f.Checkpoint(v.ID)
	if err != nil {
		t.Fatalf("checkpoint: %v (status %s)", err, cv.Status)
	}
	if cv.Status != StatusCheckpointed || cv.SnapshotBytes != len(blob) || len(blob) == 0 {
		t.Fatalf("checkpoint view: %+v (%d blob bytes)", cv, len(blob))
	}
	if got, ok := f.Snapshot(v.ID); !ok || len(got) != len(blob) {
		t.Fatalf("Snapshot accessor: ok=%v len=%d want %d", ok, len(got), len(blob))
	}

	rv, err := f.SubmitRestore(blob, JobSpec{})
	if err != nil {
		t.Fatal(err)
	}
	f.Wait()
	jv, _ := f.Job(rv.ID)
	if jv.Status != StatusDone {
		t.Fatalf("restored job: status %s: %s", jv.Status, jv.Error)
	}
	if !jv.Restored {
		t.Fatal("restored job not flagged Restored")
	}
	diffResults(t, w.Name+"/restored", solo, jv.Result)

	if st := f.Stats(); st.Checkpoints != 1 {
		t.Fatalf("Stats.Checkpoints = %d, want 1", st.Checkpoints)
	}
}

// TestFarmCheckpointDrainMigrate is live migration in miniature: farm A is
// drained into checkpoints, every blob is restored on a brand-new farm B
// with a cold shared store, and every migrated job must finish bit-identical
// to a solo run — rehydration on the cold store is a deterministic
// retranslation, so migration moves wall-clock cost only.
func TestFarmCheckpointDrainMigrate(t *testing.T) {
	cfg := cms.DefaultConfig()
	w := pickWorkload(t)
	solo := soloRun(t, w, cfg)

	a := New(Config{MaxVMs: 2, Engine: cfg})
	const jobs = 3
	ids := make([]string, 0, jobs)
	for i := 0; i < jobs; i++ {
		v, err := a.Submit(JobSpec{Workload: w.Name})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	views := a.CheckpointDrain()
	if len(views) == 0 {
		t.Fatal("CheckpointDrain preempted nothing")
	}
	if a.Stats().Checkpoints != uint64(len(views)) {
		t.Fatalf("Stats.Checkpoints = %d, want %d", a.Stats().Checkpoints, len(views))
	}

	b := New(Config{MaxVMs: 2, Engine: cfg})
	migrated := make([]string, 0, len(views))
	for _, v := range views {
		blob, ok := a.Snapshot(v.ID)
		if !ok {
			t.Fatalf("%s: checkpointed but no snapshot", v.ID)
		}
		rv, err := b.SubmitRestore(blob, JobSpec{})
		if err != nil {
			t.Fatal(err)
		}
		migrated = append(migrated, rv.ID)
	}
	b.Drain()
	for _, id := range migrated {
		jv, _ := b.Job(id)
		if jv.Status != StatusDone {
			t.Fatalf("%s: status %s: %s", id, jv.Status, jv.Error)
		}
		diffResults(t, w.Name+"/migrated/"+id, solo, jv.Result)
	}
	// Jobs that completed on A before the drain flag landed must still have
	// results; the sum of done and checkpointed covers every submission.
	done := 0
	for _, id := range ids {
		jv, _ := a.Job(id)
		switch jv.Status {
		case StatusDone:
			done++
		case StatusCheckpointed:
		default:
			t.Fatalf("%s: unexpected terminal status %s", id, jv.Status)
		}
	}
	if done+len(views) != jobs {
		t.Fatalf("done %d + checkpointed %d != %d submitted", done, len(views), jobs)
	}
}

// TestRestoredJobIncidentReplaysFromCheckpoint is the record-replay loop:
// a job is checkpointed, restored, and then dies on a guest fault. The
// incident bundle must embed the checkpoint envelope, and incident.Replay
// must reproduce the failure from the checkpoint — same error, same
// architectural state hash — without replaying the pre-checkpoint history.
func TestRestoredJobIncidentReplaysFromCheckpoint(t *testing.T) {
	const faulty = `
.org 0x1000
_start:
	mov ecx, 100000
loop:
	add eax, 1
	dec ecx
	jne loop
	mov ebx, [0x800000]
	hlt
`
	cfg := cms.DefaultConfig()
	f := New(Config{MaxVMs: 1, Engine: cfg, IncidentDir: t.TempDir()})
	v, err := f.Submit(JobSpec{Source: faulty})
	if err != nil {
		t.Fatal(err)
	}
	_, blob, err := f.Checkpoint(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	rv, err := f.SubmitRestore(blob, JobSpec{})
	if err != nil {
		t.Fatal(err)
	}
	f.Wait()
	jv, _ := f.Job(rv.ID)
	if jv.Status != StatusFailed {
		t.Fatalf("restored job: status %s, want failed", jv.Status)
	}
	if len(jv.Incidents) != 1 {
		t.Fatalf("incidents: %v, want one bundle", jv.Incidents)
	}
	b, err := incident.Load(jv.Incidents[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Snapshot) == 0 {
		t.Fatal("bundle from a restored job lacks the checkpoint envelope")
	}
	if b.ImageSHA != "" {
		t.Fatal("snapshot bundle should not record an image hash")
	}
	if err := incident.Replay(b); err != nil {
		t.Fatalf("replay from checkpoint: %v", err)
	}
	f.Drain()
}

// TestSubmitRestoreValidation pins the admission errors: a spec naming an
// image, a corrupt envelope, a self-consistent envelope whose bus section no
// VM can hold, and one carrying in-flight pipeline translations — each
// refused before a job is minted.
func TestSubmitRestoreValidation(t *testing.T) {
	cfg := cms.DefaultConfig()
	f := New(Config{MaxVMs: 1, Engine: cfg})
	if _, err := f.SubmitRestore([]byte("garbage"), JobSpec{}); err == nil {
		t.Fatal("corrupt envelope admitted")
	}
	v, err := f.Submit(JobSpec{Workload: pickWorkload(t).Name})
	if err != nil {
		t.Fatal(err)
	}
	_, blob, err := f.Checkpoint(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.SubmitRestore(blob, JobSpec{Workload: "eqntott"}); err == nil {
		t.Fatal("restore spec with a workload admitted")
	}
	for name, tamper := range map[string]func(*mem.BusState){
		"page beyond RAM":      func(b *mem.BusState) { b.Pages[0].Index = b.NumPages },
		"oversized generation": func(b *mem.BusState) { b.Gen[0] = ^uint64(0) },
	} {
		s, err := snapshot.Decode(blob)
		if err != nil {
			t.Fatal(err)
		}
		tamper(s.Platform.Bus)
		bad, err := s.Encode()
		if err != nil {
			t.Fatal(err)
		}
		before := f.Stats().Submitted
		if v, err := f.SubmitRestore(bad, JobSpec{}); err == nil {
			t.Errorf("%s: envelope admitted as %s", name, v.ID)
		}
		if got := f.Stats().Submitted; got != before {
			t.Errorf("%s: refused envelope moved submitted %d -> %d", name, before, got)
		}
	}

	// A checkpoint a pipelined engine took with a translation in flight.
	payload := bytes.Replace(blob[len(snapshot.Magic)+4:len(blob)-sha256.Size], []byte(`"engine":{`),
		[]byte(`"engine":{"pend":[{"entry":4096,"due":600,"req":null}],`), 1)
	sum := sha256.Sum256(payload)
	pend := append(binary.LittleEndian.AppendUint32([]byte(snapshot.Magic), uint32(len(payload))), payload...)
	before := f.Stats().Submitted
	if v, err := f.SubmitRestore(append(pend, sum[:]...), JobSpec{}); !errors.Is(err, snapshot.ErrPendingTranslations) {
		t.Errorf("envelope with an in-flight translation: %v (job %q), want ErrPendingTranslations", err, v.ID)
	}
	if got := f.Stats().Submitted; got != before {
		t.Errorf("refused pend envelope moved submitted %d -> %d", before, got)
	}
	f.Drain()
}
