// Package incident is the farm's flight recorder: every failed job —
// watchdog timeout, host panic, or engine error — is written out as a small
// JSON bundle carrying everything needed to re-run that exact engine
// execution solo and bit-exactly: the job's program (workload name or raw
// source), its budget, the fault-injection schedule seed, the full engine
// configuration of the failing attempt, and a SHA-256 of the architectural
// state at the point of failure. `cmsfuzz -replay <bundle>` rebuilds the run
// and verifies both the failure mode and the state hash, so a crash observed
// once under 200-way concurrent chaos load is debuggable at a desk with a
// single deterministic process.
//
// Replayability leans on the repo's determinism contract: simulated Metrics
// and architectural state are independent of the shared store and the wall
// clock, so a solo replay without a store reproduces a farm
// failure. The one wall-clock-shaped event — a watchdog timeout — is made
// deterministic by recording the retired-instruction count at the
// cancellation boundary and replaying with that count as the budget: the
// engine's cancel polls fire only at boundaries the budget check also
// visits, so both runs stop at the same committed boundary with identical
// architectural state.
//
// Bundles from attempts that resumed a checkpoint additionally embed the
// snapshot envelope (internal/snapshot): replay then restores the machine
// from the checkpoint and runs only the failing tail, so an incident hours
// into a long-running VM reproduces in the time since its last checkpoint.
package incident

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"cms/internal/asm"
	"cms/internal/cms"
	"cms/internal/dev"
	"cms/internal/fuzzer"
	"cms/internal/guest"
	"cms/internal/snapshot"
	"cms/internal/workload"
)

// Failure kinds. A bundle's Kind selects what Replay asserts: panics must
// reproduce the identical panic message, errors the identical error string,
// and timeouts the identical committed boundary; all three must reproduce
// the architectural state hash.
const (
	KindPanic   = "panic"
	KindTimeout = "timeout"
	KindError   = "error"
)

// Bundle is one captured failure. Bundles are plain JSON files whose first
// byte is '{' — that is how cmsfuzz tells them apart from the fuzzer's text
// reproducers on the same -replay flag.
type Bundle struct {
	Version int    `json:"version"`
	Job     string `json:"job"`            // farm job id ("" for solo runs)
	Time    string `json:"time,omitempty"` // RFC3339 capture time, informational
	Attempt int    `json:"attempt"`        // 0 = first try, 1 = rung-demoted retry
	Rung    string `json:"rung"`           // "full" | "nocompile" | "interp"

	Kind  string `json:"kind"` // KindPanic | KindTimeout | KindError
	Error string `json:"error"`
	// Stack is the host goroutine stack at a panic — for humans; Replay
	// compares the panic message, not the stack.
	Stack string `json:"stack,omitempty"`

	// The job's program: exactly one of Workload/Source, as in farm.JobSpec.
	Workload string `json:"workload,omitempty"`
	Source   string `json:"source,omitempty"`
	// Budget is the resolved guest-instruction budget the attempt ran with.
	Budget uint64 `json:"budget"`
	// DeadlineMs is the wall-clock deadline that was armed, informational.
	DeadlineMs int64 `json:"deadline_ms,omitempty"`

	// Fault-injection schedule, when the job armed one (chaos jobs).
	InjectSeed  uint64 `json:"inject_seed,omitempty"`
	ChaosPanics bool   `json:"chaos_panics,omitempty"` // schedule was NewChaosSchedule

	// Retired is GuestTotal at the failure boundary. For timeouts it is the
	// replay budget (see the package comment); for panics and errors it is
	// informational.
	Retired uint64 `json:"retired,omitempty"`

	// ArchSHA hashes the architectural state at the failure point (StateHash);
	// ImageSHA hashes the built guest image, so a drifted workload builder or
	// assembler fails the replay loudly instead of silently diverging.
	// ImageSHA is empty when the attempt resumed a Snapshot (no image was
	// built — the envelope carries, and self-checks, the whole machine).
	ArchSHA  string `json:"arch_sha"`
	ImageSHA string `json:"image_sha,omitempty"`

	// Snapshot, when present, is the checkpoint envelope the failing attempt
	// resumed from (base64 in the JSON). Replay then restores the machine
	// from it instead of rebuilding the image and replaying from boot, so a
	// failure deep into a long run reproduces from the last checkpoint —
	// the deterministic record-replay path. Budget and Retired stay valid
	// either way: both count cumulative retirement from the original boot.
	Snapshot []byte `json:"snapshot,omitempty"`

	// Engine is the failing attempt's engine configuration; replay runs
	// without the farm's shared store, which is outside the determinism
	// contract.
	Engine cms.Config `json:"engine"`
}

// StateHash digests everything the guest can observe — registers, EIP,
// flags, halt state, console output, and the full RAM image — into a hex
// SHA-256. The farm hashes the engine at the failure boundary; Replay hashes
// the rebuilt run and compares.
func StateHash(e *cms.Engine, plat *dev.Platform) string {
	cpu := e.CPU()
	h := sha256.New()
	var w [4]byte
	for _, r := range cpu.Regs {
		binary.LittleEndian.PutUint32(w[:], r)
		h.Write(w[:])
	}
	binary.LittleEndian.PutUint32(w[:], cpu.EIP)
	h.Write(w[:])
	binary.LittleEndian.PutUint32(w[:], cpu.Flags)
	h.Write(w[:])
	if cpu.Halted {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
	h.Write([]byte(plat.Console.OutputString()))
	h.Write(plat.Bus.ReadRaw(0, int(plat.Bus.RAMSize())))
	return hex.EncodeToString(h.Sum(nil))
}

// ImageHash digests a built guest image and its placement. The farm records
// it at capture time; Replay recomputes it from the rebuilt image so builder
// or assembler drift fails loudly.
func ImageHash(org, entry, ram uint32, data, disk []byte) string {
	h := sha256.New()
	var w [4]byte
	for _, v := range [...]uint32{org, entry, ram} {
		binary.LittleEndian.PutUint32(w[:], v)
		h.Write(w[:])
	}
	h.Write(data)
	h.Write(disk)
	return hex.EncodeToString(h.Sum(nil))
}

// Write serializes the bundle to path (indented JSON, first byte '{').
func (b *Bundle) Write(path string) error {
	if b.Version == 0 {
		b.Version = 1
	}
	out, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// Load reads a bundle from path.
func Load(path string) (*Bundle, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Bundle
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("incident: %s: %w", path, err)
	}
	if b.Kind == "" {
		return nil, fmt.Errorf("incident: %s: missing kind", path)
	}
	var legacy struct {
		Engine struct {
			PipelineWorkers int `json:"pipeline_workers"`
		} `json:"engine"`
	}
	if json.Unmarshal(raw, &legacy) == nil && legacy.Engine.PipelineWorkers > 0 {
		return nil, fmt.Errorf("incident: %s: %w", path, ErrPipelineBundle)
	}
	return &b, nil
}

// ErrPipelineBundle refuses a bundle recorded by an engine that ran the
// since-removed concurrent translation pipeline (engine.pipeline_workers
// > 0). That engine installed translations at simulated due times the
// current one does not model, so a replay would diverge for that reason
// alone and misreport the failure as not reproducing.
var ErrPipelineBundle = errors.New("incident: bundle was recorded with pipeline_workers > 0; the translation pipeline is gone and the run cannot be replayed")

// IsBundle reports whether the file at path looks like an incident bundle
// (JSON object) rather than a text fuzzer reproducer.
func IsBundle(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	var first [1]byte
	if _, err := f.Read(first[:]); err != nil {
		return false
	}
	return first[0] == '{'
}

// BuildImage is the one job→image rule: what the farm boots a job from and
// what Replay rebuilds a bundle from, so a replay cannot drift from the run
// that failed. A named workload brings its own placement and budget; a g86
// source program is assembled into 2 MiB of RAM with the stack (stackTop,
// the initial ESP; 0 leaves the engine's default) at its middle, and Budget 0
// — the caller's default applies.
func BuildImage(workloadName, source string) (img *workload.Image, stackTop uint32, err error) {
	switch {
	case workloadName != "":
		w, err := workload.ByName(workloadName)
		if err != nil {
			return nil, 0, err
		}
		return w.Build(), 0, nil
	case source != "":
		prog, err := asm.Assemble(source)
		if err != nil {
			return nil, 0, err
		}
		const ram = 1 << 21
		return &workload.Image{Org: prog.Org, Data: prog.Image, Entry: prog.Entry(), RAM: ram}, ram / 2, nil
	default:
		return nil, 0, errors.New("incident: neither workload nor source")
	}
}

// Schedule is the fault-injection schedule a job spec or bundle names: nil
// for seed 0, else the seed's deterministic schedule, with injected host
// panics on top when chaosPanics is set.
func Schedule(seed uint64, chaosPanics bool) *fuzzer.Schedule {
	switch {
	case seed == 0:
		return nil
	case chaosPanics:
		return fuzzer.NewChaosSchedule(seed)
	default:
		return fuzzer.NewSchedule(seed)
	}
}

// Replay re-runs the failing attempt solo and verifies it reproduces the
// recorded failure bit-exactly: same failure kind, same panic/error message
// (panics and errors), and same architectural state hash. It returns nil
// when the incident reproduced and a descriptive error otherwise.
func Replay(b *Bundle) error {
	cfg := b.Engine
	sched := Schedule(b.InjectSeed, b.ChaosPanics)
	if sched != nil {
		cfg.Injector = sched
	}

	var (
		e    *cms.Engine
		plat *dev.Platform
	)
	if len(b.Snapshot) > 0 {
		// Record-replay: resume from the last checkpoint instead of booting.
		// The envelope is self-checking, and cumulative budgets mean the
		// failure boundary lands at the same absolute retirement count.
		re, err := snapshot.Load(b.Snapshot, cfg)
		if err != nil {
			return fmt.Errorf("incident: restoring checkpoint: %w", err)
		}
		e, plat = re, re.Plat
		if sched != nil {
			// snapshot.Load fast-forwarded the schedule; the bus hook must
			// point at it too.
			plat.Bus.ForceProtHit = sched.ForceProtHit
		}
	} else {
		img, stackTop, err := BuildImage(b.Workload, b.Source)
		if err != nil {
			return fmt.Errorf("incident: rebuild image: %w", err)
		}
		if b.ImageSHA != "" {
			if got := ImageHash(img.Org, img.Entry, img.RAM, img.Data, img.Disk); got != b.ImageSHA {
				return fmt.Errorf("incident: rebuilt image hash %s != recorded %s (builder drifted?)", short(got), short(b.ImageSHA))
			}
		}
		plat = dev.NewPlatform(img.RAM, img.Disk)
		plat.Bus.WriteRaw(img.Org, img.Data)
		if sched != nil {
			plat.Bus.ForceProtHit = sched.ForceProtHit
		}
		e = cms.New(plat, img.Entry, cfg)
		if stackTop != 0 {
			e.CPU().Regs[guest.ESP] = stackTop
		}
	}

	budget := b.Budget
	if b.Kind == KindTimeout {
		// Replay the wall-clock cancellation as a deterministic budget stop
		// at the same committed boundary (see the package comment).
		budget = b.Retired
	}

	var runErr error
	panicked := false
	panicMsg := ""
	func() {
		defer func() {
			if r := recover(); r != nil {
				panicked = true
				panicMsg = fmt.Sprintf("panic: %v", r)
			}
		}()
		runErr = e.Run(budget)
	}()
	gotSHA := StateHash(e, plat)

	switch b.Kind {
	case KindPanic:
		if !panicked {
			return fmt.Errorf("incident: expected %q, run finished with err=%v", b.Error, runErr)
		}
		if panicMsg != b.Error {
			return fmt.Errorf("incident: panic message mismatch:\n  recorded %q\n  replayed %q", b.Error, panicMsg)
		}
	case KindTimeout:
		if panicked {
			return fmt.Errorf("incident: expected budget stop at %d insns, got %s", b.Retired, panicMsg)
		}
		if runErr != nil && !errors.Is(runErr, cms.ErrBudget) {
			return fmt.Errorf("incident: expected budget stop at %d insns, got error %v", b.Retired, runErr)
		}
	case KindError:
		if panicked {
			return fmt.Errorf("incident: expected error %q, got %s", b.Error, panicMsg)
		}
		if runErr == nil || runErr.Error() != b.Error {
			return fmt.Errorf("incident: error mismatch:\n  recorded %q\n  replayed %v", b.Error, runErr)
		}
	default:
		return fmt.Errorf("incident: unknown kind %q", b.Kind)
	}

	if b.ArchSHA != "" && gotSHA != b.ArchSHA {
		return fmt.Errorf("incident: architectural state hash mismatch: recorded %s, replayed %s", short(b.ArchSHA), short(gotSHA))
	}
	return nil
}

// short truncates a hash for error messages without assuming it is
// well-formed (bundles are user-editable JSON).
func short(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}

// Timestamp formats t for Bundle.Time.
func Timestamp(t time.Time) string { return t.UTC().Format(time.RFC3339Nano) }
