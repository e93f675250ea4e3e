package fuzzer

import (
	"fmt"
	"strings"

	"cms/internal/cms"
	"cms/internal/tcache"
)

// The differential oracle runs one generated program through every
// execution configuration of the engine and compares outcomes.
//
// Architectural state — registers, flags, halt/error status, console and
// MMIO output, and the full RAM image — must be byte-identical across ALL
// configurations: that is the paper's correctness contract, and the guest
// has no way to tell which engine ran it.
//
// Metrics are compared within equivalence classes, matching the contracts
// the engine actually makes:
//
//   - sync class {xlate, compiled, risc, sharedA, sharedB}: the compiled
//     backend, the risc register-IR backend, and the shared store are pure
//     wall-clock optimizations, so the full Metrics struct and cache
//     statistics are identical.
//   - interp: pure interpretation retires through a different cost model
//     entirely; only its architectural state is compared.
//
// Fault-injected runs perturb Metrics by design, so they participate only
// in the architectural comparison.

// OracleConfig returns the engine configuration the oracle varies. The hot
// threshold is dropped so the generator's 24-trip outer loop pushes every
// fragment through profile → translate → chain quickly.
func OracleConfig() cms.Config {
	c := cms.DefaultConfig()
	c.HotThreshold = 10
	return c
}

// Divergence describes an oracle failure: which two configurations
// disagreed about what.
type Divergence struct {
	Seed   uint64
	Field  string // "arch" or "metrics"
	A, B   string // configuration names
	Detail string
}

func (d *Divergence) Error() string {
	return fmt.Sprintf("seed %#x: %s divergence between %s and %s: %s",
		d.Seed, d.Field, d.A, d.B, d.Detail)
}

// CheckOptions tunes one oracle invocation.
type CheckOptions struct {
	// Inject adds fault-injection runs (arch-state comparison only).
	Inject bool
	// Mutate, when non-nil, is applied to every captured State before
	// comparison. It exists so tests can plant a synthetic semantics bug
	// and prove the oracle catches it and the shrinker reduces it; it has
	// no production use.
	Mutate func(st *State)
}

// CheckProgram runs p through the full configuration matrix and returns the
// first divergence, or nil if every comparison passed.
//
// Runs that exhaust the instruction budget return no verdict (nil): budget
// exhaustion is checked at dispatch boundaries, which fall at different
// retirement counts per configuration, so final states are incomparable.
// Pristine generated programs always halt well inside the budget (the
// generator tests assert this); only degenerate shrink candidates get here.
func CheckProgram(p *Program, opts CheckOptions) *Divergence {
	base := OracleConfig()

	run := func(name string, mod func(*cms.Config), sched *Schedule) *State {
		cfg := base
		if mod != nil {
			mod(&cfg)
		}
		st := RunProgram(p, name, cfg, sched)
		if opts.Mutate != nil {
			opts.Mutate(st)
		}
		return st
	}

	interp := run("interp", func(c *cms.Config) { c.NoTranslate = true }, nil)
	xlate := run("xlate", func(c *cms.Config) { c.EnableCompiledBackend = false }, nil)
	compiled := run("compiled", nil, nil)
	// Ninth leg: the risc register-IR backend with lazy EFLAGS
	// materialization. Structurally the furthest configuration from the
	// interpreter, held to the same contract on both axes.
	riscBackend := func(c *cms.Config) { c.Backend = "risc" }
	riscRun := run("risc", riscBackend, nil)
	// One store across the shared legs: the second run is served from the
	// first's artifacts and must stay as invisible as the store itself.
	store := tcache.NewShared(0)
	shared := func(c *cms.Config) { c.SharedStore = store }
	sharedA := run("sharedA", shared, nil)
	sharedB := run("sharedB", shared, nil)

	all := []*State{interp, xlate, compiled, riscRun, sharedA, sharedB}
	var injXlate, snapInj *State
	if opts.Inject {
		injXlate = run("inj-xlate", func(c *cms.Config) { c.EnableCompiledBackend = false }, NewSchedule(p.Seed))
		all = append(all,
			injXlate,
			run("inj-compiled", nil, NewSchedule(p.Seed^0xA5A5)),
			// Injected rollbacks through the risc executor: every fault
			// class must discard its lazy flag images with the rest of the
			// speculative state.
			run("inj-risc", riscBackend, NewSchedule(p.Seed^0x5A5A)),
			// Injected evictions against the warm shared store: forced
			// invalidations make the VM re-request regions the store still
			// holds, so the hit path runs mid-schedule and must stay
			// architecturally invisible.
			run("inj-shared", shared, NewSchedule(p.Seed^0x3C3C)),
		)
	}

	// Checkpoint/restore legs (see snapleg.go): run to a seed-derived commit
	// boundary, snapshot through the full encode/decode envelope, restore
	// into a fresh engine, and finish there. The combined run joins both the
	// architectural comparison and its configuration's metrics class —
	// snapshotting must be invisible on every axis.
	total := compiled.Metrics.GuestTotal()
	snapLeg := func(name string, mod func(*cms.Config), salt uint64,
		restoreMod func(*cms.Config), capSched, resSched *Schedule) *State {
		cfg := base
		if mod != nil {
			mod(&cfg)
		}
		st := runSnapshotted(p, name, cfg, snapTarget(total, p.Seed^salt), restoreMod, capSched, resSched)
		if opts.Mutate != nil {
			opts.Mutate(st)
		}
		return st
	}
	snapCompiled := snapLeg("snap-compiled", nil, 0, nil, nil, nil)
	// Warm store: both halves share the store the earlier shared legs
	// populated, so rehydration is pure content lookup.
	snapWarm := snapLeg("snap-shared-warm", shared, 1, nil, nil, nil)
	// Cold store: the restore half gets an empty store, so every cached
	// translation is deterministically re-translated at rehydration.
	snapCold := snapLeg("snap-shared-cold", shared, 2,
		func(c *cms.Config) { c.SharedStore = tcache.NewShared(0) }, nil, nil)
	// Random-boundary snapshot under the risc backend, against the store
	// the vliw shared legs already warmed: the capture half populates
	// risc-tagged keys beside the vliw-tagged ones, and the restore half
	// must rehydrate strictly from its own backend's entries — the
	// content keys keep the backends apart in a mixed store.
	snapRisc := snapLeg("snap-risc", func(c *cms.Config) { shared(c); riscBackend(c) }, 5, nil, nil, nil)
	all = append(all, snapCompiled, snapWarm, snapCold, snapRisc)
	if opts.Inject {
		// Fault injection across a checkpoint: the schedule state rides the
		// snapshot, so the restored run's injections continue exactly where
		// the captured run's stopped.
		snapInj = snapLeg("snap-inj", func(c *cms.Config) { c.EnableCompiledBackend = false }, 4,
			nil, NewSchedule(p.Seed), NewSchedule(p.Seed))
		all = append(all, snapInj)
	}

	for _, st := range all {
		if strings.Contains(st.Err, "budget exhausted") {
			return nil
		}
	}

	for _, st := range all[1:] {
		if d := DiffArch(interp, st); d != "" {
			return &Divergence{Seed: p.Seed, Field: "arch", A: interp.Name, B: st.Name, Detail: d}
		}
	}
	for _, st := range []*State{compiled, riscRun, sharedA, sharedB, snapCompiled, snapWarm, snapCold, snapRisc} {
		if d := DiffMetrics(xlate, st); d != "" {
			return &Divergence{Seed: p.Seed, Field: "metrics", A: xlate.Name, B: st.Name, Detail: d}
		}
	}
	if opts.Inject {
		if d := DiffMetrics(injXlate, snapInj); d != "" {
			return &Divergence{Seed: p.Seed, Field: "metrics", A: injXlate.Name, B: snapInj.Name, Detail: d}
		}
	}
	return nil
}

// CheckSeed generates the program for seed and runs the oracle on it.
func CheckSeed(seed uint64, cfg GenConfig, opts CheckOptions) (*Program, *Divergence) {
	p, err := Build(seed, cfg, nil)
	if err != nil {
		// Pristine generation can never produce an invalid program; a link
		// failure is a generator bug and must surface loudly.
		panic(err)
	}
	return p, CheckProgram(p, opts)
}
