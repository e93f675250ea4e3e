package fuzzer

import (
	"errors"

	"cms/internal/cms"
	"cms/internal/dev"
	"cms/internal/snapshot"
)

// The checkpoint/restore oracle leg: run a program to a seed-derived commit
// boundary, snapshot the VM, restore the snapshot into a completely fresh
// engine, and finish the run there. The combined outcome — architectural
// state AND simulated Metrics — must be bit-identical to the uninterrupted
// run of the same configuration. That is the snapshot subsystem's whole
// contract, and it must hold at arbitrary boundaries, with warm or cold
// shared stores, mid-chain (a parked resume point), and under fault
// injection.

// snapCancelQuantum is deliberately tiny so the watchdog poll lands close
// to the requested retirement target and checkpoint boundaries vary finely
// across seeds (the default quantum would quantize them to 4096-instruction
// steps).
const snapCancelQuantum = 257

// snapTarget picks the retirement count to checkpoint at: a seed-dependent
// fraction of the uninterrupted run's total, so across seeds checkpoints
// land early, late, and (for salt variants) at several points of the same
// program.
func snapTarget(total, seed uint64) uint64 {
	if total == 0 {
		return 1
	}
	t := 1 + total*(1+seed%7)/9
	if t > total {
		t = total
	}
	return t
}

// runSnapshotted executes p under cfg until the target retirement count,
// checkpoints through the full encode/decode envelope, restores into a
// fresh engine (restoreMod may retarget the restore configuration — e.g.
// swap in a cold shared store), and runs the restored engine to completion.
// capSched/resSched, when non-nil, arm fault injection: capSched drives the
// captured run, resSched (same seed, fresh state) is fast-forwarded from
// the snapshot and drives the rest.
func runSnapshotted(p *Program, name string, cfg cms.Config, target uint64,
	restoreMod func(*cms.Config), capSched, resSched *Schedule) *State {

	plat := dev.NewPlatform(p.RAM, nil)
	plat.Bus.WriteRaw(p.Org, p.Image)
	runCfg := cfg
	if capSched != nil {
		runCfg.Injector = capSched
		plat.Bus.ForceProtHit = capSched.ForceProtHit
	}
	runCfg.CancelQuantum = snapCancelQuantum
	var eng *cms.Engine
	runCfg.Cancel = func() bool { return eng.Metrics.GuestTotal() >= target }
	eng = cms.New(plat, p.Entry, runCfg)
	err := eng.Run(p.Budget)
	if err != nil && !errors.Is(err, cms.ErrCancelled) {
		// The run ended (error or budget) before the checkpoint fired;
		// nothing left to resume. Capture as-is — budget states are
		// filtered by the oracle, errors must match the baseline anyway.
		return Capture(name, eng, plat, err)
	}

	blob, serr := snapshot.Save(eng)
	if serr != nil {
		return &State{Name: name, Err: "snapshot save: " + serr.Error()}
	}
	restCfg := cfg
	restCfg.Cancel = nil
	if resSched != nil {
		restCfg.Injector = resSched
	}
	if restoreMod != nil {
		restoreMod(&restCfg)
	}
	e2, lerr := snapshot.Load(blob, restCfg)
	if lerr != nil {
		return &State{Name: name, Err: "snapshot load: " + lerr.Error()}
	}
	if resSched != nil {
		e2.Plat.Bus.ForceProtHit = resSched.ForceProtHit
	}
	return Capture(name, e2, e2.Plat, e2.Run(p.Budget))
}
