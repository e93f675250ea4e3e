package cms

import (
	"errors"
	"fmt"

	"cms/internal/tcache"
	"cms/internal/xlate"
)

// The engine side of the concurrent translation pipeline.
//
// Determinism is the whole design problem here: the paper's Metrics are a
// simulated cost model, and they must not depend on how many host cores ran
// the translator or how fast they were. The discipline (after Flückiger et
// al.'s treatment of speculative installs) is:
//
//   - The front end (region selection + source capture) runs synchronously
//     on the engine thread, so every input to translation is frozen at a
//     well-defined simulated instant.
//   - Workers compute a pure function of that frozen request.
//   - The engine observes results only at a simulated due time —
//     submission's GuestTotal plus PipelineLatency — blocking at the first
//     dispatch boundary past the deadline if the worker hasn't finished.
//     Worker speed moves wall-clock time, never simulated time.
//   - At install, the translation's source snapshot is re-verified against
//     live memory; if the guest rewrote the bytes while translation was in
//     flight, the result is dropped (PipelineStale) rather than installed,
//     preserving the SMC guarantees.

// pending is one in-flight translation, queued in submission order.
// Due times are nondecreasing along the queue, so draining the head first
// installs strictly in submission order.
type pending struct {
	entry uint32
	due   uint64 // GuestTotal at which the result becomes observable
	pr    *xlate.PipeRequest
}

// savedPending is one undelivered submission preserved across a cancelled
// Run: the frozen request and its original due time. A snapshot serializes
// these (as request images) so a restored run can resubmit them and observe
// the results exactly when the uninterrupted run would have.
type savedPending struct {
	entry uint32
	due   uint64
	req   *xlate.Request
}

// startPipeline brings the worker pool up for one Run. Workers run produce,
// the same step the synchronous path runs inline; the engine-side install
// flow (due times, stale checks, metric charges) does not depend on whether
// a shared store is behind it, so the store moves wall clock only.
func (e *Engine) startPipeline() {
	e.pipe = xlate.NewPipeline(e.Cfg.PipelineWorkers, e.Cfg.PipelineDepth, func(req *xlate.Request) (*xlate.Translation, error) {
		return e.produce(req, (*tcache.SharedStore).Translate)
	})
	e.inflight = make(map[uint32]bool)
	// Resubmit the queue a cancelled Run (or a snapshot restore) carried
	// over: original due times, no fresh PipelineSubmits charges — the
	// submissions were already charged when they first happened, and the
	// restored run must observe the results at the same simulated instants
	// the uninterrupted run would have.
	for _, sp := range e.savedPend {
		e.pendq = append(e.pendq, pending{entry: sp.entry, due: sp.due, pr: e.pipe.Submit(sp.req)})
		e.inflight[sp.entry] = true
	}
	e.savedPend = nil
}

// stopPipeline tears the pool down at Run exit. Normally undelivered
// results are discarded (their sites simply get resubmitted if they are
// still hot on a later Run — a deterministic outcome, since Run boundaries
// are); a cancelled run instead keeps the frozen requests and due times so
// a checkpoint can carry the in-flight queue across a restore.
func (e *Engine) stopPipeline() {
	e.pipe.Stop()
	if errors.Is(e.err, ErrCancelled) {
		for _, p := range e.pendq {
			e.savedPend = append(e.savedPend, savedPending{entry: p.entry, due: p.due, req: p.pr.Req})
		}
	}
	e.pipe = nil
	e.pendq = nil
	e.inflight = nil
}

// drainPipeline installs every pending translation whose due time has
// passed, in submission order, blocking on the worker if necessary.
func (e *Engine) drainPipeline() {
	for len(e.pendq) > 0 && e.Metrics.GuestTotal() >= e.pendq[0].due {
		p := e.pendq[0]
		e.pendq = e.pendq[1:]
		e.installPending(p)
		if e.err != nil {
			return
		}
	}
}

// submitTranslation is the pipelined counterpart of translateAt: prepare
// runs here (group reuse is a snapshot comparison, not translator work, and
// region capture must see the bus at this simulated instant), produce runs on
// a worker. It returns a non-nil entry only on immediate group reinstall.
func (e *Engine) submitTranslation(eip uint32) *tcache.Entry {
	if e.inflight[eip] || len(e.pendq) >= e.Cfg.PipelineDepth {
		return nil
	}
	ent, req := e.prepare(eip)
	if req == nil {
		return ent
	}
	e.Metrics.PipelineSubmits++
	e.trace(EvTranslate, eip, fmt.Sprintf("submitted, %d insns", req.GuestLen()))
	e.pendq = append(e.pendq, pending{
		entry: eip,
		due:   e.Metrics.GuestTotal() + e.Cfg.PipelineLatency,
		pr:    e.pipe.Submit(req),
	})
	e.inflight[eip] = true
	return nil
}

// installPending collects one finished translation and installs it, unless
// its source bytes changed while it was in flight.
func (e *Engine) installPending(p pending) {
	t, err := p.pr.Wait()
	delete(e.inflight, p.entry)
	if err != nil {
		e.translationFailed(p.entry, err)
		return
	}
	if !t.SourceMatches(e.Plat.Bus) {
		// The guest rewrote the region between capture and install. The
		// translation is correct for bytes that no longer exist; drop it.
		// If the site stays hot it will be resubmitted against the new
		// bytes (and the SMC machinery escalates policy as usual).
		e.Metrics.PipelineStale++
		e.trace(EvTranslate, p.entry, "stale: dropped before install")
		return
	}
	e.Metrics.PipelineInstalls++
	e.install(p.entry, t)
}
