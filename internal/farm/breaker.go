package farm

import "sync/atomic"

// breaker is the farm's admission circuit breaker: a fixed ring of recent
// job outcomes, entirely atomic so the Submit hot path never takes a lock
// (the farm's lock-layout contract). When the ring is full and at least half
// its outcomes are failures or timeouts, the breaker opens and Submit sheds
// load with ErrBreakerOpen — distinct from ErrQueueFull backpressure: the
// queue may be empty, the farm is just hurting. While open, every
// breakerProbe-th submission is still admitted; the first success recorded
// (a probe, or a still-draining queued job) closes the breaker and forgives
// the window, so a transient failure storm self-heals without operator
// action.
//
// The ring is deliberately approximate under concurrency: slots are written
// racily relative to the open/closed decision, so the breaker may open one
// outcome late or admit one extra probe. That slack is fine for load
// shedding and buys a zero-lock Submit path.
type breaker struct {
	slots  []atomic.Uint32 // 0 = empty, 1 = ok, 2 = failed
	pos    atomic.Uint64
	open   atomic.Bool
	probes atomic.Uint64
	shed   atomic.Uint64
}

// breakerWindow is how many recent outcomes the ring holds; breakerProbe is
// the probe admission period while the breaker is open.
const (
	breakerWindow = 32
	breakerProbe  = 8
)

// init sizes the ring to window outcomes. An empty ring disables the
// breaker, which only tests ask for.
func (b *breaker) init(window int) { b.slots = make([]atomic.Uint32, window) }

// admit reports whether a submission may proceed. Closed (or disabled)
// breaker: always. Open: only every probe-th caller.
func (b *breaker) admit() bool {
	if len(b.slots) == 0 || !b.open.Load() {
		return true
	}
	if b.probes.Add(1)%breakerProbe == 0 {
		return true
	}
	b.shed.Add(1)
	return false
}

// record folds one terminal job outcome into the ring and re-evaluates the
// breaker state: failures can open it, any success closes it.
func (b *breaker) record(failed bool) {
	if len(b.slots) == 0 {
		return
	}
	i := b.pos.Add(1) - 1
	v := uint32(1)
	if failed {
		v = 2
	}
	b.slots[i%uint64(len(b.slots))].Store(v)
	if failed {
		full, fails := b.counts()
		if full && fails*2 >= len(b.slots) {
			b.open.Store(true)
		}
		return
	}
	if b.open.Load() {
		// Health is back: close and forgive the window, or the lingering
		// failures would re-open the breaker on the next blip.
		b.open.Store(false)
		for i := range b.slots {
			b.slots[i].Store(0)
		}
	}
}

// counts scans the ring: whether every slot holds an outcome, and how many
// are failures.
func (b *breaker) counts() (full bool, fails int) {
	full = true
	for i := range b.slots {
		switch b.slots[i].Load() {
		case 0:
			full = false
		case 2:
			fails++
		}
	}
	return full, fails
}

func (b *breaker) isOpen() bool      { return b.open.Load() }
func (b *breaker) shedCount() uint64 { return b.shed.Load() }
