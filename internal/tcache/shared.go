package tcache

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cms/internal/xlate"
)

// SharedStore is the farm-wide content-addressed translation store: the
// memoization table that lets N independent guest VMs share translation and
// compilation work. Entries are keyed by xlate.Key — the content hash of a
// frozen request (source bytes, trace, policy rung, MMIO bits, host) — so
// identical hot regions across VMs translate once, the way an inference
// server shares compiled kernels across requests.
//
// Safety model (docs/SERVING.md): stored artifacts are frozen. They are
// never installed into a VM's translation cache directly — every install
// clones (xlate.Translation.Clone), so per-VM mutable state (prologue memo,
// compiled-code teardown) never touches the shared object, and the compiled
// closures themselves are VM-state-free (they take the executing Machine as
// a parameter). The store affects only wall-clock time: on a hit the VM is
// handed the byte-identical translation it would have produced itself, and
// it charges the same simulated translation cost either way, so per-VM
// Metrics and final guest state are bit-identical to a solo run.
//
// Concurrency model: one mutex guards the entry map, both segments, the
// ghost ring, the in-flight table, the poison map and the atom budget. The
// SHA-256 content key — most of a lookup's cost — is computed before the
// lock is taken, and a hit holds the lock only for the map probe and the
// LRU touch. Event counters are atomics, so counting never extends a
// critical section.
//
// Concurrent misses on the same key are single-flighted: the first VM
// translates, later VMs wait for its result rather than duplicating the
// work.
//
// Admission (after S3-FIFO's small and ghost queues, Yang et al., SOSP
// 2023): a translation repays its memory only when its region runs again, so
// an artifact outlives a short probation only if it is requested a second
// time. A first miss lands in a probation FIFO of probationCap artifacts. A
// hit there, or a translation other VMs waited on, promotes the artifact to
// the LRU. When the FIFO overflows, its oldest artifact is dropped and its
// key kept in a ghost ring of ghostCap keys; a later miss on a ghost key
// enters the LRU directly. Capacity is one atom budget over both segments;
// over budget, probation's oldest artifacts go first, then the LRU's. Every
// one of these decisions is wall-clock-only: a dropped region simply
// translates again on its next miss.
type SharedStore struct {
	hits        atomic.Uint64
	waits       atomic.Uint64
	misses      atomic.Uint64
	evictions   atomic.Uint64
	promotions  atomic.Uint64
	ghostAdmits atomic.Uint64
	poisons     atomic.Uint64
	poisonHits  atomic.Uint64

	// Rehydration traffic: Translate calls made on behalf of a snapshot
	// restore, counted separately so operators can see how much of a
	// restored VM's translation set was served warm.
	rehydrateHits   atomic.Uint64
	rehydrateMisses atomic.Uint64

	mu sync.Mutex
	// entries holds both segments; each entry's elem sits in lru or in
	// probation, as its probation flag says.
	entries   map[xlate.Key]*sharedEntry
	lru       *list.List // front = most recently used; values are *sharedEntry
	probation *list.List // front = newest first miss; values are *sharedEntry
	inflight  map[xlate.Key]*flight
	// ghost maps each key dropped from probation to its slot in ghostRing,
	// which holds the last ghostCap of them in drop order; ghostNext is the
	// oldest slot once the ring is full. A slot whose key has since been
	// admitted, or dropped again into a newer slot, is stale.
	ghost     map[xlate.Key]int
	ghostRing []xlate.Key
	ghostNext int
	// poison quarantines keys until the stored deadline: lookups for a
	// poisoned key bypass the cache AND the single-flight table, so every VM
	// translates privately and a bad shared artifact cannot cascade. Expired
	// deadlines are reaped lazily on lookup and in Stats.
	poison    map[xlate.Key]time.Time
	poisonTTL time.Duration
	capAtoms  int
	curAtoms  int
}

// DefaultSharedCapAtoms is the default shared-store budget: a few VM-caches
// worth of code, since the store backs many VMs at once.
const DefaultSharedCapAtoms = 4 << 20

// probationCap is how many first-miss artifacts wait for a second request.
// On cmsperf's farm_mix (seed 1) each of the 182 shared keys was requested
// again within 123 probation insertions of its first miss (p50 52, p99 113),
// while one-off source jobs add about 320 artifacts a lap: 256 keeps the
// first with room to spare and bounds the second.
const probationCap = 256

// ghostCap is how many keys dropped from probation are remembered, so a
// region whose reuse distance outgrew the FIFO is admitted on its next miss.
// A key costs about 50 bytes of ring and map.
const ghostCap = 4096

// poisonTTL is how long a poisoned key stays quarantined. Long enough that a
// misbehaving artifact cannot flap back into every VM, short enough that a
// transient host problem (a since-fixed bug, a freak allocation failure)
// does not permanently degrade a hot region to private translation.
const poisonTTL = 30 * time.Second

type sharedEntry struct {
	key       xlate.Key
	t         *xlate.Translation
	atoms     int
	elem      *list.Element
	probation bool
}

// flight is one in-progress translation; later requesters for the same key
// block on done instead of re-translating. waited, guarded by the store
// lock, records that someone did, which is the second request that admits
// the artifact to the LRU.
type flight struct {
	done   chan struct{}
	t      *xlate.Translation
	err    error
	waited bool
}

// SharedStats counts store events. Hits are immediate cache hits; Waits are
// requests that piggybacked on another VM's in-flight translation (dedup
// hits too, but the requester paid the wall-clock wait); Misses ran the
// backend. The counters are atomics read without the store lock: each field
// is exact, but fields read while the store is under load may be skewed by
// in-flight requests (Hits+Waits+Misses always equals the number of
// Translate calls that have passed their counting point).
type SharedStats struct {
	Hits      uint64
	Waits     uint64
	Misses    uint64
	Evictions uint64 // artifacts dropped from either segment
	Entries   int    // artifacts resident, on probation or in the LRU
	Atoms     int    // their code atoms, counted against the one budget

	// Promotions counts artifacts admitted to the LRU by a second request
	// (a probation hit, or a translation another VM waited on); GhostAdmits
	// counts misses admitted straight to the LRU because probation had
	// dropped their key.
	Promotions  uint64
	GhostAdmits uint64

	// Poisons counts quarantine events (Poison calls plus backend panics
	// converted in place); PoisonHits counts lookups that bypassed the cache
	// because their key was quarantined; Poisoned is how many keys are
	// quarantined right now (TTL not yet expired).
	Poisons    uint64
	PoisonHits uint64
	Poisoned   int

	// RehydrateHits/RehydrateMisses count snapshot-restore traffic routed
	// through Rehydrate: hits were served from the store (instant reuse),
	// misses re-ran the deterministic backend. Both are also counted in
	// Hits/Waits/Misses above.
	RehydrateHits   uint64
	RehydrateMisses uint64
}

// DedupRatio returns the fraction of requests served without running the
// backend (hits + waits over all requests).
func (s SharedStats) DedupRatio() float64 {
	total := s.Hits + s.Waits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.Waits) / float64(total)
}

// NewShared returns an empty shared store holding at most capAtoms code
// atoms (0 = DefaultSharedCapAtoms).
func NewShared(capAtoms int) *SharedStore {
	if capAtoms <= 0 {
		capAtoms = DefaultSharedCapAtoms
	}
	return &SharedStore{
		entries:   make(map[xlate.Key]*sharedEntry),
		lru:       list.New(),
		probation: list.New(),
		inflight:  make(map[xlate.Key]*flight),
		ghost:     make(map[xlate.Key]int),
		poison:    make(map[xlate.Key]time.Time),
		poisonTTL: poisonTTL,
		capAtoms:  capAtoms,
	}
}

// Translate returns the translation for the frozen request, running the
// backend at most once per content key across all callers. hit reports
// whether the backend was skipped (cached or piggybacked on another VM's
// in-flight run). Errors are returned to every waiter and never cached —
// the next requester retries.
//
// The SHA-256 key is computed outside the lock; a hit costs one mutex
// acquisition for the LRU touch (or the promotion) plus one atomic increment.
func (s *SharedStore) Translate(req *xlate.Request) (t *xlate.Translation, hit bool, err error) {
	key := req.Key()
	s.mu.Lock()
	if until, bad := s.poison[key]; bad {
		if time.Now().Before(until) {
			// Quarantined: translate privately for this caller — no cache,
			// no single-flight — so a bad artifact (or a backend that panics
			// on this input) is contained to one VM at a time.
			s.mu.Unlock()
			s.poisonHits.Add(1)
			t, err = s.runBackend(key, req)
			return t, false, err
		}
		delete(s.poison, key) // TTL expired: the key rejoins normal sharing
	}
	if e := s.entries[key]; e != nil {
		if e.probation {
			s.promote(e)
		} else {
			s.lru.MoveToFront(e.elem)
		}
		s.mu.Unlock()
		s.hits.Add(1)
		return e.t, true, nil
	}
	if f := s.inflight[key]; f != nil {
		f.waited = true
		s.mu.Unlock()
		s.waits.Add(1)
		<-f.done
		return f.t, true, f.err
	}
	f := &flight{done: make(chan struct{})}
	s.inflight[key] = f
	s.mu.Unlock()
	s.misses.Add(1)

	f.t, f.err = s.runBackend(key, req)

	s.mu.Lock()
	delete(s.inflight, key)
	if f.err == nil {
		f.t.SharedKey = key
		f.t.HasSharedKey = true
		s.insert(key, f.t, f.waited)
	}
	s.mu.Unlock()
	close(f.done)
	return f.t, false, f.err
}

// runBackend runs the translation backend for one key, converting a panic
// into an error AND quarantining the key: the panic proves this content is
// dangerous to whoever translates it, so no other VM should be handed a
// shared artifact (or join a flight) for it until the TTL lapses. Waiters on
// an in-flight translation receive the error like any backend failure.
func (s *SharedStore) runBackend(key xlate.Key, req *xlate.Request) (t *xlate.Translation, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.Poison(key)
			t, err = nil, fmt.Errorf("tcache: translation backend panicked for key %s: %v", key, r)
		}
	}()
	return req.Translate()
}

// Rehydrate is Translate for snapshot restore: identical semantics, the
// admission policy included, but the request is additionally counted in the
// rehydration counters so the warm fraction of a restore is observable.
// Determinism is unaffected either way — a hit hands back the byte-identical
// artifact a miss would rebuild.
func (s *SharedStore) Rehydrate(req *xlate.Request) (t *xlate.Translation, hit bool, err error) {
	t, hit, err = s.Translate(req)
	if hit {
		s.rehydrateHits.Add(1)
	} else {
		s.rehydrateMisses.Add(1)
	}
	return t, hit, err
}

// Poison quarantines key for the store's poison TTL: the cached artifact, on
// probation or in the LRU, is dropped immediately and lookups bypass the
// store until the TTL expires. Poisoning is a wall-clock-only action — a VM
// that misses because of it re-translates and charges the same simulated
// cost — so callers may quarantine aggressively without perturbing Metrics.
func (s *SharedStore) Poison(key xlate.Key) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.entries[key]; e != nil {
		s.remove(e)
	}
	s.poison[key] = time.Now().Add(s.poisonTTL)
	s.poisons.Add(1)
}

// insert stores an artifact under key, on probation unless this is its
// second request (waited) or probation already dropped it once (a ghost
// key), and evicts to fit the budget: probation's oldest first, then the
// LRU's. Called with s.mu held. The newly inserted entry is always kept,
// even if it alone exceeds the budget — the budget bounds steady-state
// residency, not a single artifact.
func (s *SharedStore) insert(key xlate.Key, t *xlate.Translation, waited bool) {
	if s.entries[key] != nil {
		return // a concurrent producer won the race; keep its artifact
	}
	_, ghost := s.ghost[key]
	delete(s.ghost, key)
	atoms := t.CodeAtoms()
	for s.curAtoms+atoms > s.capAtoms && len(s.entries) > 0 {
		s.evictOldest()
	}
	e := &sharedEntry{key: key, t: t, atoms: atoms}
	s.entries[key] = e
	s.curAtoms += atoms
	switch {
	case waited:
		s.promotions.Add(1)
		e.elem = s.lru.PushFront(e)
	case ghost:
		s.ghostAdmits.Add(1)
		e.elem = s.lru.PushFront(e)
	default:
		e.probation = true
		e.elem = s.probation.PushFront(e)
		if s.probation.Len() > probationCap {
			s.evictOldest()
		}
	}
}

// promote moves a probation entry to the front of the LRU. Called with s.mu
// held.
func (s *SharedStore) promote(e *sharedEntry) {
	s.probation.Remove(e.elem)
	e.probation = false
	e.elem = s.lru.PushFront(e)
	s.promotions.Add(1)
}

// evictOldest drops probation's oldest artifact, keeping its key in the
// ghost ring, or the LRU's least recently used one when probation is empty.
// Called with s.mu held and at least one entry resident.
func (s *SharedStore) evictOldest() {
	if back := s.probation.Back(); back != nil {
		e := back.Value.(*sharedEntry)
		s.remove(e)
		s.addGhost(e.key)
		return
	}
	s.remove(s.lru.Back().Value.(*sharedEntry))
}

// addGhost remembers a key probation dropped, overwriting the oldest slot
// once the ring is full. Called with s.mu held.
func (s *SharedStore) addGhost(key xlate.Key) {
	if len(s.ghostRing) < ghostCap {
		s.ghost[key] = len(s.ghostRing)
		s.ghostRing = append(s.ghostRing, key)
		return
	}
	slot := s.ghostNext
	if old := s.ghostRing[slot]; s.ghost[old] == slot {
		delete(s.ghost, old)
	}
	s.ghostRing[slot] = key
	s.ghost[key] = slot
	s.ghostNext = (slot + 1) % ghostCap
}

// remove drops a resident entry from its segment and counts the eviction.
// Called with s.mu held.
func (s *SharedStore) remove(e *sharedEntry) {
	if e.probation {
		s.probation.Remove(e.elem)
	} else {
		s.lru.Remove(e.elem)
	}
	delete(s.entries, e.key)
	s.curAtoms -= e.atoms
	s.evictions.Add(1)
}

// Stats returns the store's counters and residency, reaping expired
// poison deadlines as it counts the live ones.
func (s *SharedStore) Stats() SharedStats {
	st := SharedStats{
		Hits:            s.hits.Load(),
		Waits:           s.waits.Load(),
		Misses:          s.misses.Load(),
		Evictions:       s.evictions.Load(),
		Promotions:      s.promotions.Load(),
		GhostAdmits:     s.ghostAdmits.Load(),
		Poisons:         s.poisons.Load(),
		PoisonHits:      s.poisonHits.Load(),
		RehydrateHits:   s.rehydrateHits.Load(),
		RehydrateMisses: s.rehydrateMisses.Load(),
	}
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	st.Entries = len(s.entries)
	st.Atoms = s.curAtoms
	for k, until := range s.poison {
		if now.Before(until) {
			st.Poisoned++
		} else {
			delete(s.poison, k)
		}
	}
	return st
}
