package tcache

import (
	"container/list"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cms/internal/asm"
	"cms/internal/interp"
	"cms/internal/mem"
	"cms/internal/xlate"
)

// sharedReq freezes a translation request for a small hot loop, with a
// distinguishing immediate so different programs hash differently.
func sharedReq(t testing.TB, imm int) *xlate.Request {
	t.Helper()
	prog, err := asm.Assemble(`
.org 0x1000
_start:
	mov ecx, ` + itoa(imm) + `
loop:
	add eax, ecx
	dec ecx
	jne loop
	hlt
`)
	if err != nil {
		t.Fatal(err)
	}
	bus := mem.NewBus(1 << 20)
	bus.WriteRaw(prog.Org, prog.Image)
	tr := &xlate.Translator{Bus: bus, Prof: interp.NewProfile(), CompileBackend: true}
	req, err := tr.Prepare(prog.Entry(), xlate.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	return req
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func TestSharedStoreDedup(t *testing.T) {
	s := NewShared(0)
	t1, hit, err := s.Translate(sharedReq(t, 10))
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("first request must miss")
	}
	t2, hit, err := s.Translate(sharedReq(t, 10))
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("identical request from a second VM must hit")
	}
	if t2 != t1 {
		t.Error("hit must return the stored artifact")
	}
	if _, hit, _ := s.Translate(sharedReq(t, 11)); hit {
		t.Error("different source bytes must miss")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Entries != 2 {
		t.Errorf("stats = %+v, want 1 hit / 2 misses / 2 entries", st)
	}
}

// TestSharedStoreSingleFlight hammers one key from many goroutines and
// asserts every caller gets the same artifact while the backend ran at most
// a handful of times (no thundering herd). Run under -race this is also the
// store's concurrency-safety test.
func TestSharedStoreSingleFlight(t *testing.T) {
	s := NewShared(0)
	const n = 16
	results := make([]*xlate.Translation, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tl, _, err := s.Translate(sharedReq(t, 7))
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = tl
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if results[i] != results[0] {
			t.Fatal("callers observed different artifacts for one key")
		}
	}
	st := s.Stats()
	if st.Misses != 1 {
		t.Errorf("backend ran %d times for one key, want 1 (waits %d, hits %d)",
			st.Misses, st.Waits, st.Hits)
	}
	if st.Hits+st.Waits != n-1 {
		t.Errorf("hits %d + waits %d, want %d", st.Hits, st.Waits, n-1)
	}
	// Whether the second request waited on the flight or hit probation, it
	// promoted the artifact, once.
	if st.Promotions != 1 {
		t.Errorf("promotions = %d, want 1", st.Promotions)
	}
	if r := residency(t, s, sharedReq(t, 7).Key()); r != "lru" {
		t.Errorf("artifact requested %d times resident in %q, want lru", n, r)
	}
}

func TestSharedStoreEviction(t *testing.T) {
	first, _, err := NewShared(0).Translate(sharedReq(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Budget for roughly two artifacts: inserting a third evicts the LRU.
	s := NewShared(2*first.CodeAtoms() + first.CodeAtoms()/2)
	for imm := 1; imm <= 3; imm++ {
		if _, _, err := s.Translate(sharedReq(t, imm)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Errorf("no evictions under a two-artifact budget: %+v", st)
	}
	if st.Atoms > 2*first.CodeAtoms()+first.CodeAtoms()/2 {
		t.Errorf("store over budget: %d atoms", st.Atoms)
	}
	// imm=1 was evicted (LRU): re-requesting it must miss and re-translate.
	if _, hit, _ := s.Translate(sharedReq(t, 1)); hit {
		t.Error("evicted entry must miss")
	}
}

// TestSharedStoreBudgetIsGlobal checks the atom budget is one exact budget
// over the whole store, whatever the host's CPU count: N equal-size
// artifacts fit a budget of exactly N, and the (N+1)th evicts exactly one,
// the oldest still on probation.
func TestSharedStoreBudgetIsGlobal(t *testing.T) {
	const n = 8
	reqs := make([]*xlate.Request, n+1)
	for i := range reqs {
		reqs[i] = sharedReq(t, i+1)
	}
	probe, _, err := NewShared(0).Translate(reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	atoms := probe.CodeAtoms()

	// A wide host must not split the budget.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	s := NewShared(n * atoms)
	for i, r := range reqs[:n] {
		tl, _, err := s.Translate(r)
		if err != nil {
			t.Fatal(err)
		}
		if tl.CodeAtoms() != atoms {
			t.Fatalf("artifact %d has %d atoms, want %d: the test needs equal sizes", i, tl.CodeAtoms(), atoms)
		}
	}
	if st := s.Stats(); st.Entries != n || st.Evictions != 0 || st.Atoms != n*atoms {
		t.Fatalf("budget of %d artifacts holds %d (%d atoms, %d evictions), want all %d",
			n, st.Entries, st.Atoms, st.Evictions, n)
	}
	// Touch the oldest, promoting it, so the second-oldest is the eviction
	// candidate.
	if _, hit, _ := s.Translate(reqs[0]); !hit {
		t.Fatal("resident artifact missed")
	}
	if _, _, err := s.Translate(reqs[n]); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Entries != n || st.Evictions != 1 {
		t.Fatalf("after one more artifact: %d entries, %d evictions; want %d and 1", st.Entries, st.Evictions, n)
	}
	want := map[xlate.Key]bool{}
	for i, r := range reqs {
		if i != 1 {
			want[r.Key()] = true
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for k := range s.entries {
		if !want[k] {
			t.Errorf("resident key %s is the evicted artifact or unknown", k)
		}
	}
}

// residency reports where key sits: "probation", "lru", or "" when it is
// not resident. It also checks the entry map agrees with the two lists.
func residency(t *testing.T, s *SharedStore, key xlate.Key) string {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := s.lru.Len() + s.probation.Len(); n != len(s.entries) {
		t.Fatalf("lru %d + probation %d != %d entries", s.lru.Len(), s.probation.Len(), len(s.entries))
	}
	e := s.entries[key]
	switch {
	case e == nil:
		return ""
	case e.probation:
		return "probation"
	default:
		return "lru"
	}
}

// TestSharedStoreAdmission is the admission contract: a first miss waits on
// probation, and a second request hits it and promotes it to the LRU.
func TestSharedStoreAdmission(t *testing.T) {
	s := NewShared(0)
	key := sharedReq(t, 3).Key()
	if _, hit, err := s.Translate(sharedReq(t, 3)); err != nil || hit {
		t.Fatalf("first request: hit=%v err=%v", hit, err)
	}
	if r := residency(t, s, key); r != "probation" {
		t.Fatalf("first miss resident in %q, want probation", r)
	}
	if _, hit, _ := s.Translate(sharedReq(t, 3)); !hit {
		t.Fatal("second request must hit the artifact on probation")
	}
	if r := residency(t, s, key); r != "lru" {
		t.Fatalf("after its second request the artifact is in %q, want lru", r)
	}
	if _, hit, _ := s.Translate(sharedReq(t, 3)); !hit {
		t.Fatal("third request must hit the LRU")
	}
	if st := s.Stats(); st.Promotions != 1 || st.GhostAdmits != 0 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 promotion, 0 ghost admits, 1 entry", st)
	}
}

// TestSharedStoreGhostAdmits overflows probation by one: the oldest first
// miss is dropped with its key kept in the ghost ring, and its next miss
// goes straight to the LRU.
func TestSharedStoreGhostAdmits(t *testing.T) {
	s := NewShared(0)
	for imm := 1; imm <= probationCap+1; imm++ {
		if _, _, err := s.Translate(sharedReq(t, imm)); err != nil {
			t.Fatal(err)
		}
	}
	first := sharedReq(t, 1).Key()
	if st := s.Stats(); st.Entries != probationCap || st.Evictions != 1 {
		t.Fatalf("after %d first misses: %d entries, %d evictions; want %d and 1",
			probationCap+1, st.Entries, st.Evictions, probationCap)
	}
	if r := residency(t, s, first); r != "" {
		t.Fatalf("oldest first miss still resident in %q", r)
	}
	s.mu.Lock()
	_, ghost := s.ghost[first]
	s.mu.Unlock()
	if !ghost {
		t.Fatal("dropped key is not in the ghost ring")
	}
	if _, hit, _ := s.Translate(sharedReq(t, 1)); hit {
		t.Fatal("a ghost key must miss: its artifact was dropped")
	}
	if r := residency(t, s, first); r != "lru" {
		t.Fatalf("ghost-key miss resident in %q, want lru", r)
	}
	if st := s.Stats(); st.GhostAdmits != 1 || st.Promotions != 0 {
		t.Errorf("ghost admits %d, promotions %d; want 1 and 0", st.GhostAdmits, st.Promotions)
	}
}

// TestSharedStoreGhostRingBounded drops more keys than the ghost ring holds:
// the ring keeps the newest ghostCap, and a key dropped, admitted and
// dropped again is not forgotten when its stale first slot is reused.
func TestSharedStoreGhostRingBounded(t *testing.T) {
	s := NewShared(0)
	key := func(i int) xlate.Key { return xlate.Key{byte(i), byte(i >> 8), byte(i >> 16)} }
	s.addGhost(key(0))
	delete(s.ghost, key(0)) // admitted: its slot is now stale
	for i := 1; i < ghostCap; i++ {
		s.addGhost(key(i))
	}
	s.addGhost(key(0)) // dropped again: overwrites slot 0, the oldest
	if len(s.ghost) != ghostCap || len(s.ghostRing) != ghostCap {
		t.Fatalf("ghost map %d, ring %d; want %d each", len(s.ghost), len(s.ghostRing), ghostCap)
	}
	if _, ok := s.ghost[key(0)]; !ok {
		t.Fatal("re-dropped key lost when its own stale slot was reused")
	}
	s.addGhost(key(ghostCap))
	if _, ok := s.ghost[key(1)]; ok {
		t.Error("oldest ghost survived a full ring's worth of newer drops")
	}
	if len(s.ghost) != ghostCap {
		t.Errorf("ghost map grew to %d past the ring's %d", len(s.ghost), ghostCap)
	}
}

// TestSharedStoreBudgetSpansSegments fills a three-artifact budget with one
// promoted artifact and two on probation: the fourth evicts probation's
// oldest, never the LRU, and Poison drops an artifact from either segment.
func TestSharedStoreBudgetSpansSegments(t *testing.T) {
	reqs := make([]*xlate.Request, 4)
	for i := range reqs {
		reqs[i] = sharedReq(t, i+1)
	}
	probe, _, err := NewShared(0).Translate(reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	atoms := probe.CodeAtoms()
	s := NewShared(3 * atoms)
	for _, i := range []int{0, 0, 1, 2} {
		if _, _, err := s.Translate(reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Entries != 3 || st.Atoms != 3*atoms || st.Evictions != 0 {
		t.Fatalf("budget of 3 holds %d entries (%d atoms, %d evictions), want 3", st.Entries, st.Atoms, st.Evictions)
	}
	if _, _, err := s.Translate(reqs[3]); err != nil {
		t.Fatal(err)
	}
	want := []string{"lru", "", "probation", "probation"}
	for i, r := range reqs {
		if got := residency(t, s, r.Key()); got != want[i] {
			t.Errorf("artifact %d resident in %q, want %q", i, got, want[i])
		}
	}
	if st := s.Stats(); st.Entries != 3 || st.Atoms != 3*atoms || st.Evictions != 1 {
		t.Fatalf("after a fourth: %d entries (%d atoms, %d evictions), want 3 and 1", st.Entries, st.Atoms, st.Evictions)
	}
	s.Poison(reqs[0].Key())
	s.Poison(reqs[2].Key())
	want = []string{"", "", "", "probation"}
	for i, r := range reqs {
		if got := residency(t, s, r.Key()); got != want[i] {
			t.Errorf("after poisoning 0 and 2, artifact %d resident in %q, want %q", i, got, want[i])
		}
	}
	if st := s.Stats(); st.Entries != 1 || st.Atoms != atoms {
		t.Errorf("after two poisons: %d entries, %d atoms; want 1 and %d", st.Entries, st.Atoms, atoms)
	}
}

// TestSharedStoreTorture is the store's concurrency contract, meant to run
// under -race: many goroutines hammer Get/insert/evict over an overlapping
// key set with a budget tight enough to force constant eviction, while other
// goroutines read Stats(). Afterwards it asserts single-flight dedup (on a
// second, unbounded store), the atom-budget and bookkeeping invariants, and
// that the stats counters sum exactly to the number of requests issued.
func TestSharedStoreTorture(t *testing.T) {
	const (
		keys    = 24
		workers = 8
		iters   = 30
	)
	reqs := make([]*xlate.Request, keys)
	for i := range reqs {
		reqs[i] = sharedReq(t, i+1)
	}
	atoms := make([]int, keys)
	{
		probe := NewShared(0)
		for i, r := range reqs {
			tl, _, err := probe.Translate(r)
			if err != nil {
				t.Fatal(err)
			}
			atoms[i] = tl.CodeAtoms()
		}
	}
	maxAtoms := 0
	for _, a := range atoms {
		if a > maxAtoms {
			maxAtoms = a
		}
	}

	// Tight store: a budget of ~6 artifacts over 24 keys, so eviction
	// churns continuously.
	s := NewShared(6 * maxAtoms)
	var total atomic.Uint64
	var wg, readers sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					s.Stats() // concurrent reader: must never race or block progress
					time.Sleep(100 * time.Microsecond)
				}
			}
		}()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// Overlapping slices of the key set per worker, so the same
				// key is requested from several goroutines at once.
				r := reqs[(w*7+i)%keys]
				if _, _, err := s.Translate(r); err != nil {
					t.Error(err)
					return
				}
				total.Add(1)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	st := s.Stats()
	if got := st.Hits + st.Waits + st.Misses; got != total.Load() {
		t.Errorf("stats sum to %d requests, issued %d", got, total.Load())
	}
	if st.Evictions == 0 {
		t.Error("tight budget never evicted")
	}
	// Accounted atoms match resident entries, and the store exceeds its
	// budget only when a single oversized entry forces it.
	s.mu.Lock()
	sum := 0
	for _, e := range s.entries {
		sum += e.atoms
	}
	if sum != s.curAtoms {
		t.Errorf("accounted %d atoms, entries hold %d", s.curAtoms, sum)
	}
	if s.curAtoms > s.capAtoms && len(s.entries) > 1 {
		t.Errorf("%d atoms over budget %d with %d entries", s.curAtoms, s.capAtoms, len(s.entries))
	}
	if s.lru.Len()+s.probation.Len() != len(s.entries) {
		t.Errorf("lru %d + probation %d vs entries %d", s.lru.Len(), s.probation.Len(), len(s.entries))
	}
	listed := 0
	for _, l := range []*list.List{s.lru, s.probation} {
		for el := l.Front(); el != nil; el = el.Next() {
			listed += el.Value.(*sharedEntry).atoms
		}
	}
	if listed != s.curAtoms {
		t.Errorf("the two segments hold %d atoms, accounted %d", listed, s.curAtoms)
	}
	if len(s.inflight) != 0 {
		t.Errorf("%d flights leaked", len(s.inflight))
	}
	s.mu.Unlock()

	// Unbounded store, same concurrent access pattern: single-flight means
	// the backend runs at most once per distinct key.
	big := NewShared(0)
	var total2 atomic.Uint64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if _, _, err := big.Translate(reqs[(w*5+i)%keys]); err != nil {
					t.Error(err)
					return
				}
				total2.Add(1)
			}
		}(w)
	}
	wg.Wait()
	st = big.Stats()
	if st.Misses > keys {
		t.Errorf("backend ran %d times for %d distinct keys (single-flight broken)", st.Misses, keys)
	}
	if st.Hits+st.Waits+st.Misses != total2.Load() {
		t.Errorf("stats sum %d, issued %d", st.Hits+st.Waits+st.Misses, total2.Load())
	}
	if st.Entries != keys {
		t.Errorf("unbounded store resident entries = %d, want %d", st.Entries, keys)
	}
}

func TestSharedStoreDedupRatio(t *testing.T) {
	if r := (SharedStats{}).DedupRatio(); r != 0 {
		t.Errorf("empty ratio = %v", r)
	}
	if r := (SharedStats{Hits: 9, Misses: 1}).DedupRatio(); r != 0.9 {
		t.Errorf("ratio = %v, want 0.9", r)
	}
}

// TestSharedStorePoisonTTL covers the quarantine lifecycle: poisoning drops
// the cached artifact and makes lookups translate privately (no cache, no
// single-flight), every bypass is counted, and the key rejoins normal
// sharing once the TTL lapses.
func TestSharedStorePoisonTTL(t *testing.T) {
	s := NewShared(0)
	req := sharedReq(t, 5)
	key := req.Key()
	if _, hit, err := s.Translate(req); err != nil || hit {
		t.Fatalf("prime: hit=%v err=%v", hit, err)
	}
	s.poisonTTL = 50 * time.Millisecond
	s.Poison(key)
	st := s.Stats()
	if st.Poisons != 1 || st.Poisoned != 1 || st.Entries != 0 {
		t.Fatalf("after poison: poisons=%d poisoned=%d entries=%d", st.Poisons, st.Poisoned, st.Entries)
	}
	if _, hit, err := s.Translate(sharedReq(t, 5)); err != nil || hit {
		t.Errorf("poisoned key must translate privately: hit=%v err=%v", hit, err)
	}
	if st := s.Stats(); st.PoisonHits != 1 {
		t.Errorf("poison hits = %d, want 1", st.PoisonHits)
	}

	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Poisoned != 0 {
		if time.Now().After(deadline) {
			t.Fatal("poison TTL never expired")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Post-expiry: the dropped artifact misses once, then shares again.
	if _, hit, _ := s.Translate(sharedReq(t, 5)); hit {
		t.Error("post-expiry lookup must miss: the artifact was dropped at poison time")
	}
	if _, hit, _ := s.Translate(sharedReq(t, 5)); !hit {
		t.Error("key did not rejoin sharing after the TTL expired")
	}
}

// TestSharedStorePoisonConcurrent races poisoners against translators on one
// key under -race: no matter the interleaving, every Translate returns a
// valid artifact or a clean private translation, and counters stay coherent.
func TestSharedStorePoisonConcurrent(t *testing.T) {
	s := NewShared(0)
	s.poisonTTL = time.Millisecond
	req := sharedReq(t, 9)
	key := req.Key()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if tl, _, err := s.Translate(sharedReq(t, 9)); err != nil || tl == nil {
					t.Errorf("translate under poison race: %v", err)
					return
				}
			}
		}()
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				s.Poison(key)
				time.Sleep(500 * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	st := s.Stats()
	if st.Poisons != 20 {
		t.Errorf("poisons = %d, want 20", st.Poisons)
	}
}

// BenchmarkSharedStoreParallel times the store under b.RunParallel, so the
// one-lock design can be re-measured at any width with -cpu 1,2,4,8. "hit"
// cycles over 64 warm keys; "miss" cycles over the same keys through a
// one-atom budget, so nearly every request evicts and runs the backend.
func BenchmarkSharedStoreParallel(b *testing.B) {
	const keys = 64
	reqs := make([]*xlate.Request, keys)
	for i := range reqs {
		reqs[i] = sharedReq(b, i+1)
	}
	for _, bc := range []struct {
		name     string
		capAtoms int
	}{{"hit", 0}, {"miss", 1}} {
		b.Run(bc.name, func(b *testing.B) {
			s := NewShared(bc.capAtoms)
			for _, r := range reqs {
				if _, _, err := s.Translate(r); err != nil {
					b.Fatal(err)
				}
			}
			var next atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := next.Add(1) * 7
				for pb.Next() {
					if _, _, err := s.Translate(reqs[i%keys]); err != nil {
						b.Error(err)
						return
					}
					i++
				}
			})
		})
	}
}
