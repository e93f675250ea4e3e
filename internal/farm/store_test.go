package farm

import (
	"fmt"
	"testing"

	"cms/internal/workload"
)

// uniqueSource is a one-off job: the hot loop's immediate is i, so every i
// is a distinct content key and its translations are never requested again.
func uniqueSource(i int) string {
	return fmt.Sprintf(`
.org 0x1000
_start:
	mov ecx, 2000
loop:
	add eax, %d
	dec ecx
	jne loop
	hlt
`, i+1)
}

// TestStoreFlatUnderUniqueTraffic is the shared store's memory bound under
// sustained traffic: rounds of the suite interleaved with distinct source
// jobs through one farm. Suite translations are requested every round and
// one-off ones never again, so from round 3 on the store holds the suite's
// artifacts plus at most a full probation FIFO of one-off ones: entries and
// atoms stay within their round-2 values plus the probation bound, and the
// suite's jobs are still served from the store.
func TestStoreFlatUnderUniqueTraffic(t *testing.T) {
	const (
		rounds    = 8
		unique    = 64  // per round; (rounds-2)*unique must exceed probation
		probation = 256 // tcache's probation FIFO, in artifacts
	)
	// The atoms one one-off job leaves in the store; every one-off job is
	// the same code but for an immediate.
	one := New(Config{MaxVMs: 1})
	if _, err := one.Submit(JobSpec{Source: uniqueSource(-1)}); err != nil {
		t.Fatal(err)
	}
	one.Drain()
	jobAtoms := one.Stats().Store.Atoms
	if jobAtoms == 0 {
		t.Fatal("a one-off job left nothing in the store")
	}

	suite := workload.All()
	f := New(Config{MaxVMs: 2, QueueDepth: len(suite) + unique})
	defer f.Drain()
	var entries2, atoms2 int
	next := 0
	for r := 1; r <= rounds; r++ {
		var suiteIDs []string
		for i := 0; i < len(suite) || i < unique; i++ {
			if i < len(suite) {
				v, err := f.Submit(JobSpec{Workload: suite[i].Name})
				if err != nil {
					t.Fatal(err)
				}
				suiteIDs = append(suiteIDs, v.ID)
			}
			if i < unique {
				if _, err := f.Submit(JobSpec{Source: uniqueSource(next)}); err != nil {
					t.Fatal(err)
				}
				next++
			}
		}
		f.Wait()
		st := f.Stats().Store
		var hits, misses uint64
		for _, id := range suiteIDs {
			v, _ := f.Job(id)
			if v.Status != StatusDone {
				t.Fatalf("round %d: %s (%s) %s: %s", r, id, v.Spec.Workload, v.Status, v.Error)
			}
			hits += v.Result.SharedHits
			misses += v.Result.SharedMisses
		}
		t.Logf("round %d: %d entries, %d atoms, %d promotions, %d ghost admits, %d evictions; suite hits %d/%d",
			r, st.Entries, st.Atoms, st.Promotions, st.GhostAdmits, st.Evictions, hits, hits+misses)
		switch {
		case r == 2:
			entries2, atoms2 = st.Entries, st.Atoms
		case r > 2:
			if st.Entries > entries2+probation {
				t.Errorf("round %d: %d entries, over round 2's %d plus %d on probation", r, st.Entries, entries2, probation)
			}
			if max := atoms2 + probation*jobAtoms; st.Atoms > max {
				t.Errorf("round %d: %d atoms, over %d: round 2's %d plus a full probation", r, st.Atoms, max, atoms2)
			}
			if float64(hits) <= 0.9*float64(hits+misses) {
				t.Errorf("round %d: suite jobs hit the store %d of %d times, want > 90%%", r, hits, hits+misses)
			}
		}
	}
}
