package fuzzer

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cms/internal/guest"
	"cms/internal/risc"
)

// oracleSeeds is how many generated programs TestOracle pushes through the
// full configuration matrix (6 straight runs plus 4 checkpoint/restore
// legs each). -short trims it for quick edits.
const oracleSeeds = 500

// TestOracle is the differential oracle over generated programs: every
// seed's program runs under pure interpretation, translation with and
// without the compiled backend, the risc register-IR backend, and a
// shared-store pair, and must produce byte-identical architectural state
// everywhere plus identical Metrics within each equivalence class. Four
// checkpoint legs additionally snapshot mid-run at a seed-derived boundary
// and finish in a restored engine — no store, warm store, cold store, risc
// against a mixed-backend store — and must be indistinguishable from their
// uninterrupted counterparts.
func TestOracle(t *testing.T) {
	n := uint64(oracleSeeds)
	if testing.Short() {
		n = 60
	}
	for seed := uint64(1); seed <= n; seed++ {
		_, d := CheckSeed(seed, GenConfig{}, CheckOptions{})
		if d != nil {
			t.Fatal(d.Error())
		}
	}
}

// TestOracleInjection repeats the oracle with fault-injection schedules
// armed: forced rollbacks, synthesized alias faults, forced evictions at
// commit boundaries, and forced protection hits on stores. The injected
// runs must still reach the same final guest state — that is the paper's
// recovery contract under adversarial conditions.
func TestOracleInjection(t *testing.T) {
	n := uint64(120)
	if testing.Short() {
		n = 30
	}
	for seed := uint64(1); seed <= n; seed++ {
		p, d := CheckSeed(seed, GenConfig{}, CheckOptions{Inject: true})
		if d != nil {
			t.Fatal(d.Error())
		}
		if p.BodyInsns == 0 {
			t.Fatalf("seed %d: degenerate program", seed)
		}
	}
}

// containsOp reports whether any surviving fragment uses op.
func containsOp(p *Program, ops ...guest.Op) bool {
	for _, f := range p.frags {
		for _, s := range f.body {
			for _, op := range ops {
				if s.in.Op == op {
					return true
				}
			}
		}
	}
	return false
}

// TestOracleCatchesMutation is the mutation test for the oracle itself: a
// synthetic semantics bug — "the compiled backend mishandles SBB" — is
// planted via the Mutate hook, the oracle must catch it, the shrinker must
// reduce the failing program to a minimal reproducer (<= 32 body
// instructions), and the reproducer must survive a write/load/replay
// round trip.
func TestOracleCatchesMutation(t *testing.T) {
	sbb := func(p *Program) bool {
		return containsOp(p, guest.OpSBBrr, guest.OpSBBri)
	}
	failingOpts := func(p *Program) CheckOptions {
		if !sbb(p) {
			return CheckOptions{}
		}
		return CheckOptions{Mutate: func(st *State) {
			if st.Name == "compiled" {
				st.Regs[guest.EBX] ^= 0x40 // the planted wrong result
			}
		}}
	}

	// Find a seed whose program uses SBB.
	var victim *Program
	for seed := uint64(1); seed <= 200; seed++ {
		p := MustBuild(seed, GenConfig{})
		if sbb(p) {
			victim = p
			break
		}
	}
	if victim == nil {
		t.Fatal("no SBB-bearing program in 200 seeds; generator weights changed?")
	}

	d := CheckProgram(victim, failingOpts(victim))
	if d == nil {
		t.Fatal("oracle missed the planted mutation")
	}
	if d.Field != "arch" {
		t.Fatalf("wrong divergence field %q", d.Field)
	}

	fails := func(p *Program) bool {
		return CheckProgram(p, failingOpts(p)) != nil
	}
	small := Shrink(victim, fails, 150)
	if !fails(small) {
		t.Fatal("shrunk program no longer fails")
	}
	if small.BodyInsns > 32 {
		t.Fatalf("shrunk reproducer too large: %d body insns (want <= 32)", small.BodyInsns)
	}
	t.Logf("shrunk seed %#x: %d -> %d body insns, %d edits",
		small.Seed, victim.BodyInsns, small.BodyInsns, len(small.Edits))

	// Round-trip through the reproducer format.
	path := filepath.Join(t.TempDir(), "repro.txt")
	if err := WriteReproducer(path, small, d); err != nil {
		t.Fatal(err)
	}
	back, err := LoadReproducer(path)
	if err != nil {
		t.Fatal(err)
	}
	if !fails(back) {
		t.Fatal("reloaded reproducer no longer fails")
	}
}

// TestOracleCatchesRiscMutation is the mutation test for the ninth leg: a
// REAL lazy-flags bug — the materializer feeding the wrong carry into
// ADC/SBB flag images — is planted behind risc.TestWrongCarry, and the
// oracle must pin it on a risc leg, the shrinker must reduce the failing
// program to <= 32 body instructions, and the reproducer must survive a
// write/load round trip (still failing with the hook set, passing without
// it). Unlike the SBB state-mutation test above, nothing is faked at
// comparison time: the bug lives in the executor and only programs whose
// ADC/SBB flag results stay architecturally live can expose it.
func TestOracleCatchesRiscMutation(t *testing.T) {
	risc.TestWrongCarry = true
	defer func() { risc.TestWrongCarry = false }()

	carry := func(p *Program) bool {
		return containsOp(p, guest.OpADCrr, guest.OpADCri, guest.OpSBBrr, guest.OpSBBri)
	}
	fails := func(p *Program) bool {
		return CheckProgram(p, CheckOptions{}) != nil
	}

	// Find a seed whose program both uses ADC/SBB and keeps the flag image
	// live enough for the wrong carry to reach architectural state.
	var victim *Program
	var d *Divergence
	for seed := uint64(1); seed <= 200; seed++ {
		p := MustBuild(seed, GenConfig{})
		if !carry(p) {
			continue
		}
		if dd := CheckProgram(p, CheckOptions{}); dd != nil {
			victim, d = p, dd
			break
		}
	}
	if victim == nil {
		t.Fatal("no seed in 200 exposes the wrong-carry materializer; generator weights changed?")
	}
	if d.Field != "arch" {
		t.Fatalf("wrong divergence field %q", d.Field)
	}
	if !strings.Contains(d.B, "risc") {
		t.Fatalf("divergence blames %q, want a risc leg", d.B)
	}

	small := Shrink(victim, fails, 150)
	if !fails(small) {
		t.Fatal("shrunk program no longer fails")
	}
	if small.BodyInsns > 32 {
		t.Fatalf("shrunk reproducer too large: %d body insns (want <= 32)", small.BodyInsns)
	}
	t.Logf("shrunk seed %#x: %d -> %d body insns, %d edits",
		small.Seed, victim.BodyInsns, small.BodyInsns, len(small.Edits))

	path := filepath.Join(t.TempDir(), "repro.txt")
	if err := WriteReproducer(path, small, d); err != nil {
		t.Fatal(err)
	}
	back, err := LoadReproducer(path)
	if err != nil {
		t.Fatal(err)
	}
	if !fails(back) {
		t.Fatal("reloaded reproducer no longer fails")
	}

	// With the hook withdrawn the same program must pass: the divergence
	// was the planted executor bug, not a latent one.
	risc.TestWrongCarry = false
	if dd := CheckProgram(back, CheckOptions{}); dd != nil {
		t.Fatalf("reproducer fails with the hook off: %v", dd)
	}
	risc.TestWrongCarry = true
}

// TestCorpusReplay regenerates and re-checks every reproducer in
// testdata/corpus. The corpus holds shrunk programs from past findings (and
// one seed archived at introduction); each must still build bit-identically
// and pass the oracle.
func TestCorpusReplay(t *testing.T) {
	entries, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("empty corpus: testdata/corpus should hold at least one entry")
	}
	for _, path := range entries {
		p, err := LoadReproducer(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if d := CheckProgram(p, CheckOptions{Inject: true}); d != nil {
			t.Errorf("%s: %s", path, d.Error())
		}
	}
}

// TestScheduleProgress: a schedule never forces protection hits on
// consecutive checks, the invariant that keeps resolve-retry loops finite.
func TestScheduleProgress(t *testing.T) {
	s := NewSchedule(7)
	prev := false
	for i := 0; i < 10_000; i++ {
		hit := s.ForceProtHit(0x1000, 4, 0)
		if hit && prev {
			t.Fatal("consecutive forced protection hits")
		}
		prev = hit
	}
}

// TestWriteReproducerSmoke writes a pristine program's reproducer and loads
// it back, exercising the no-edit path.
func TestWriteReproducerSmoke(t *testing.T) {
	p := MustBuild(42, GenConfig{})
	path := filepath.Join(t.TempDir(), "seed42.txt")
	if err := WriteReproducer(path, p, nil); err != nil {
		t.Fatal(err)
	}
	back, err := LoadReproducer(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.BodyInsns != p.BodyInsns {
		t.Fatalf("round trip changed body size: %d vs %d", back.BodyInsns, p.BodyInsns)
	}
	data, _ := os.ReadFile(path)
	if len(data) == 0 {
		t.Fatal("empty reproducer")
	}
}
