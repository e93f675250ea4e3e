package perf

import (
	"reflect"
	"strings"
	"testing"

	"cms/internal/cms"
)

// tiny is every workload at a scale the race detector gets through in
// seconds: the same code paths, a few operations per lap.
func tiny() Scale {
	return Scale{
		Seconds: 1, TraceLaps: 1, SetupReps: 1,
		SteadyPrograms: 3, SteadyInsns: 20_000,
		ChurnQuota: [3]int{2, 1, 1}, ChurnInsns: [3]uint64{15_000, 10_000, 10_000},
		ColdPrograms: 5,
		Suite:        []string{"winstone_powerpoint", "mdljdp2", "spice2g6"},
		FarmRounds:   2, FarmUnique: 3, UniqueInsns: [2]uint64{2_000, 6_000},
		Sample: 2, MemOps: 500,
	}
}

func run(t *testing.T, name string, trace bool) *Report {
	t.Helper()
	rep, err := Run(Options{Workload: name, Seed: 7, Scale: tiny(), Trace: trace, Golden: Golden{}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 || rep.Attempted == 0 {
		t.Fatalf("%s: %d of %d operations failed", name, rep.Failed, rep.Attempted)
	}
	return rep
}

// Two in-process runs of one seed must agree on the inputs, on every
// simulated number, and on every count-type layer metric; and a run must
// report every metric BENCHMARK.json promises.
func TestWorkloadsRepeatExactly(t *testing.T) {
	for _, w := range Workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			a, b := run(t, w.Name, true), run(t, w.Name, true)
			if a.InputDigest != b.InputDigest || a.Attempted != b.Attempted {
				t.Fatalf("inputs differ between runs: %s/%d vs %s/%d", a.InputDigest, a.Attempted, b.InputDigest, b.Attempted)
			}
			for _, d := range EndToEnd {
				va, ok := a.EndToEnd[d.Name]
				if !ok || va.Value <= 0 {
					t.Errorf("%s = %v, want a positive measurement", d.Name, va.Value)
				}
				if d.Exact && va != b.EndToEnd[d.Name] {
					t.Errorf("%s: %v then %v", d.Name, va.Value, b.EndToEnd[d.Name].Value)
				}
			}
			for _, d := range PerLayer {
				va, ok := a.PerLayer[d.Name]
				if !ok {
					t.Errorf("%s not reported", d.Name)
				}
				if d.Exact && va != b.PerLayer[d.Name] {
					t.Errorf("%s: %v then %v", d.Name, va.Value, b.PerLayer[d.Name].Value)
				}
			}
			if len(a.Result().Metrics) != len(PerLayer) {
				t.Errorf("traced result has %d metrics, want %d", len(a.Result().Metrics), len(PerLayer))
			}
		})
	}
}

// A different seed must generate different inputs.
func TestSeedChangesInputs(t *testing.T) {
	for _, w := range Workloads {
		a, _ := newDriver(w.Name, tiny(), false)
		b, _ := newDriver(w.Name, tiny(), false)
		if err := a.setup(1); err != nil {
			t.Fatal(err)
		}
		if err := b.setup(2); err != nil {
			t.Fatal(err)
		}
		a.close()
		b.close()
		if a.inputDigest() == b.inputDigest() {
			t.Errorf("%s: seeds 1 and 2 generate the same inputs", w.Name)
		}
	}
}

// The outcome check can fail: one wrong reference is one failed operation
// per lap, on the solo path and through the farm.
func TestWrongReferenceIsCounted(t *testing.T) {
	solo := &soloWorkload{name: "steady", sc: tiny()}
	if err := solo.setup(7); err != nil {
		t.Fatal(err)
	}
	solo.refs[1][0] ^= 1
	if l := solo.lap(1); l.failed != 1 || l.ops != 3 {
		t.Errorf("solo: %d of %d failed, want 1 of 3", l.failed, l.ops)
	}

	fm := &farmWorkload{sc: tiny()}
	if err := fm.setup(7); err != nil {
		t.Fatal(err)
	}
	defer fm.close()
	ref := fm.refs["mdljdp2"]
	ref.EIP++
	fm.refs["mdljdp2"] = ref
	if l := fm.lap(1); l.failed != fm.sc.FarmRounds || l.ops != 9 {
		t.Errorf("farm: %d of %d failed, want %d of 9", l.failed, l.ops, fm.sc.FarmRounds)
	}
}

// After screening, the engine translates every program, whether or not it
// refused the first draw. The first draw here is steady seed 2100873293's
// program 16, which the translator at HEAD refuses (see screen).
func TestScreenLeavesNoRefusedProgram(t *testing.T) {
	const insns = 10_000
	r := subseed(2100873293, "steady")
	var pseed uint64
	for i := 0; i <= 16; i++ {
		pseed = r.next()
	}
	progs := []*image{sizedProgram(pseed, steadyGen, insns)}
	n := screen(progs, func(int) *image { return sizedProgram(r.next(), steadyGen, insns) })
	if n > maxScreened {
		t.Errorf("screen redrew %d programs, cap is %d", n, maxScreened)
	}
	if refuses(progs[0]) {
		t.Errorf("the engine still refuses the program after %d redraws", n)
	}
}

// Pinned digests that no longer match stop the run before anything is timed.
func TestInputDriftFailsLoudly(t *testing.T) {
	w, _ := newDriver("cold", tiny(), false)
	if err := w.setup(7); err != nil {
		t.Fatal(err)
	}
	key := w.goldenKey(7)
	for _, g := range []Golden{
		{key: {InputDigest: "stale", ReferenceDigest: w.referenceDigest()}},
		{key: {InputDigest: w.inputDigest(), ReferenceDigest: "stale"}},
	} {
		_, err := Run(Options{Workload: "cold", Seed: 7, Scale: tiny(), Golden: g})
		if err == nil || !strings.Contains(err.Error(), "re-baseline in a benchmark PR") {
			t.Errorf("stale golden entry: err = %v", err)
		}
	}
	if _, err := Run(Options{Workload: "cold", Seed: 7, Scale: tiny(),
		Golden: Golden{key: {InputDigest: w.inputDigest(), ReferenceDigest: w.referenceDigest()}}}); err != nil {
		t.Errorf("matching golden entry: %v", err)
	}
}

// The generator holds the farm at its in-flight target and never above it,
// by its own count and by the farm's.
func TestFarmGeneratorBoundsInFlight(t *testing.T) {
	sc := tiny()
	sc.FarmRounds, sc.FarmUnique = 8, 8
	fm := &farmWorkload{sc: sc}
	if err := fm.setup(7); err != nil {
		t.Fatal(err)
	}
	defer fm.close()
	l := fm.lap(1)
	if l.failed != 0 {
		t.Fatalf("%d jobs failed", l.failed)
	}
	if limit := 2 * fm.vms; l.maxInFlight > limit || l.maxInFlight < 1 {
		t.Errorf("max in flight %d, want 1..%d", l.maxInFlight, limit)
	}
}

// On a sequential traced lap no two sibling spans overlap, so self times add
// up to the root span exactly.
func TestSelfTimesSumToRoot(t *testing.T) {
	w := &soloWorkload{name: "churn", sc: tiny()}
	if err := w.setup(7); err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	w.run(cms.DefaultConfig(), tr, 0)
	root := tr.spans[0]
	if root.Name != "lap" || root.Parent != -1 {
		t.Fatalf("first span is %+v, want the lap root", root)
	}
	var sum int64
	for _, s := range selfTimes(tr.spans) {
		sum += s
	}
	if sum != root.End-root.Start {
		t.Errorf("self times sum to %d ns, root span is %d ns", sum, root.End-root.Start)
	}
	if n := tr.byName()["cms.run"].count; n != len(w.progs) {
		t.Errorf("%d cms.run spans for %d operations", n, len(w.progs))
	}
}

// BENCHMARK.json and the code name the same workloads and metrics.
func TestSpecMatchesCode(t *testing.T) {
	spec, err := LoadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range Workloads {
		want = append(want, w.Name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, code has %v", names, want)
	}
	check := func(kind string, got []SpecMetric, defs []MetricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in code", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if g := got[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, code has %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, EndToEnd)
	check("per_layer", spec.PerLayer, PerLayer)
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}
