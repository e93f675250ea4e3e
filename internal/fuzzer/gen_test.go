package fuzzer

import (
	"bytes"
	"strings"
	"testing"

	"cms/internal/cms"
	"cms/internal/guest"
)

// TestGenerateDeterministic: same seed, same image, bit for bit.
func TestGenerateDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		a := MustBuild(seed, GenConfig{})
		b := MustBuild(seed, GenConfig{})
		if !bytes.Equal(a.Image, b.Image) {
			t.Fatalf("seed %d: regeneration differs", seed)
		}
		if a.Entry != b.Entry || a.BodyInsns != b.BodyInsns {
			t.Fatalf("seed %d: metadata differs", seed)
		}
	}
}

// TestGenerateDecodes: every code byte range of a generated image decodes,
// and the listing renderer never hits an undecodable instruction.
func TestGenerateDecodes(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		p := MustBuild(seed, GenConfig{})
		for _, line := range p.Disasm() {
			if strings.Contains(line, "undecodable") {
				t.Fatalf("seed %d: %s", seed, line)
			}
		}
	}
}

// TestGeneratedProgramsHalt: pristine programs reach the epilogue's clean
// HLT under pure interpretation, well inside the budget, with the console
// carrying the epilogue marker.
func TestGeneratedProgramsHalt(t *testing.T) {
	cfg := OracleConfig()
	cfg.NoTranslate = true
	for seed := uint64(1); seed <= 50; seed++ {
		p := MustBuild(seed, GenConfig{})
		st := RunProgram(p, "interp", cfg, nil)
		if st.Err != "" {
			t.Fatalf("seed %d: %s", seed, st.Err)
		}
		if !st.Halted {
			t.Fatalf("seed %d: did not halt", seed)
		}
		if !strings.HasSuffix(st.Console, "K") {
			t.Fatalf("seed %d: epilogue marker missing (console %q)", seed, st.Console)
		}
	}
}

// TestGeneratedProgramsTranslate: under the oracle config the engine
// actually installs translations for generated programs — the whole point
// of the exercise.
func TestGeneratedProgramsTranslate(t *testing.T) {
	p := MustBuild(3, GenConfig{})
	st := RunProgram(p, "compiled", OracleConfig(), nil)
	if st.Err != "" {
		t.Fatalf("%s", st.Err)
	}
	if st.Metrics.Translations == 0 {
		t.Fatalf("no translations installed")
	}
	if st.Metrics.GuestTexec == 0 {
		t.Fatalf("no instructions retired in translations")
	}
}

// TestBuildEditValidation: edits that would break structure are rejected.
func TestBuildEditValidation(t *testing.T) {
	p := MustBuild(1, GenConfig{})
	// Fragment 0 is the IVT (scaffolding).
	if _, err := Build(p.Seed, p.Cfg, []Edit{{Frag: 0, Insn: -1}}); err == nil {
		t.Fatal("removing the IVT was allowed")
	}
	if _, err := Build(p.Seed, p.Cfg, []Edit{{Frag: 10_000, Insn: -1}}); err == nil {
		t.Fatal("out-of-range fragment was allowed")
	}
}

// TestFeatureGates: gated generations contain none of the gated artifacts.
func TestFeatureGates(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		p := MustBuild(seed, GenConfig{NoSMC: true, NoIRQ: true, NoMMIO: true, NoFault: true})
		for _, f := range p.frags {
			switch f.kind {
			case "smc-stylized", "smc-hostile", "irq-phase", "mmio", "div", "softint":
				t.Fatalf("seed %d: gated fragment kind %q generated", seed, f.kind)
			}
		}
		for _, f := range p.frags {
			for _, s := range f.body {
				if s.in.Op == guest.OpSTI || s.in.Op == guest.OpINT ||
					s.in.Op == guest.OpDIV || s.in.Op == guest.OpIDIV {
					t.Fatalf("seed %d: gated op %v in %s", seed, s.in.Op, f.label)
				}
			}
		}
	}
}

// TestSideExitStubTimingRegression: this program's region at 0x7c5 gives a
// side exit's fix-up source register to a load scheduled just after the
// exit's branch. vliw.Code.Validate used to time the exit stub in layout
// order — as if it ran after the whole body — and refuse the region
// ("reads r19 before it is ready"); the stub runs right after its branch.
func TestSideExitStubTimingRegression(t *testing.T) {
	p := MustBuild(339733461078994817, GenConfig{Frags: 16, NoSMC: true, NoIRQ: true,
		NoMMIO: true, NoFault: true, Outer: 64})
	ref := cms.DefaultConfig()
	ref.NoTranslate = true
	want := RunProgram(p, "interp", ref, nil)
	got := RunProgram(p, "cms", cms.DefaultConfig(), nil)
	if d := DiffArch(want, got); d != "" {
		t.Fatal(d)
	}
	if !got.Halted || got.Metrics.Translations == 0 {
		t.Fatalf("halted=%v translations=%d", got.Halted, got.Metrics.Translations)
	}
}
