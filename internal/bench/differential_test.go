package bench

import (
	"testing"

	"cms/internal/asm"
	"cms/internal/cms"
	"cms/internal/dev"
	"cms/internal/fuzzer"
	"cms/internal/risc"
	"cms/internal/workload"
)

// carryChain keeps ADC/SBB flag images live: each ADC/SBB is set up so its
// carry out equals its carry in (~x + x + c, x - x - c), and the next ADC
// folds that carry into edx. No suite workload uses ADC or SBB, so without
// it the suite would sail past a materializer that feeds them the wrong
// carry (risc.TestWrongCarry); TestBackendDifferentialCatchesWrongCarry
// holds that this kernel does not.
var carryChain = workload.Workload{
	Name: "carry_chain",
	Kind: workload.App,
	Build: func() *workload.Image {
		p, err := asm.Assemble(`
.org 0x1000
	mov ecx, 4000
	mov edi, 0x9e3779b9
loop:
	mov ebx, eax
	xor ebx, 0xffffffff
	add esi, edi
	adc ebx, eax
	adc edx, 0
	add eax, esi
	sbb ebp, ebp
	adc edx, 0
	dec ecx
	jne loop
	hlt
`)
		if err != nil {
			panic(err)
		}
		return &workload.Image{Org: p.Org, Data: p.Image, Entry: p.Entry(), RAM: 1 << 21, Budget: 1_000_000}
	},
}

// kernels is what the backend differential runs: the whole suite plus the
// carry chain.
func kernels() []workload.Workload { return append(workload.All(), carryChain) }

// backendRun executes one workload to completion under cfg and captures the
// outcome with the differential oracle's shared State snapshot, so this
// test, the farm differential, and the generative fuzzer all compare the
// exact same observables the exact same way.
func backendRun(t *testing.T, w workload.Workload, name string, cfg cms.Config) *fuzzer.State {
	t.Helper()
	img := w.Build()
	plat := dev.NewPlatform(img.RAM, img.Disk)
	plat.Bus.WriteRaw(img.Org, img.Data)
	e := cms.New(plat, img.Entry, cfg)
	st := fuzzer.Capture(name, e, plat, e.Run(img.Budget))
	if st.Err != "" {
		t.Fatalf("%s (%s): %s", w.Name, name, st.Err)
	}
	if !st.Halted {
		t.Fatalf("%s (%s) did not halt", w.Name, name)
	}
	return st
}

// diffBackends runs w under cfg three ways — installed translations executed
// interpretively, through the vliw closures, and through the risc register
// IR — and returns how the runs differ, "" when they are observationally
// identical: same final CPU, same guest memory and device output, same
// simulated Metrics, same cache statistics. This is the deopt contract of
// both compiled backends — only wall clock may move — held on the real
// workload suite (the oracle holds it seed by seed on generated programs).
// The compiled runs also run their self-revalidation prologues compiled;
// prologues counts the ones that passed.
func diffBackends(t *testing.T, w workload.Workload, cfg cms.Config) (diff string, prologues uint64) {
	t.Helper()
	ci := cfg
	ci.EnableCompiledBackend = false
	cc := cfg
	cc.EnableCompiledBackend = true
	cr := cc
	cr.Backend = "risc"

	si := backendRun(t, w, "interp-backend", ci)
	for _, s := range []*fuzzer.State{
		backendRun(t, w, "compiled-backend", cc),
		backendRun(t, w, "risc-backend", cr),
	} {
		if d := fuzzer.DiffArch(si, s); d != "" {
			return "architectural state diverged: " + d, 0
		}
		if d := fuzzer.DiffMetrics(si, s); d != "" {
			return d, 0
		}
	}
	return "", si.Metrics.SelfRevalPasses
}

// TestBackendDifferential proves the interpretive, vliw and risc executors
// are byte-for-byte equivalent on every workload kernel — including the SMC
// and adaptive-retranslation workloads, whose self-revalidation prologues
// run compiled on the compiled legs — under the default configuration.
func TestBackendDifferential(t *testing.T) {
	var prologues uint64
	for _, w := range kernels() {
		t.Run(w.Name, func(t *testing.T) {
			d, n := diffBackends(t, w, cms.DefaultConfig())
			if d != "" {
				t.Error(d)
			}
			prologues += n
		})
	}
	if prologues < 100 {
		t.Errorf("%d prologue passes across the kernels: the compiled prologue path is barely exercised", prologues)
	}
	t.Logf("%d self-revalidation prologues passed on each leg", prologues)
}

// TestBackendDifferentialCatchesWrongCarry is the mutation test for the risc
// leg: with the lazy-flag materializer feeding ADC/SBB the wrong carry, the
// differential must report a divergence.
func TestBackendDifferentialCatchesWrongCarry(t *testing.T) {
	risc.TestWrongCarry = true
	defer func() { risc.TestWrongCarry = false }()
	if d, _ := diffBackends(t, carryChain, cms.DefaultConfig()); d == "" {
		t.Error("wrong-carry materializer went unnoticed")
	}
}
