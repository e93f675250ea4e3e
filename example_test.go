package cms_test

import (
	"fmt"
	"log"

	"cms"
	"cms/internal/vliw"
)

// Assemble a small g86 program, run it under the Code Morphing engine, and
// look at what happened: how much ran interpreted versus translated, and at
// what molecule cost.
func ExampleNewSystem() {
	prog, err := cms.Assemble(`
.org 0x1000
	mov ecx, 5000          ; enough iterations to get hot and translate
	mov eax, 0
loop:
	add eax, ecx
	mov [0x8000], eax      ; running sum lives in memory
	mov ebx, [0x8000]
	dec ecx
	jne loop

	; say goodbye through the serial console
	mov eax, 'd'
	out 0x3f8, eax
	mov eax, 'o'
	out 0x3f8, eax
	mov eax, 'n'
	out 0x3f8, eax
	mov eax, 'e'
	out 0x3f8, eax
	hlt
`)
	if err != nil {
		log.Fatal(err)
	}

	sys := cms.NewSystem(prog, cms.SystemConfig{})
	if err := sys.Run(10_000_000); err != nil {
		log.Fatal(err)
	}

	m := sys.Metrics
	fmt.Printf("console said:        %q\n", sys.Console())
	fmt.Printf("sum in eax:          %d\n", sys.CPU().Regs[cms.EAX])
	fmt.Printf("guest instructions:  %d (%d interpreted, %d in translations)\n",
		m.GuestTotal(), m.GuestInterp, m.GuestTexec)
	fmt.Printf("host molecules:      %d  (%.2f per guest instruction)\n",
		m.TotalMols(), m.MPI())
	fmt.Printf("translations made:   %d\n", m.Translations)

	// The same program, interpretation only, for contrast.
	ref := cms.NewSystem(prog, cms.SystemConfig{Engine: &cms.Config{NoTranslate: true}})
	if err := ref.Run(10_000_000); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ninterpreter-only:    %d molecules (%.2f per instruction)\n",
		ref.Metrics.TotalMols(), ref.Metrics.MPI())
	fmt.Printf("speedup from translation: %.1fx\n",
		float64(ref.Metrics.TotalMols())/float64(m.TotalMols()))
	// Output:
	// console said:        "done"
	// sum in eax:          101
	// guest instructions:  25011 (321 interpreted, 24690 in translations)
	// host molecules:      47473  (1.90 per guest instruction)
	// translations made:   2
	//
	// interpreter-only:    630290 molecules (25.20 per instruction)
	// speedup from translation: 13.3x
}

// The paper's core paradigm on a single hostile loop: aggressive
// speculation, hardware-detected failure, rollback and recovery by
// interpretation, and adaptive retranslation once the failure recurs. The
// loop's store and load always collide through different registers, so the
// translator's speculative reordering is wrong every time; the alias
// hardware catches it, and CMS retranslates conservatively.
func ExampleNewSystem_adaptive() {
	prog, err := cms.Assemble(`
.org 0x1000
	mov ebx, 0x8000        ; two views of the same address...
	mov edx, 0x8000        ; ...that no translator could prove equal
	mov ecx, 4000
loop:
	mov [ebx], ecx         ; store through one pointer
	mov eax, [edx]         ; load through the other: must see the store
	add esi, eax
	dec ecx
	jne loop
	hlt
`)
	if err != nil {
		log.Fatal(err)
	}

	sys := cms.NewSystem(prog, cms.SystemConfig{})
	if err := sys.Run(10_000_000); err != nil {
		log.Fatal(err)
	}

	m := sys.Metrics
	fmt.Println("the hostile loop ran to completion:")
	fmt.Printf("  esi (sum of loads):   %d (correct: %d)\n",
		sys.CPU().Regs[cms.ESI], 4000*4001/2)
	fmt.Println("\nwhat CMS went through to get there:")
	fmt.Printf("  alias faults:          %d  (speculative reordering caught by hardware)\n",
		m.Faults[vliw.FAlias])
	fmt.Printf("  rollbacks+reinterpret: every fault recovered precisely\n")
	fmt.Printf("  adaptations:           %d  (retranslated with conservative policy)\n",
		m.Adaptations[vliw.FAlias])
	fmt.Printf("  translations made:     %d\n", m.Translations)
	fmt.Printf("  final cost:            %.2f molecules/instruction\n", m.MPI())

	// For contrast: the same program with reordering suppressed from the
	// start never faults — but pays for caution everywhere else.
	cfg := cms.DefaultConfig()
	cfg.BasePolicy.NoReorderMem = true
	safe := cms.NewSystem(prog, cms.SystemConfig{Engine: &cfg})
	if err := safe.Run(10_000_000); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nalways-conservative run: %d alias faults, %.2f molecules/instruction\n",
		safe.Metrics.Faults[vliw.FAlias], safe.Metrics.MPI())
	// Output:
	// the hostile loop ran to completion:
	//   esi (sum of loads):   8002000 (correct: 8002000)
	//
	// what CMS went through to get there:
	//   alias faults:          2  (speculative reordering caught by hardware)
	//   rollbacks+reinterpret: every fault recovered precisely
	//   adaptations:           1  (retranslated with conservative policy)
	//   translations made:     2
	//   final cost:            2.17 molecules/instruction
	//
	// always-conservative run: 0 alias faults, 1.95 molecules/instruction
}

// An operating-system boot analog, the paper's hardest workload class: port
// and memory-mapped I/O, DMA that lands on translated code pages, timer
// interrupts, mixed code-and-data pages, and self-modifying driver code.
// Any boot analog in cms.Workloads() runs the same way.
func ExampleRunWorkload() {
	w, err := cms.WorkloadByName("win98_boot")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("booting %s (stands in for: %s)\n\n", w.Name, w.Paper)

	sys, err := cms.RunWorkload(w, cms.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	c := sys.Console()
	fmt.Printf("console output: %q... (%d bytes)\n\n", c[:22], len(c))
	m := sys.Metrics
	fmt.Printf("guest instructions:     %d\n", m.GuestTotal())
	fmt.Printf("molecules/instruction:  %.2f\n", m.MPI())
	fmt.Printf("translations:           %d\n", m.Translations)
	fmt.Printf("interrupts delivered:   %d\n", m.Interrupts)
	fmt.Printf("DMA invalidations:      %d\n", m.DMAInvalidations)
	fmt.Printf("protection faults:      %d (fine-grain conversions %d)\n",
		m.ProtFaults, m.FineGrainConversions)
	fmt.Printf("self-reval arms/passes: %d/%d\n", m.SelfRevalArms, m.SelfRevalPasses)
	fmt.Printf("stylized SMC adoptions: %d\n", m.StylizedAdopts)
	fmt.Printf("chained exits:          %d (vs %d dispatcher returns)\n",
		m.ChainTransfers, m.DispatchReturns)
	// Output:
	// booting win98_boot (stands in for: Windows 98 boot)
	//
	// console output: "Starting Windows 98..."... (1541 bytes)
	//
	// guest instructions:     1049956
	// molecules/instruction:  1.11
	// translations:           23
	// interrupts delivered:   350
	// DMA invalidations:      1
	// protection faults:      36 (fine-grain conversions 1)
	// self-reval arms/passes: 30/28
	// stylized SMC adoptions: 1
	// chained exits:          40338 (vs 251 dispatcher returns)
}

// The Quake Demo2 analog, a frame loop whose inner blitter is
// performance-critical self-modifying code, run with and without
// self-revalidating translations: the §3.6.2 experiment ("the Quake Demo2
// benchmark achieves a 28% higher frame rate with self-revalidation than
// without it").
func ExampleRunWorkload_smcgame() {
	w, err := cms.WorkloadByName("quake_demo2")
	if err != nil {
		log.Fatal(err)
	}

	with, err := cms.RunWorkload(w, cms.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	cfgOff := cms.DefaultConfig()
	cfgOff.EnableSelfReval = false
	without, err := cms.RunWorkload(w, cfgOff)
	if err != nil {
		log.Fatal(err)
	}

	frames := with.Plat.Bus.Read32(cms.QuakeFrameVar)
	rate := func(s *cms.System) float64 {
		return float64(frames) / (float64(s.Metrics.TotalMols()) / 1e6)
	}
	fmt.Printf("frames rendered:                 %d\n", frames)
	fmt.Printf("with self-revalidation:          %.1f frames/Mmol (%d prologue passes)\n",
		rate(with), with.Metrics.SelfRevalPasses)
	fmt.Printf("without (invalidate+retranslate): %.1f frames/Mmol (%d translations)\n",
		rate(without), without.Metrics.Translations)
	fmt.Printf("frame-rate improvement:          %.1f%%  (paper reports 28%%)\n",
		100*(rate(with)-rate(without))/rate(without))
	// Output:
	// frames rendered:                 50
	// with self-revalidation:          123.3 frames/Mmol (140 prologue passes)
	// without (invalidate+retranslate): 88.1 frames/Mmol (59 translations)
	// frame-rate improvement:          40.0%  (paper reports 28%)
}
