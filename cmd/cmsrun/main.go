// cmsrun executes a g86 program (assembly source or raw image) under the
// Code Morphing engine and reports the run's metrics.
//
// Usage:
//
//	cmsrun [flags] prog.s
//	cmsrun [flags] -image prog.bin -org 0x1000 [-entry 0x1000]
//
// Every speculation and SMC mechanism can be toggled from the command line,
// which makes cmsrun a convenient vehicle for poking at the system:
//
//	cmsrun -noreorder prog.s         # Figure 2 conditions
//	cmsrun -noaliashw prog.s         # Figure 3 conditions
//	cmsrun -nofinegrain prog.s       # Table 1 conditions
//	cmsrun -interp prog.s            # pure interpretation
//
// Checkpoint/restore: -checkpoint FILE writes a snapshot envelope
// (internal/snapshot) when the run stops at a quiesced boundary — clean
// halt, budget exhaustion, or deadline preemption — and -restore FILE
// resumes one instead of loading a program. Restore must use the same
// engine flags the capture ran with, and defaults to the captured budget
// unless -budget is given explicitly:
//
//	cmsrun -budget 50000 -checkpoint half.snap prog.s   # exit 3, state saved
//	cmsrun -budget 100000 -restore half.snap            # finishes the run
//
// Exit codes, so scripts can tell outcomes apart:
//
//	0  the guest ran to a clean hlt
//	1  usage or tool error (bad flags, unreadable or unassemblable input,
//	   corrupt or version-skewed -restore envelope)
//	2  the guest died on an unrecoverable fault
//	3  the instruction budget ran out before the guest halted
//	4  the -deadline wall-clock watchdog preempted the run
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"cms/internal/asm"
	"cms/internal/cms"
	"cms/internal/dev"
	"cms/internal/guest"
	"cms/internal/snapshot"
	"cms/internal/vliw"
)

// Exit codes.
const (
	exitOK      = 0
	exitUsage   = 1
	exitFault   = 2
	exitBudget  = 3
	exitTimeout = 4
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	flag := flag.NewFlagSet("cmsrun", flag.ContinueOnError)
	flag.SetOutput(stderr)
	var (
		imagePath = flag.String("image", "", "raw image file (instead of assembly source)")
		orgFlag   = flag.String("org", "0x1000", "load origin for -image")
		entryFlag = flag.String("entry", "", "entry point (default: origin / _start)")
		diskPath  = flag.String("disk", "", "disk image file")
		ram       = flag.Int("ram", 1<<21, "guest RAM bytes")
		budget    = flag.Uint64("budget", 100_000_000, "guest instruction budget")
		deadline  = flag.Int64("deadline", 0, "wall-clock deadline in ms; the run is preempted cooperatively at a commit boundary (exit 4)")

		checkpointPath = flag.String("checkpoint", "", "write a snapshot envelope here when the run halts, exhausts its budget, or hits -deadline")
		restorePath    = flag.String("restore", "", "resume a snapshot envelope instead of loading a program (same engine flags as the capture)")

		interpOnly  = flag.Bool("interp", false, "pure interpretation (no translation)")
		noReorder   = flag.Bool("noreorder", false, "suppress memory reordering (Figure 2)")
		noAliasHW   = flag.Bool("noaliashw", false, "disable alias hardware (Figure 3)")
		noHoist     = flag.Bool("nohoist", false, "no hoisting of faulting ops above branches")
		selfCheck   = flag.Bool("selfcheck", false, "force self-checking translations (§3.6.3)")
		noFineGrain = flag.Bool("nofinegrain", false, "disable fine-grain protection (Table 1)")
		noSelfReval = flag.Bool("noselfreval", false, "disable self-revalidation (§3.6.2)")
		noStylized  = flag.Bool("nostylized", false, "disable stylized SMC (§3.6.4)")
		noGroups    = flag.Bool("nogroups", false, "disable translation groups (§3.6.5)")
		noChain     = flag.Bool("nochain", false, "disable exit chaining")
		noCompile   = flag.Bool("nocompile", false, "disable the compiled (step-array) backend; interpret translations")
		hot         = flag.Uint64("hot", 0, "translation threshold (0 = default)")
		unroll      = flag.Int("unroll", 0, "region unroll factor (0 = default)")

		showConsole = flag.Bool("console", true, "print guest console output")
		verbose     = flag.Bool("v", false, "print the full metric breakdown")
		traceN      = flag.Int("trace", 0, "record and print up to N engine events")
	)
	if err := flag.Parse(args); err != nil {
		return exitUsage
	}

	var (
		img   image
		disk  []byte
		entry uint32
	)
	if *restorePath == "" {
		var err error
		img, disk, entry, err = loadProgram(*imagePath, *orgFlag, *entryFlag, *diskPath, flag.Args())
		if err != nil {
			fmt.Fprintln(stderr, "cmsrun:", err)
			return exitUsage
		}
	} else if *imagePath != "" || len(flag.Args()) != 0 {
		fmt.Fprintln(stderr, "cmsrun: -restore takes no program; the snapshot carries the whole machine")
		return exitUsage
	}

	cfg := cms.DefaultConfig()
	cfg.NoTranslate = *interpOnly
	cfg.BasePolicy.NoReorderMem = *noReorder
	cfg.BasePolicy.NoAliasHW = *noAliasHW
	cfg.BasePolicy.NoHoistLoads = *noHoist
	cfg.BasePolicy.SelfCheck = *selfCheck
	cfg.BasePolicy.Unroll = *unroll
	cfg.EnableFineGrain = !*noFineGrain
	cfg.EnableSelfReval = !*noSelfReval
	cfg.EnableStylized = !*noStylized
	cfg.EnableGroups = !*noGroups
	cfg.EnableChaining = !*noChain
	cfg.EnableCompiledBackend = !*noCompile
	if *hot > 0 {
		cfg.HotThreshold = *hot
	}
	if *deadline > 0 {
		var cancelled atomic.Bool
		cfg.Cancel = cancelled.Load
		timer := time.AfterFunc(time.Duration(*deadline)*time.Millisecond, func() { cancelled.Store(true) })
		defer timer.Stop()
	}

	var (
		e    *cms.Engine
		plat *dev.Platform
	)
	if *restorePath != "" {
		blob, err := os.ReadFile(*restorePath)
		if err != nil {
			fmt.Fprintln(stderr, "cmsrun:", err)
			return exitUsage
		}
		if e, err = snapshot.Load(blob, cfg); err != nil {
			fmt.Fprintln(stderr, "cmsrun:", err)
			return exitUsage
		}
		plat = e.Plat
		// Unless -budget was given explicitly, resume with the captured
		// budget: Run counts cumulative retirement, so the combined run
		// retires exactly what an uninterrupted one would.
		if !flagWasSet(flag, "budget") && e.Budget() > 0 {
			*budget = e.Budget()
		}
	} else {
		plat = dev.NewPlatform(uint32(*ram), disk)
		plat.Bus.WriteRaw(img.org, img.data)
		e = cms.New(plat, entry, cfg)
		e.CPU().Regs[guest.ESP] = uint32(*ram) / 2
	}
	if *traceN > 0 {
		e.Trace = cms.NewTrace(*traceN)
	}

	runErr := e.Run(*budget)

	if *checkpointPath != "" {
		switch {
		case runErr == nil, errors.Is(runErr, cms.ErrBudget), errors.Is(runErr, cms.ErrCancelled):
			blob, err := snapshot.Save(e)
			if err == nil {
				err = os.WriteFile(*checkpointPath, blob, 0o644)
			}
			if err != nil {
				fmt.Fprintln(stderr, "cmsrun: checkpoint:", err)
			} else {
				fmt.Fprintf(stdout, "checkpoint: %d bytes after %d guest insns -> %s\n",
					len(blob), e.Metrics.GuestTotal(), *checkpointPath)
			}
		default:
			// A faulted guest is dead; a snapshot of it could never resume.
			fmt.Fprintln(stderr, "cmsrun: not checkpointing a faulted run")
		}
	}

	if e.Trace != nil {
		fmt.Fprintln(stdout, "--- engine trace ---")
		e.Trace.Write(stdout)
		fmt.Fprintln(stdout, "--------------------")
	}

	if *showConsole && len(plat.Console.Output()) > 0 {
		fmt.Fprintf(stdout, "--- console ---\n%s\n---------------\n", plat.Console.OutputString())
	}
	m := &e.Metrics
	fmt.Fprintf(stdout, "guest instructions: %d (interp %d, translated %d)\n",
		m.GuestTotal(), m.GuestInterp, m.GuestTexec)
	fmt.Fprintf(stdout, "molecules:          %d (%.2f per instruction)\n", m.TotalMols(), m.MPI())
	fmt.Fprintf(stdout, "translations:       %d (%d guest insns, %d atoms)\n",
		m.Translations, m.GuestInsnsTranslated, m.CodeAtoms)
	if *verbose {
		fmt.Fprintf(stdout, "molecule breakdown: texec %d, interp %d, translate %d, prologue %d\n",
			m.MolsTexec, m.MolsInterp, m.MolsTranslate, m.MolsPrologue)
		fmt.Fprintf(stdout, "dispatch: to-tcache %d, chained %d, lookups %d, returns %d\n",
			m.DispatchToTexec, m.ChainTransfers, m.LookupTransfers, m.DispatchReturns)
		fmt.Fprintf(stdout, "indirect target cache: hits %d, misses %d\n",
			m.IndirectHits, m.IndirectMisses)
		for c := vliw.FaultClass(1); c < 8; c++ {
			if m.Faults[c] > 0 {
				fmt.Fprintf(stdout, "faults[%s]: %d (adaptations %d)\n", c, m.Faults[c], m.Adaptations[c])
			}
		}
		fmt.Fprintf(stdout, "smc: prot-faults %d, fine-grain conversions %d, reval arms/passes/fails %d/%d/%d\n",
			m.ProtFaults, m.FineGrainConversions, m.SelfRevalArms, m.SelfRevalPasses, m.SelfRevalFails)
		fmt.Fprintf(stdout, "smc: stylized %d, group reuses %d, self-check fails %d, dma invalidations %d\n",
			m.StylizedAdopts, m.GroupReuses, m.SelfCheckFails, m.DMAInvalidations)
		fmt.Fprintf(stdout, "interrupts delivered: %d\n", m.Interrupts)
	}
	final := e.CPU()
	fmt.Fprintf(stdout, "final state: eax=%#x ebx=%#x ecx=%#x edx=%#x esi=%#x edi=%#x\n",
		final.Regs[guest.EAX], final.Regs[guest.EBX], final.Regs[guest.ECX],
		final.Regs[guest.EDX], final.Regs[guest.ESI], final.Regs[guest.EDI])
	switch {
	case errors.Is(runErr, cms.ErrCancelled):
		fmt.Fprintf(stderr, "cmsrun: %v (deadline %dms, %d guest insns retired)\n", runErr, *deadline, m.GuestTotal())
		return exitTimeout
	case errors.Is(runErr, cms.ErrBudget):
		fmt.Fprintln(stderr, "cmsrun:", runErr)
		return exitBudget
	case runErr != nil:
		fmt.Fprintln(stderr, "cmsrun:", runErr)
		return exitFault
	case !final.Halted:
		// Defensive: a nil-error, non-halted return should not happen.
		fmt.Fprintln(stderr, "cmsrun: guest stopped without halting")
		return exitBudget
	}
	return exitOK
}

type image struct {
	org  uint32
	data []byte
}

// flagWasSet reports whether a flag was given explicitly on the command line
// (Visit walks only set flags).
func flagWasSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

func loadProgram(imagePath, orgFlag, entryFlag, diskPath string, args []string) (image, []byte, uint32, error) {
	var disk []byte
	if diskPath != "" {
		d, err := os.ReadFile(diskPath)
		if err != nil {
			return image{}, nil, 0, err
		}
		disk = d
	}
	parseNum := func(s string) (uint32, error) {
		s = strings.TrimPrefix(s, "0x")
		v, err := strconv.ParseUint(s, 16, 32)
		if err != nil {
			v, err = strconv.ParseUint(s, 10, 32)
		}
		return uint32(v), err
	}
	if imagePath != "" {
		data, err := os.ReadFile(imagePath)
		if err != nil {
			return image{}, nil, 0, err
		}
		org, err := parseNum(orgFlag)
		if err != nil {
			return image{}, nil, 0, fmt.Errorf("bad -org: %v", err)
		}
		entry := org
		if entryFlag != "" {
			if entry, err = parseNum(entryFlag); err != nil {
				return image{}, nil, 0, fmt.Errorf("bad -entry: %v", err)
			}
		}
		return image{org: org, data: data}, disk, entry, nil
	}
	if len(args) != 1 {
		return image{}, nil, 0, fmt.Errorf("need an assembly source file or -image")
	}
	src, err := os.ReadFile(args[0])
	if err != nil {
		return image{}, nil, 0, err
	}
	prog, err := asm.Assemble(string(src))
	if err != nil {
		return image{}, nil, 0, err
	}
	return image{org: prog.Org, data: prog.Image}, disk, prog.Entry(), nil
}
