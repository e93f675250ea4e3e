// Command cmsfuzz drives the generative guest fuzzer: it sweeps seeds
// through the differential oracle (internal/fuzzer) — interpreter, xlate,
// compiled, the risc register-IR backend, shared-store, and snapshot legs,
// plus fault-injected variants under -inject — shrinks any
// divergence to a minimal reproducer, and writes it to the corpus
// directory. It also replays reproducer files and archives individual
// seeds.
//
// -replay accepts two file formats, distinguished by content: the fuzzer's
// text reproducers (seed + shrink edits), and the farm's JSON incident
// bundles (internal/incident) — a failure captured under concurrent serving
// load, re-run solo and verified bit-exact (same panic/error/timeout
// boundary, same architectural state hash). A bundle written for a restored
// job embeds its checkpoint envelope, and replay resumes the serialized VM
// instead of booting — the failure reproduces from the last checkpoint, not
// from instruction zero (docs/SNAPSHOT.md).
//
// Exit status: 0 = all seeds passed / incident reproduced, 1 = divergence
// found (reproducer written) or incident did not reproduce, 2 = usage or
// internal error.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"cms/internal/fuzzer"
	"cms/internal/incident"
)

func main() {
	var (
		seeds   = flag.Int("seeds", 256, "number of seeds to sweep")
		start   = flag.Uint64("start", 1, "first seed of the sweep")
		oneSeed = flag.String("seed", "", "check a single seed (decimal or 0x hex) and exit")
		inject  = flag.Bool("inject", false, "arm fault-injection schedules (rollbacks, alias faults, evictions, protection hits)")
		replay  = flag.String("replay", "", "replay a reproducer file instead of sweeping")
		corpus  = flag.String("corpus", "internal/fuzzer/testdata/corpus", "directory for shrunk reproducers")
		write   = flag.String("write", "", "with -seed: archive the program as a reproducer file")
		shrinkN = flag.Int("shrink", 200, "max shrink attempts per divergence")
		verbose = flag.Bool("v", false, "progress output")
	)
	flag.Parse()

	opts := fuzzer.CheckOptions{Inject: *inject}

	if *replay != "" {
		if incident.IsBundle(*replay) {
			b, err := incident.Load(*replay)
			if err != nil {
				fatal(err)
			}
			if err := incident.Replay(b); err != nil {
				fmt.Println(err)
				os.Exit(1)
			}
			fmt.Printf("%s: reproduced (%s %s, job %s attempt %d on %q rung)\n",
				*replay, b.Kind, b.Error, b.Job, b.Attempt, b.Rung)
			return
		}
		p, err := fuzzer.LoadReproducer(*replay)
		if err != nil {
			fatal(err)
		}
		if d := fuzzer.CheckProgram(p, opts); d != nil {
			fmt.Println(d.Error())
			os.Exit(1)
		}
		fmt.Printf("%s: ok (seed %#x, %d body insns)\n", *replay, p.Seed, p.BodyInsns)
		return
	}

	if *oneSeed != "" {
		seed, err := strconv.ParseUint(*oneSeed, 0, 64)
		if err != nil {
			fatal(fmt.Errorf("bad -seed %q: %w", *oneSeed, err))
		}
		p, d := fuzzer.CheckSeed(seed, fuzzer.GenConfig{}, opts)
		if *write != "" {
			if err := fuzzer.WriteReproducer(*write, p, d); err != nil {
				fatal(err)
			}
			fmt.Printf("archived seed %#x to %s\n", seed, *write)
		}
		if d != nil {
			report(d, p, opts, *corpus, *shrinkN)
			os.Exit(1)
		}
		fmt.Printf("seed %#x: ok (%d body insns)\n", seed, p.BodyInsns)
		return
	}

	failures := 0
	for i := 0; i < *seeds; i++ {
		seed := *start + uint64(i)
		p, d := fuzzer.CheckSeed(seed, fuzzer.GenConfig{}, opts)
		if d != nil {
			failures++
			report(d, p, opts, *corpus, *shrinkN)
			continue
		}
		if *verbose && (i+1)%64 == 0 {
			fmt.Printf("%d/%d seeds ok\n", i+1, *seeds)
		}
	}
	if failures > 0 {
		fmt.Printf("%d of %d seeds diverged\n", failures, *seeds)
		os.Exit(1)
	}
	if *verbose || *seeds >= 64 {
		fmt.Printf("all %d seeds ok\n", *seeds)
	}
}

// report shrinks a divergent program and writes the reproducer.
func report(d *fuzzer.Divergence, p *fuzzer.Program, opts fuzzer.CheckOptions, corpus string, attempts int) {
	fmt.Println(d.Error())
	fails := func(c *fuzzer.Program) bool { return fuzzer.CheckProgram(c, opts) != nil }
	small := fuzzer.Shrink(p, fails, attempts)
	if err := os.MkdirAll(corpus, 0o755); err != nil {
		fatal(err)
	}
	path := filepath.Join(corpus, fmt.Sprintf("seed-%x.txt", p.Seed))
	if err := fuzzer.WriteReproducer(path, small, d); err != nil {
		fatal(err)
	}
	fmt.Printf("shrunk to %d body insns; reproducer written to %s\n", small.BodyInsns, path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cmsfuzz:", err)
	os.Exit(2)
}
