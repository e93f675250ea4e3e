package perf

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"

	"cms/internal/cms"
	"cms/internal/dev"
	"cms/internal/farm"
	"cms/internal/guest"
)

// interpConfig is the reference configuration: the pure interpreter. Every
// expected outcome in this package comes from it, never from the translator
// under test.
func interpConfig() cms.Config {
	c := cms.DefaultConfig()
	c.NoTranslate = true
	return c
}

// stateDigest hashes everything fuzzer.Capture compares — registers, EIP,
// flags, halt and error status, console, MMIO text buffer and RAM — with
// all-zero RAM pages elided (each remaining page is hashed with its index,
// so the digest still pins the full image).
func stateDigest(e *cms.Engine, plat *dev.Platform, runErr error) [sha256.Size]byte {
	h := sha256.New()
	var w [4]byte
	u32 := func(v uint32) {
		binary.LittleEndian.PutUint32(w[:], v)
		h.Write(w[:])
	}
	cpu := e.CPU()
	for _, r := range cpu.Regs {
		u32(r)
	}
	u32(cpu.EIP)
	u32(cpu.Flags)
	if cpu.Halted {
		u32(1)
	} else {
		u32(0)
	}
	if runErr != nil {
		h.Write([]byte(runErr.Error()))
	}
	u32(uint32(len(plat.Console.Output())))
	h.Write(plat.Console.Output())
	h.Write(plat.Console.Text())
	for _, pg := range plat.Bus.ExportState().Pages {
		u32(pg.Index)
		h.Write(pg.Data)
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// farmOutcome is what a farm job's Result exposes of the final guest state.
type farmOutcome struct {
	Regs    [guest.NumRegs]uint32
	EIP     uint32
	Flags   uint32
	Halted  bool
	Console string
}

func outcomeOf(r *farm.Result) farmOutcome {
	return farmOutcome{Regs: r.Regs, EIP: r.EIP, Flags: r.Flags, Halted: r.Halted, Console: r.Console}
}

// engineOutcome is the same view of a solo run.
func engineOutcome(e *cms.Engine, plat *dev.Platform) farmOutcome {
	cpu := e.CPU()
	return farmOutcome{Regs: cpu.Regs, EIP: cpu.EIP, Flags: cpu.Flags, Halted: cpu.Halted,
		Console: plat.Console.OutputString()}
}

// parallel runs fn(i) for i in [0,n) on GOMAXPROCS goroutines and waits.
// Only setup uses it; timed work is driven by one goroutine.
func parallel(n int, fn func(i int)) {
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// soloReferences interprets every program and returns its expected digest.
func soloReferences(progs []*image) [][sha256.Size]byte {
	refs := make([][sha256.Size]byte, len(progs))
	parallel(len(progs), func(i int) {
		e, plat, err := runImage(progs[i], interpConfig(), nil, 0, -1)
		refs[i] = stateDigest(e, plat, err)
	})
	return refs
}

// farmReferences interprets each distinct job once, set up as the farm sets
// a job up, and returns the expected outcome by reference key.
func farmReferences(laps [][]farmJob) (map[string]farmOutcome, error) {
	specs := map[string]farm.JobSpec{}
	for _, jobs := range laps {
		for _, j := range jobs {
			specs[j.ref] = j.spec
		}
	}
	keys := make([]string, 0, len(specs))
	for k := range specs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	outs := make([]farmOutcome, len(keys))
	errs := make([]error, len(keys))
	parallel(len(keys), func(i int) {
		img, err := jobImage(specs[keys[i]])
		if err != nil {
			errs[i] = err
			return
		}
		e, plat, err := runImage(img, interpConfig(), nil, 0, -1)
		if err != nil {
			errs[i] = fmt.Errorf("reference run: %w", err)
			return
		}
		outs[i] = engineOutcome(e, plat)
	})
	refs := make(map[string]farmOutcome, len(keys))
	for i, k := range keys {
		if errs[i] != nil {
			return nil, errs[i]
		}
		refs[k] = outs[i]
	}
	return refs, nil
}

// GoldenEntry pins what one (workload, seed, scale) generated and what the
// interpreter made of it.
type GoldenEntry struct {
	InputDigest     string `json:"input_digest"`
	ReferenceDigest string `json:"reference_digest"`
}

// Golden maps "workload/seed=N/scale" to its pinned digests. The committed
// file holds the development seed 1 and the held-out seed 2 at full scale;
// any other seed simply has no entry to be checked against.
type Golden map[string]GoldenEntry

//go:embed testdata/golden.json
var goldenJSON []byte

// GoldenPath is where -write-golden writes, relative to the repository root.
const GoldenPath = "perf/testdata/golden.json"

func embeddedGolden() (Golden, error) {
	g := Golden{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("perf: %s: %w", GoldenPath, err)
	}
	return g, nil
}

// check compares freshly generated digests with the pinned ones.
func (g Golden) check(key, inputDigest, referenceDigest string) error {
	want, ok := g[key]
	if !ok {
		return nil
	}
	if want.InputDigest != inputDigest {
		return fmt.Errorf("perf: %s: inputs changed — re-baseline in a benchmark PR (input digest %.16s, golden %.16s)",
			key, inputDigest, want.InputDigest)
	}
	if want.ReferenceDigest != referenceDigest {
		return fmt.Errorf("perf: %s: the interpreter's reference outcomes changed — re-baseline in a benchmark PR (reference digest %.16s, golden %.16s)",
			key, referenceDigest, want.ReferenceDigest)
	}
	return nil
}

// WriteGolden regenerates the entries of the named workloads for seeds at
// full scale and rewrites the golden file.
func WriteGolden(path string, names []string, seeds []uint64, seconds int) error {
	g, err := embeddedGolden()
	if err != nil {
		return err
	}
	sc := FullScale(seconds)
	for _, name := range names {
		for _, seed := range seeds {
			w, err := newDriver(name, sc, false)
			if err != nil {
				return err
			}
			if err := w.setup(seed); err != nil {
				return err
			}
			w.close()
			g[w.goldenKey(seed)] = GoldenEntry{InputDigest: w.inputDigest(), ReferenceDigest: w.referenceDigest()}
		}
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func hexDigest(sums [][sha256.Size]byte) string {
	h := sha256.New()
	for i := range sums {
		h.Write(sums[i][:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
