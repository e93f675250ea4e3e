package perf

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"strings"

	"cms/internal/asm"
	"cms/internal/cms"
	"cms/internal/farm"
	"cms/internal/fuzzer"
	"cms/internal/workload"
)

// image is a loadable guest program: what a solo operation runs and what a
// farm job's reference is computed from.
type image struct {
	org, entry, ram uint32
	// stackTop seeds ESP when non-zero (the farm does this for source jobs).
	stackTop   uint32
	data, disk []byte
	budget     uint64
}

// rng is splitmix64: the benchmark's own generator, fixed here so a seed
// means the same inputs on every commit.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// between draws uniformly from [lo, hi].
func (r *rng) between(lo, hi uint64) uint64 { return lo + r.next()%(hi-lo+1) }

// subseed derives an independent stream for one workload of one seed.
func subseed(seed uint64, tag string) *rng {
	r := &rng{s: seed}
	for _, c := range []byte(tag) {
		r.s = r.next() ^ uint64(c)
	}
	return r
}

func fromProgram(p *fuzzer.Program, budget uint64) *image {
	return &image{org: p.Org, entry: p.Entry, ram: p.RAM, data: p.Image, budget: budget}
}

// interpInsns runs p under the pure interpreter and returns how many guest
// instructions it retires before halting.
func interpInsns(p *fuzzer.Program) uint64 {
	e, _, _ := runImage(fromProgram(p, p.Budget), interpConfig(), nil, 0, -1)
	return e.Metrics.GuestTotal()
}

// sizedProgram builds the fuzzer program for pseed with its outer trip count
// chosen so the run retires about target guest instructions. The per-trip
// cost is read off two short interpreter runs, never off the engine under
// test, so a program's length cannot move when the translator does.
func sizedProgram(pseed uint64, gc fuzzer.GenConfig, target uint64) *image {
	probe := func(outer int) uint64 {
		gc.Outer = outer
		return interpInsns(fuzzer.MustBuild(pseed, gc))
	}
	i8, i16 := probe(8), probe(16)
	perTrip := (i16 - i8) / 8
	if perTrip == 0 {
		perTrip = 1
	}
	gc.Outer = 16
	if target > i16 {
		gc.Outer = 16 + int((target-i16)/perTrip)
	}
	return fromProgram(fuzzer.MustBuild(pseed, gc), 4*target)
}

// smcClass sorts a generated program by the self-modifying-code fragments it
// contains — the structural property that decides how much of a churn
// program runs in recovery rather than in translations.
type smcClass int

const (
	smcNone     smcClass = iota
	smcHostile           // hostile fragments only
	smcStylized          // exactly one stylized fragment
	smcThrash            // a stylized fragment beside any other SMC fragment
)

func classify(p *fuzzer.Program) smcClass {
	var hostile, stylized int
	for _, l := range p.Disasm() {
		if strings.HasSuffix(l, "(smc-hostile):") {
			hostile++
		}
		if strings.HasSuffix(l, "(smc-stylized):") {
			stylized++
		}
	}
	switch {
	case stylized > 1 || stylized == 1 && hostile > 0:
		return smcThrash
	case stylized == 1:
		return smcStylized
	case hostile > 0:
		return smcHostile
	}
	return smcNone
}

// steadyGen switches every recovery-provoking feature off: what is left is
// ALU, memory, stack, loops, calls and direct and indirect branches. Sixteen
// fragments (the generator's own draw is 5 to 10) make a program a broad
// enough mix that programs differ by 14% in speed, not 22% with a slow tail.
var steadyGen = fuzzer.GenConfig{Frags: 16, NoSMC: true, NoIRQ: true, NoMMIO: true, NoFault: true}

func steadyInputs(seed uint64, sc Scale) ([]*image, int) {
	r := subseed(seed, "steady")
	draw := func(int) *image { return sizedProgram(r.next(), steadyGen, sc.SteadyInsns) }
	out := make([]*image, sc.SteadyPrograms)
	for i := range out {
		out[i] = draw(i)
	}
	return out, screen(out, draw)
}

// maxScreened caps how many programs one setup may redraw. The defect screen
// dodges turns up about once in a hundred thousand programs; a translator
// that refuses more than this many of a few hundred is broken, and its
// refusals stay in the laps as failed operations.
const maxScreened = 3

// refuses runs img once on the engine at its defaults and reports whether
// the engine gave up because its translator emitted code its own validator
// rejects.
func refuses(img *image) bool {
	_, _, err := runImage(img, cms.DefaultConfig(), nil, 0, -1)
	return err != nil && strings.Contains(err.Error(), "generated invalid code")
}

// screen replaces, from redraw, the programs the engine refuses to translate,
// and returns how many it redrew. The contract with the driver wants inputs
// on which no operation fails for any seed, and the translator at HEAD has a
// defect that a program's shape does not predict: when the register allocator
// hands a side exit's fix-up source to a late load, vliw.Code.Validate, which
// reads molecules in layout order rather than along branches, sees the exit
// stub read that register "before it is ready", and Engine.Run returns the
// error. Whether a program runs into it can only be learnt by running it, in
// full, since retranslation under a later policy schedules afresh; the engine
// is deterministic, so a program that ran once in setup runs in every lap.
// Nothing else is screened: a wrong final state, any other error or a program
// that does not halt stays in and is counted.
func screen(progs []*image, redraw func(i int) *image) int {
	bad := make([]bool, len(progs))
	parallel(len(progs), func(i int) { bad[i] = refuses(progs[i]) })
	n := 0
	for i := range progs {
		for bad[i] && n < maxScreened {
			n++
			progs[i] = redraw(i)
			bad[i] = refuses(progs[i])
		}
	}
	return n
}

// churnInputs draws programs with every generator gate on until each SMC
// class has its quota. The quota fixes the mix of recovery behaviour, which
// a free draw of a few dozen programs would leave to the seed: the classes
// differ 2x in speed. Programs of the thrash class are skipped: at HEAD most
// of them retranslate once per outer trip (1-3 guest MIPS against 20-40), so
// the handful a draw contains would be half the lap and their count would
// swing it.
func churnInputs(seed uint64, sc Scale) ([]*image, int) {
	r := subseed(seed, "churn")
	want := sc.ChurnQuota
	var out []*image
	var classes []smcClass
	for want[smcNone]+want[smcHostile]+want[smcStylized] > 0 {
		pseed := r.next()
		c := classify(fuzzer.MustBuild(pseed, fuzzer.GenConfig{}))
		if c == smcThrash || want[c] == 0 {
			continue
		}
		want[c]--
		out = append(out, sizedProgram(pseed, fuzzer.GenConfig{}, sc.ChurnInsns[c]))
		classes = append(classes, c)
	}
	// A screened program is replaced by the next draw of its own class.
	return out, screen(out, func(i int) *image {
		for {
			pseed := r.next()
			if classify(fuzzer.MustBuild(pseed, fuzzer.GenConfig{})) == classes[i] {
				return sizedProgram(pseed, fuzzer.GenConfig{}, sc.ChurnInsns[classes[i]])
			}
		}
	})
}

// coldInputs are many distinct short programs at the generator's defaults:
// two dozen outer trips, below the translation threshold for all but inner
// loops.
func coldInputs(seed uint64, sc Scale) ([]*image, int) {
	r := subseed(seed, "cold")
	draw := func(int) *image {
		p := fuzzer.MustBuild(r.next(), fuzzer.GenConfig{})
		return fromProgram(p, p.Budget)
	}
	out := make([]*image, sc.ColdPrograms)
	for i := range out {
		out[i] = draw(i)
	}
	return out, screen(out, draw)
}

// farmJob is one job of a farm_mix lap and the key of its reference.
type farmJob struct {
	spec farm.JobSpec
	ref  string
}

// sourceRAM and sourceBudget mirror what the farm gives a source job.
const (
	sourceRAM    = 1 << 21
	sourceBudget = 100_000_000
)

// The unique jobs' g86 templates. Each %d/%#x is drawn per job, so every
// instance is a program the shared store has never seen; trip counts put a
// job between Scale.UniqueInsns[0] and [1] guest instructions.
var templates = []struct {
	perTrip uint64 // guest instructions per loop trip
	src     string
}{
	{6, ` ; rolling checksum through one memory cell
.org 0x1000
	mov ecx, %[1]d
	mov eax, %#[2]x
loop:
	imul eax, %#[3]x
	add eax, ecx
	xor eax, %#[4]x
	mov [0x8000], eax
	dec ecx
	jne loop
	out 0x3f8, eax
	hlt
`},
	{9, ` ; fill a table, then fold it
.org 0x1000
	mov ecx, %[1]d
	mov ebx, %#[2]x
fill:
	mov esi, ecx
	and esi, 0x3ff
	add ebx, %#[3]x
	mov [0x9000+esi*4], ebx
	mov edx, [0x9000+esi*4]
	xor eax, edx
	shl eax, 1
	dec ecx
	jne fill
	xor eax, %#[4]x
	out 0x3f8, eax
	hlt
`},
	{10, ` ; call a leaf per trip
.org 0x1000
	mov ecx, %[1]d
	mov eax, %#[2]x
trip:
	call leaf
	dec ecx
	jne trip
	out 0x3f8, eax
	hlt
leaf:
	mov edx, eax
	shr edx, 3
	xor eax, edx
	add eax, %#[3]x
	and edx, %#[4]x
	add eax, edx
	ret
`},
	{9, ` ; data-dependent branch on an LCG
.org 0x1000
	mov ecx, %[1]d
	mov eax, %#[2]x
	mov ebx, 0
step:
	imul eax, 0x19660d
	add eax, %#[3]x
	test eax, %#[4]x
	je even
	add ebx, eax
	jmp next
even:
	sub ebx, ecx
next:
	mov [0xa000], ebx
	dec ecx
	jne step
	out 0x3f8, ebx
	hlt
`},
}

func uniqueSource(r *rng, sc Scale) string {
	t := templates[r.intn(len(templates))]
	trips := r.between(sc.UniqueInsns[0], sc.UniqueInsns[1]) / t.perTrip
	// The test mask keeps one low bit so the branch goes both ways.
	return fmt.Sprintf(t.src, trips, uint32(r.next()), uint32(r.next())|1, uint32(r.next())|0x10)
}

// farmInputs builds every lap's job list. Per lap each of the suite's named
// workloads appears exactly FarmRounds times — the suite spans 30k to 1.5M
// instructions, so a free draw would let the seed set the lap's length — and
// FarmUnique source jobs are generated fresh; the seed shuffles the order.
func farmInputs(seed uint64, sc Scale, laps int) [][]farmJob {
	r := subseed(seed, "farm_mix")
	names := sc.suite()
	out := make([][]farmJob, laps)
	for l := range out {
		var jobs []farmJob
		for k := 0; k < sc.FarmRounds; k++ {
			for _, w := range names {
				jobs = append(jobs, farmJob{spec: farm.JobSpec{Workload: w.Name}, ref: w.Name})
			}
		}
		for k := 0; k < sc.FarmUnique; k++ {
			src := uniqueSource(r, sc)
			jobs = append(jobs, farmJob{spec: farm.JobSpec{Source: src}, ref: src})
		}
		for i := len(jobs) - 1; i > 0; i-- {
			j := r.intn(i + 1)
			jobs[i], jobs[j] = jobs[j], jobs[i]
		}
		out[l] = jobs
	}
	return out
}

// jobImage builds a job's guest image the way the farm will.
func jobImage(spec farm.JobSpec) (*image, error) {
	if spec.Workload != "" {
		w, err := workload.ByName(spec.Workload)
		if err != nil {
			return nil, err
		}
		img := w.Build()
		return &image{org: img.Org, entry: img.Entry, ram: img.RAM, data: img.Data, disk: img.Disk, budget: img.Budget}, nil
	}
	prog, err := asm.Assemble(spec.Source)
	if err != nil {
		return nil, err
	}
	return &image{org: prog.Org, entry: prog.Entry(), ram: sourceRAM, stackTop: sourceRAM / 2,
		data: prog.Image, budget: sourceBudget}, nil
}

// digester accumulates the input digest: every generated image and job spec,
// in the order the workload will run them.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) u64(v uint64) {
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], v)
	d.h.Write(w[:])
}

func (d *digester) bytes(b []byte) {
	d.u64(uint64(len(b)))
	d.h.Write(b)
}

func (d *digester) image(im *image) {
	d.u64(uint64(im.org))
	d.u64(uint64(im.entry))
	d.u64(uint64(im.ram))
	d.u64(uint64(im.stackTop))
	d.u64(im.budget)
	d.bytes(im.data)
	d.bytes(im.disk)
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }
