package xlate

import (
	"errors"
	"fmt"
	"slices"

	"cms/internal/guest"
	"cms/internal/interp"
	"cms/internal/ir"
	"cms/internal/mem"
	"cms/internal/risc"
	"cms/internal/vliw"
)

// Translation is the unit the translation cache stores: scheduled VLIW code
// for one guest region, plus the metadata the runtime needs for chaining,
// invalidation, self-checking, and adaptive retranslation.
type Translation struct {
	Entry  uint32
	Insns  []guest.Insn
	Exits  []ir.Exit
	Code   *vliw.Code
	Policy Policy

	// Compiled is the step-array form of Code, built at translation time
	// when the translator's CompileBackend is on and the backend is vliw.
	// Nil means the engine interprets Code; the translation cache
	// nils it when an entry is replaced in place so stale compiled code can
	// never run.
	Compiled *vliw.CompiledCode

	// Risc is the register-IR form of Code, built instead of Compiled when
	// the translator's Backend is BackendRISC. At most one of Compiled and
	// Risc is non-nil; the cache teardown rules apply to both identically.
	Risc *risc.Code

	// SharedKey is the content key this artifact was stored under when it
	// came out of a farm's shared store (HasSharedKey reports whether it
	// did). Clones inherit it, so a VM that hits trouble while executing a
	// store-sourced translation can name the implicated artifact for
	// quarantine. Translations produced outside a store carry no key.
	SharedKey    Key
	HasSharedKey bool

	// SrcRanges are the coalesced guest code byte ranges this translation
	// was made from.
	SrcRanges []ir.SrcRange
	// Snapshot holds the source bytes per range as of translation time.
	Snapshot [][]byte
	// Mask holds per-byte compare masks (0xFF = must match); bytes of
	// stylized immediate fields are 0x00.
	Mask [][]byte

	// Req is the frozen request this translation was built from. Because
	// the backend is a pure function of the request, Req is everything a
	// snapshot needs to rebuild the translation bit-identically (or fetch
	// it from a shared store: Req.Key() is the content address). Clones
	// share it; it is immutable after Prepare.
	Req *Request

	prologue     *vliw.Code
	prologueCC   *vliw.CompiledCode
	prologuePass int
	prologueFail int
}

// GuestLen returns the number of guest instructions covered.
func (t *Translation) GuestLen() int { return len(t.Insns) }

// Clone returns a per-VM installable view of a shared translation artifact.
// The immutable build products — scheduled code, the backend's executable
// form (compiled closures or risc register IR, both of which take the
// executing Machine as a parameter and hold no VM state), the instruction
// list, exits, source ranges, snapshot, and mask — are shared; the mutable
// install-side state is not: the clone builds its own prologue lazily, and
// cache teardown (which nils Compiled/Risc on in-place replacement)
// touches only the clone. A shared-store artifact is therefore frozen
// forever: it is cloned at every install and never installed itself.
func (t *Translation) Clone() *Translation {
	c := *t
	c.prologue = nil
	c.prologueCC = nil
	c.prologuePass = 0
	c.prologueFail = 0
	return &c
}

// CodeAtoms returns the static code size in atoms.
func (t *Translation) CodeAtoms() int { return t.Code.NumAtoms() }

// CodeMolecules returns the static code size in molecules.
func (t *Translation) CodeMolecules() int { return len(t.Code.Mols) }

// Pages returns the distinct guest pages holding source bytes.
func (t *Translation) Pages() []uint32 {
	seen := make(map[uint32]bool)
	var out []uint32
	for _, r := range t.SrcRanges {
		for p := mem.PageOf(r.Addr); p <= mem.PageOf(r.Addr+r.Len-1); p++ {
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	return out
}

// Chunks returns, per page, the fine-grain chunk mask of source bytes
// (§3.6.1).
func (t *Translation) Chunks() map[uint32]uint32 {
	out := make(map[uint32]uint32)
	for _, r := range t.SrcRanges {
		for a := r.Addr; a < r.Addr+r.Len; a += mem.ChunkSize {
			out[mem.PageOf(a)] |= 1 << mem.ChunkOf(a)
		}
		last := r.Addr + r.Len - 1
		out[mem.PageOf(last)] |= 1 << mem.ChunkOf(last)
	}
	return out
}

// Covers reports whether addr lies in the translation's source bytes.
func (t *Translation) Covers(addr uint32) bool {
	for _, r := range t.SrcRanges {
		if addr >= r.Addr && addr < r.Addr+r.Len {
			return true
		}
	}
	return false
}

// CoversRange reports whether [addr, addr+n) intersects the source bytes.
func (t *Translation) CoversRange(addr uint32, n int) bool {
	for _, r := range t.SrcRanges {
		if addr < r.Addr+r.Len && r.Addr < addr+uint32(n) {
			return true
		}
	}
	return false
}

// SourceMatches compares the current memory contents against the snapshot,
// honoring the stylized-immediate mask — the comparison the prologue of a
// self-revalidating translation performs (§3.6.2) and translation groups
// use to find a matching old version (§3.6.5).
func (t *Translation) SourceMatches(bus *mem.Bus) bool {
	for ri, r := range t.SrcRanges {
		cur := bus.ReadRaw(r.Addr, int(r.Len))
		snap := t.Snapshot[ri]
		mask := t.Mask[ri]
		for i := range snap {
			if (cur[i]^snap[i])&mask[i] != 0 {
				return false
			}
		}
	}
	return true
}

// Prologue returns the self-revalidation check code (built on first use)
// and the exit indices meaning "source unchanged, run the body" and
// "source changed".
func (t *Translation) Prologue() (code *vliw.Code, pass, fail int, err error) {
	if t.prologue == nil {
		t.prologue, t.prologuePass, t.prologueFail, err = buildCheckCode(t)
		if err != nil {
			return nil, 0, 0, err
		}
	}
	return t.prologue, t.prologuePass, t.prologueFail, nil
}

// CompiledPrologue returns the prologue's code in vliw.Compile's step-array
// form, compiled on first use: nil until Prologue has built the code.
func (t *Translation) CompiledPrologue() *vliw.CompiledCode {
	if t.prologueCC == nil {
		t.prologueCC = vliw.Compile(t.prologue)
	}
	return t.prologueCC
}

// checkWordsFor enumerates the 32-bit comparison units over the snapshot,
// into the scratch's word buffer.
func (sc *scratch) checkWordsFor(t *Translation) []checkWord {
	words := sc.words[:0]
	for ri, r := range t.SrcRanges {
		snap, mask := t.Snapshot[ri], t.Mask[ri]
		for off := uint32(0); off < r.Len; off += 4 {
			var want, m uint32
			for b := uint32(0); b < 4 && off+b < r.Len; b++ {
				want |= uint32(snap[off+b]) << (8 * b)
				m |= uint32(mask[off+b]) << (8 * b)
			}
			if m == 0 {
				continue
			}
			words = append(words, checkWord{addr: r.Addr + off, want: want, mask: m})
		}
	}
	sc.words = words
	return words
}

// buildCheckCode builds a standalone source-verification code unit (the
// §3.6.2 prologue) over t's snapshot: exit pass if every word matches, exit
// fail otherwise. It commits nothing and touches only temporaries.
func buildCheckCode(t *Translation) (code *vliw.Code, pass, fail int, err error) {
	sc := getScratch()
	defer sc.release()
	reg := &sc.region
	*reg = ir.Region{Code: reg.Code[:0], Exits: reg.Exits[:0]}
	em := newEmitter(sc, reg, Policy{}, vliw.TM5800(), nil)
	// Reuse the self-check emitter but without alias entries (a prologue
	// runs at a boundary; there are no stores to guard against).
	em.aliasNext = vliw.AliasTableSize // exhaust entries: none allocated
	em.emitSelfCheck(sc.checkWordsFor(t), vliw.RTempLast, vliw.RTempLast-1, vliw.RTempLast-2)
	fail = int(em.failExit)
	passExit := reg.AddExit(ir.Exit{Kind: ir.ExitJump})
	a := vliw.Atom{Op: vliw.AExit, Imm: uint32(passExit), Commit: false, GIdx: -1, ProtIdx: vliw.NoAliasIdx}
	sa := em.push(satom{a: a, isExit: true})
	sa.exitIdx = passExit
	em.buildDeps()
	code, err = em.schedule()
	if err != nil {
		return nil, 0, 0, err
	}
	if verr := code.Validate(); verr != nil {
		return nil, 0, 0, fmt.Errorf("xlate: prologue validation: %w", verr)
	}
	return code, int(passExit), fail, nil
}

// Translator turns hot guest regions into Translations.
type Translator struct {
	Bus  *mem.Bus
	Prof *interp.Profile

	// Host is the target microarchitecture generation (zero value: TM5800).
	// Retargeting the translator is all it takes to move to new hardware —
	// the guest-visible architecture is unaffected (§2).
	Host vliw.HostConfig

	// CompileBackend makes Translate also compile the scheduled code into
	// the backend's executable form — step-array vliw.Compile by
	// default, risc.Lower when Backend is BackendRISC. The compile is part
	// of Translate, so a shared store that serves the artifact serves the
	// executable form with it.
	CompileBackend bool

	// Backend selects the code-gen backend for the executable form:
	// BackendVLIW (or empty) for the step-array vliw backend,
	// BackendRISC for the register-IR backend. The tag is part of
	// Request.Key, so artifacts from different backends never dedup onto
	// each other in a shared store.
	Backend string

	// Translated counts successful translations; InsnsTranslated counts
	// guest instructions they covered (the translator work metric).
	Translated      uint64
	InsnsTranslated uint64
}

// selfCheckReserve is how many host registers the self-check machinery
// reserves from the allocator.
const selfCheckReserve = 3

// host returns the effective target microarchitecture.
func (tr *Translator) host() vliw.HostConfig {
	if tr.Host.Width == 0 {
		return vliw.TM5800()
	}
	return tr.Host
}

// Translate builds a translation for the region starting at entry under the
// given policy. It shrinks the region and retries on register pressure, and
// returns ErrUntranslatable when no region can be formed at all.
func (tr *Translator) Translate(entry uint32, pol Policy) (*Translation, error) {
	req, err := tr.Prepare(entry, pol)
	if err != nil {
		return nil, err
	}
	t, err := req.Translate()
	if err != nil {
		return nil, err
	}
	tr.Translated++
	tr.InsnsTranslated += uint64(len(t.Insns))
	return t, nil
}

// Request is a frozen translation request: the region selection plus every
// byte of input the backend needs, captured synchronously from the live bus
// and profile. Once built, a Request shares no mutable state with the
// running guest, so Translate is a pure function of it: a shared store can
// run it for any VM, and snapshot restore can replay it later.
type Request struct {
	Entry uint32
	Pol   Policy

	// insns is the trace selected at the policy's full instruction cap.
	// Register-pressure retries re-lower a prefix of it: selectRegion's
	// walk depends on the cap only through its loop bound, so selection at
	// a smaller cap IS the prefix of this list.
	insns []guest.Insn
	// ranges/bytes are the coalesced source ranges of the full trace and
	// their contents at capture time; retries snapshot from these, never
	// from the live bus.
	ranges []ir.SrcRange
	bytes  [][]byte
	// mmio flags, by trace index, the instructions the interpreter's profile
	// saw touching MMIO — the one profile input lowering reads. Nil when
	// none did, which is nearly always.
	mmio []bool
	host vliw.HostConfig
	// compile is the translator's CompileBackend, frozen at Prepare time.
	compile bool
	// backend is the translator's normalized Backend ("" for vliw,
	// BackendRISC for risc), frozen at Prepare time and folded into Key.
	backend string
}

// Code-gen backend tags. The empty string and BackendVLIW are equivalent
// everywhere: both select the step-array vliw backend and both hash
// to the identical (untagged) content key, so pre-risc snapshots and
// stores stay compatible.
const (
	BackendVLIW = "vliw"
	BackendRISC = "risc"
)

// normBackend canonicalizes a backend tag: vliw (and empty) normalize to
// "", so only risc-built artifacts carry a tag.
func normBackend(b string) string {
	if b == BackendVLIW {
		return ""
	}
	return b
}

// Backend returns the request's normalized backend tag ("" means vliw).
func (req *Request) Backend() string { return req.backend }

// Prepare runs the front end of translation — region selection and source
// capture — against the live bus, and returns a self-contained Request for
// the backend. It returns ErrUntranslatable when no region can be formed.
func (tr *Translator) Prepare(entry uint32, pol Policy) (*Request, error) {
	p := pol
	p.MaxInsns = p.EffMaxInsns()
	insns, err := selectRegion(tr.Bus, tr.Prof, entry, p)
	if err != nil {
		return nil, err
	}
	req := &Request{
		Entry:   entry,
		Pol:     pol,
		insns:   insns,
		ranges:  ir.SrcRangesOf(insns),
		host:    tr.host(),
		compile: tr.CompileBackend,
		backend: normBackend(tr.Backend),
	}
	req.bytes = make([][]byte, len(req.ranges))
	for ri, r := range req.ranges {
		req.bytes[ri] = tr.Bus.ReadRaw(r.Addr, int(r.Len))
	}
	if tr.Prof != nil && len(tr.Prof.MMIOInsns) > 0 {
		req.setMMIO(func(addr uint32) bool { return tr.Prof.MMIOInsns[addr] })
	}
	return req, nil
}

// setMMIO flags the trace's instructions whose address is in the set.
func (req *Request) setMMIO(in func(addr uint32) bool) {
	for gi := range req.insns {
		if in(req.insns[gi].Addr) {
			if req.mmio == nil {
				req.mmio = make([]bool, len(req.insns))
			}
			req.mmio[gi] = true
		}
	}
}

// mmioAddrs returns the flagged instructions' addresses, sorted, each once
// (an unrolled trace visits an address several times).
func (req *Request) mmioAddrs() []uint32 {
	var addrs []uint32
	for gi, flagged := range req.mmio {
		if flagged {
			addrs = append(addrs, req.insns[gi].Addr)
		}
	}
	slices.Sort(addrs)
	return slices.Compact(addrs)
}

// GuestLen returns the number of guest instructions in the captured trace.
func (req *Request) GuestLen() int { return len(req.insns) }

// Translate runs the backend — lower, optimize, allocate, emit, schedule —
// purely from the Request's captured inputs. It shrinks the region and
// retries on register pressure, exactly as the synchronous path does. Its
// working memory is a pooled scratch held for the duration of the call; the
// Translation it returns owns everything it points to.
func (req *Request) Translate() (*Translation, error) {
	sc := getScratch()
	t, err := req.translate(sc)
	sc.release()
	if err != nil {
		return nil, err
	}
	if req.compile {
		if req.backend == BackendRISC {
			t.Risc = risc.Lower(t.Code)
		} else {
			t.Compiled = vliw.Compile(t.Code)
		}
	}
	t.Req = req
	return t, nil
}

// translate produces the scheduled code on the given scratch.
func (req *Request) translate(sc *scratch) (*Translation, error) {
	cap := req.Pol.EffMaxInsns()
	for {
		t, err := req.translateOnce(sc, cap)
		if errors.Is(err, errRegPressure) && cap > 4 {
			cap /= 2
			continue
		}
		return t, err
	}
}

func (req *Request) translateOnce(sc *scratch, capInsns int) (*Translation, error) {
	p := req.Pol
	p.MaxInsns = capInsns
	insns, mmio, ranges := req.insns, req.mmio, req.ranges
	if capInsns < len(insns) {
		// A retry prefix: its source ranges are a subset of the capture's.
		insns = insns[:capInsns]
		if mmio != nil {
			mmio = mmio[:capInsns]
		}
		sc.ranges = ir.AppendSrcRanges(sc.ranges[:0], insns)
		ranges = slices.Clone(sc.ranges)
	}
	region, err := sc.lower(req.Entry, insns, p, mmio)
	if err != nil {
		return nil, err
	}
	sc.rename(region)
	sc.optimize(region)

	reserve := 0
	if p.SelfCheck {
		reserve = selfCheckReserve
	}
	assign, err := sc.regalloc(region, reserve)
	if err != nil {
		return nil, err
	}

	// The full trace's ranges are the request's own, which is immutable and
	// outlives the translation anyway (t.Req); only a prefix needs a copy.
	t := &Translation{
		Entry:     req.Entry,
		Insns:     insns,
		Policy:    p,
		SrcRanges: ranges,
	}
	t.snapshot(req, p)

	em := newEmitter(sc, region, p, req.host, assign)
	if p.SelfCheck {
		em.emitSelfCheck(sc.checkWordsFor(t), vliw.RTempLast, vliw.RTempLast-1, vliw.RTempLast-2)
	}
	if err := em.codegen(); err != nil {
		return nil, err
	}
	em.buildDeps()
	code, err := em.schedule()
	if err != nil {
		return nil, err
	}
	if verr := code.ValidateWith(req.host); verr != nil {
		return nil, fmt.Errorf("xlate: generated invalid code for %#x: %w", req.Entry, verr)
	}
	t.Code = code
	t.Exits = cloneExits(region.Exits)
	return t, nil
}

// cloneExits copies the region's exits out of the scratch: one exit array,
// and one array all their fix-ups are sliced from.
func cloneExits(exits []ir.Exit) []ir.Exit {
	out := slices.Clone(exits)
	nfix := 0
	for _, e := range exits {
		nfix += len(e.Fixups)
	}
	if nfix == 0 {
		return out
	}
	fixups := make([]ir.Fixup, 0, nfix)
	for i := range out {
		if n := len(out[i].Fixups); n > 0 {
			fixups = append(fixups, out[i].Fixups...)
			out[i].Fixups = fixups[len(fixups)-n : len(fixups) : len(fixups)]
		}
	}
	return out
}

// snapshot copies the source bytes of the translation's ranges out of the
// request's capture and builds the stylized-immediate mask. Every range's
// snapshot and mask is a slice of one array. (Every translated range lies
// inside one captured range: a retry prefix only ever covers a subset of
// the full trace's bytes.)
func (t *Translation) snapshot(req *Request, pol Policy) {
	n, total := len(t.SrcRanges), 0
	for _, r := range t.SrcRanges {
		total += int(r.Len)
	}
	index := make([][]byte, 2*n)
	t.Snapshot, t.Mask = index[:n:n], index[n:]
	buf := make([]byte, 2*total)
	for ri, r := range t.SrcRanges {
		k := int(r.Len)
		snap, mask := buf[:k:k], buf[k:2*k:2*k]
		buf = buf[2*k:]
		req.copyRaw(snap, r.Addr)
		for i := range mask {
			mask[i] = 0xFF
		}
		t.Snapshot[ri], t.Mask[ri] = snap, mask
	}
	if len(pol.ImmLoad) == 0 {
		return
	}
	for _, in := range t.Insns {
		if !pol.ImmLoad[in.Addr] || !in.HasImm32() {
			continue
		}
		for b := uint32(0); b < 4; b++ {
			t.maskByte(in.Addr + in.ImmOff + b)
		}
	}
}

// copyRaw fills dst with the captured source bytes at addr.
func (req *Request) copyRaw(dst []byte, addr uint32) {
	for ri, r := range req.ranges {
		if addr >= r.Addr && addr+uint32(len(dst)) <= r.Addr+r.Len {
			copy(dst, req.bytes[ri][addr-r.Addr:])
			return
		}
	}
	panic(fmt.Sprintf("xlate: snapshot read [%#x,+%d) outside captured ranges", addr, len(dst)))
}

func (t *Translation) maskByte(addr uint32) {
	for ri, r := range t.SrcRanges {
		if addr >= r.Addr && addr < r.Addr+r.Len {
			t.Mask[ri][addr-r.Addr] = 0
		}
	}
}
