package xlate

import (
	"testing"

	"cms/internal/asm"
	"cms/internal/interp"
	"cms/internal/mem"
)

// keyTestTranslator assembles a small program and returns a translator over
// a bus holding it.
func keyTestTranslator(t *testing.T, src string) (*Translator, uint32) {
	t.Helper()
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	bus := mem.NewBus(1 << 20)
	bus.WriteRaw(prog.Org, prog.Image)
	return &Translator{Bus: bus, Prof: interp.NewProfile()}, prog.Entry()
}

const keyTestSrc = `
.org 0x1000
_start:
	mov ecx, 10
loop:
	add eax, ecx
	dec ecx
	jne loop
	hlt
`

func TestKeyDeterministic(t *testing.T) {
	tr, entry := keyTestTranslator(t, keyTestSrc)
	r1, err := tr.Prepare(entry, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := tr.Prepare(entry, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Key() != r2.Key() {
		t.Error("identical requests must hash identically")
	}
	if r1.Key() != r1.Key() {
		t.Error("Key must be stable across calls")
	}
}

func TestKeyCoversInputs(t *testing.T) {
	tr, entry := keyTestTranslator(t, keyTestSrc)
	base, err := tr.Prepare(entry, Policy{})
	if err != nil {
		t.Fatal(err)
	}

	// Policy scalar knobs and per-address sets must reach the hash.
	for name, pol := range map[string]Policy{
		"noreorder": {NoReorderMem: true},
		"selfcheck": {SelfCheck: true},
		"maxinsns":  {MaxInsns: 8},
		"serialize": (Policy{}).WithSerialize(entry),
		"immload":   (Policy{}).WithImmLoad(entry),
	} {
		r, err := tr.Prepare(entry, pol)
		if err != nil {
			t.Fatal(err)
		}
		if r.Key() == base.Key() {
			t.Errorf("policy %s did not change the key", name)
		}
	}

	// Source bytes must reach the hash: change an immediate and re-prepare.
	tr2, entry2 := keyTestTranslator(t, `
.org 0x1000
_start:
	mov ecx, 11
loop:
	add eax, ecx
	dec ecx
	jne loop
	hlt
`)
	r2, err := tr2.Prepare(entry2, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Key() == base.Key() {
		t.Error("differing source bytes did not change the key")
	}

	// MMIO profile bits must reach the hash.
	tr3, entry3 := keyTestTranslator(t, keyTestSrc)
	tr3.Prof.MMIOInsns[entry3] = true
	r3, err := tr3.Prepare(entry3, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if r3.Key() == base.Key() {
		t.Error("MMIO profile bit did not change the key")
	}
}

// TestKeyBackendTag: engines on different code-gen backends may share one
// store, so a risc request never keys like a vliw one; and "vliw" keys
// exactly like the empty tag, so keys from before the tag existed — and the
// snapshots and stores holding them — stay valid.
func TestKeyBackendTag(t *testing.T) {
	keyFor := func(backend string) Key {
		tr, entry := keyTestTranslator(t, keyTestSrc)
		tr.CompileBackend = true
		tr.Backend = backend
		req, err := tr.Prepare(entry, Policy{})
		if err != nil {
			t.Fatal(err)
		}
		return req.Key()
	}
	untagged := keyFor("")
	if keyFor(BackendVLIW) != untagged {
		t.Error("a vliw request keys unlike an untagged one")
	}
	if keyFor(BackendRISC) == untagged {
		t.Error("a risc request keys like a vliw one")
	}
}

// TestKeyedTranslationsIdentical is the sharing contract: equal keys must
// yield translations with identical code, so a farm may serve one VM's
// translation to another.
func TestKeyedTranslationsIdentical(t *testing.T) {
	trA, entryA := keyTestTranslator(t, keyTestSrc)
	trB, entryB := keyTestTranslator(t, keyTestSrc)
	trA.CompileBackend = true
	trB.CompileBackend = true
	ra, err := trA.Prepare(entryA, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := trB.Prepare(entryB, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if ra.Key() != rb.Key() {
		t.Fatal("same program in two VMs must hash identically")
	}
	ta, err := ra.Translate()
	if err != nil {
		t.Fatal(err)
	}
	tb, err := rb.Translate()
	if err != nil {
		t.Fatal(err)
	}
	if ta.CodeAtoms() != tb.CodeAtoms() || ta.CodeMolecules() != tb.CodeMolecules() ||
		len(ta.Insns) != len(tb.Insns) || len(ta.Exits) != len(tb.Exits) {
		t.Errorf("equal keys produced different translations: %d/%d atoms, %d/%d mols",
			ta.CodeAtoms(), tb.CodeAtoms(), ta.CodeMolecules(), tb.CodeMolecules())
	}
}

func TestCloneIsolatesInstallState(t *testing.T) {
	tr, entry := keyTestTranslator(t, keyTestSrc)
	tr.CompileBackend = true
	req, err := tr.Prepare(entry, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	art, err := req.Translate()
	if err != nil {
		t.Fatal(err)
	}
	c1, c2 := art.Clone(), art.Clone()
	if c1.Code != art.Code || c1.Compiled != art.Compiled {
		t.Error("clone must share the immutable build products")
	}
	// A clone building its prologue must not touch the artifact or siblings.
	if _, _, _, err := c1.Prologue(); err != nil {
		t.Fatal(err)
	}
	if art.prologue != nil || c2.prologue != nil {
		t.Error("prologue build leaked across clones")
	}
	// Teardown nils Compiled on the clone only.
	c1.Compiled = nil
	if art.Compiled == nil || c2.Compiled == nil {
		t.Error("clone teardown mutated the shared artifact")
	}
}
