package xlate

import (
	"reflect"
	"testing"

	"cms/internal/ir"
	"cms/internal/vliw"
)

// TranslatePoisoned is Request.Translate on a scratch of its own that is
// overwritten with junk — every buffer, to its full capacity — before the
// Translation is handed back: whatever the Translation still shares with
// the scratch no longer reads as what was translated.
func TranslatePoisoned(req *Request) (*Translation, error) {
	sc := new(scratch)
	t, err := req.translate(sc)
	sc.poison()
	return t, err
}

func scribble[T any](s []T, junk T) {
	s = s[:cap(s)]
	for i := range s {
		s[i] = junk
	}
}

func (sc *scratch) poison() {
	const j = 0x5A5A5A5A
	badInstr := ir.Instr{Op: ir.OpDivS, Dst: 0x5A5A, Dst2: 0x5A5A, A: 0x5A5A, B: 0x5A5A, C: 0x5A5A,
		Imm: j, Exit: j, FIn: 0x5A5A, FOut: 0x5A5A, GIdx: j, Serialize: true, SMCCheck: true}
	badAtom := vliw.Atom{Op: vliw.ADivS, Rd: 0x5A, Rd2: 0x5A, Ra: 0x5A, Rb: 0x5A, Rc: 0x5A, Imm: j,
		Fs: 0x5A, Fd: 0x5A, Size: 0x5A, Reordered: true, ProtIdx: 0x5A, CheckMask: j, Target: j, GIdx: 0x5A5A}
	scribble(sc.fixups, ir.Fixup{Guest: 0x5A5A, Src: 0x5A5A})
	scribble(sc.region.Code, badInstr)
	scribble(sc.region.Exits, ir.Exit{Kind: 0x5A, Target: j, Insns: j, Fixups: sc.fixups[:cap(sc.fixups)]})
	sc.region.Insns = nil
	scribble(sc.spare, badInstr)
	scribble(sc.vregs, 0x5A5A)
	scribble(sc.ver, j)
	scribble(sc.val, valInfo{kind: 0x5A, c: j, src: 0x5A5A, ver: j})
	scribble(sc.live, true)
	scribble(sc.keep, true)
	for k := range sc.cseTab {
		sc.cseTab[k] = cseBinding{v: 0x5A5A, ver: j}
	}
	scribble(sc.assign, 0x5A)
	scribble(sc.starts, j)
	scribble(sc.ends, j)
	scribble(sc.intervals, interval{v: 0x5A5A, start: j, end: j})
	scribble(sc.ranges, ir.SrcRange{Addr: j, Len: j})
	scribble(sc.words, checkWord{addr: j, want: j, mask: j})
	scribble(sc.atoms, satom{a: badAtom, isLoad: true, isStore: true, isExit: true, exitIdx: j, fixOff: j, fixN: j})
	scribble(sc.fixAtoms, badAtom)
	scribble(sc.preds, dep{atom: j, delta: j})
	scribble(sc.succs, dep{atom: j, delta: j})
	scribble(sc.ints, j)
	for r := range sc.lastUses {
		scribble(sc.lastUses[r], j)
	}
	scribble(sc.regs, 0x5A)
	for _, list := range [][]int{sc.loadsSinceExit, sc.divsSinceExit, sc.storesSince,
		sc.uncheckedLoads, sc.cands, sc.taken, sc.molLen, sc.stubAtoms} {
		scribble(list, j)
	}
	scribble(sc.stubAt, j)
}

// poisonedFields is how many fields of scratch poison overwrites: all of
// them. A field added to scratch must be added to poison too.
const poisonedFields = 31

func TestPoisonCoversScratch(t *testing.T) {
	if n := reflect.TypeOf(scratch{}).NumField(); n != poisonedFields {
		t.Fatalf("scratch has %d fields, poison() knows %d: extend it", n, poisonedFields)
	}
}
