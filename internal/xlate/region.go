package xlate

import (
	"errors"
	"fmt"
	"slices"

	"cms/internal/guest"
	"cms/internal/interp"
	"cms/internal/mem"
)

// ErrUntranslatable reports that no translation can usefully be made at an
// address (the first instruction is a system instruction or undecodable).
// The runtime responds by interpreting that instruction forever (the
// "zero-instruction translation" of §3.2).
var ErrUntranslatable = errors.New("xlate: untranslatable at region entry")

// followBias is the branch bias beyond which the trace follows a
// conditional branch's dominant direction instead of ending.
const followBias = 0.7

// maxInsnFetch bounds one instruction fetch.
const maxInsnFetch = 16

// selectRegion grows a trace from entry: straight-line code, followed
// unconditional jumps, and the dominant side of strongly biased conditional
// branches (per the interpreter's branch profile). The trace ends before HLT
// and INT, after indirect control flow (IRET included), at unbiased
// branches, a revisited address (loop closure), or the policy's instruction
// cap.
func selectRegion(bus *mem.Bus, prof *interp.Profile, entry uint32, pol Policy) ([]guest.Insn, error) {
	// The trace grows in a stack buffer that covers the default cap and is
	// handed back exactly sized.
	var buf [DefaultMaxInsns]guest.Insn
	insns, err := growTrace(buf[:0], bus, prof, entry, pol)
	return slices.Clone(insns), err
}

// growTrace appends the trace from entry to insns (empty on entry).
func growTrace(insns []guest.Insn, bus *mem.Bus, prof *interp.Profile, entry uint32, pol Policy) ([]guest.Insn, error) {
	// visits counts an address's occurrences in the trace so far: the key
	// range is the trace itself, so no table is needed.
	visits := func(pc uint32) int {
		n := 0
		for i := range insns {
			if insns[i].Addr == pc {
				n++
			}
		}
		return n
	}
	unroll := pol.EffUnroll()
	pc := entry
	var buf [maxInsnFetch]byte

	for len(insns) < pol.EffMaxInsns() {
		if visits(pc) >= unroll {
			break // unroll budget spent: exit chains back around
		}
		n := bus.FetchBytes(pc, buf[:])
		if n == 0 {
			break
		}
		in, err := guest.Decode(buf[:n], pc)
		if err != nil {
			break
		}
		if f := bus.CheckFetch(pc, int(in.Len)); f != nil {
			break
		}
		switch in.Op {
		case guest.OpHLT, guest.OpINT:
			// HLT and INT are left to the interpreter; the trace ends just
			// before them. IRET is only two pops and an indirect jump, so
			// it is translated like RET.
			if len(insns) == 0 {
				return nil, fmt.Errorf("%w: %s at %#x", ErrUntranslatable, in.Op.Name(), pc)
			}
			return insns, nil
		}
		insns = append(insns, in)

		switch {
		case in.Op == guest.OpJMPrel:
			pc = in.BranchTarget()
		case in.Op == guest.OpJMPr || in.Op == guest.OpJMPm ||
			in.Op == guest.OpCALLrel || in.Op == guest.OpCALLr || in.Op == guest.OpRET ||
			in.Op == guest.OpIRET:
			// Indirect or call/return flow ends the trace (the exit handles
			// the transfer).
			return insns, nil
		default:
			if _, jcc := in.Op.IsJcc(); jcc {
				bias := 0.5
				if prof != nil {
					if s, ok := prof.Branches[in.Addr]; ok {
						bias = s.Bias()
					}
				}
				switch {
				case bias >= followBias && visits(in.BranchTarget()) < unroll:
					pc = in.BranchTarget()
				case bias <= 1-followBias:
					pc = in.Next()
				default:
					return insns, nil
				}
			} else {
				pc = in.Next()
			}
		}
	}
	if len(insns) == 0 {
		return nil, fmt.Errorf("%w: no decodable instruction at %#x", ErrUntranslatable, entry)
	}
	return insns, nil
}
