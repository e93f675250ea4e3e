package mem

import "fmt"

// PageData is one non-zero RAM page in a BusState.
type PageData struct {
	Index uint32 `json:"index"`
	Data  []byte `json:"data"`
}

// BusState is the serializable state of a Bus: sparse RAM (zero pages are
// omitted), per-page guest attributes, the CMS protection state, and the
// per-page modification generations. MMIO regions and port mappings are NOT
// part of the state — they are topology, re-created by whoever builds the
// platform — but the generations ARE, because cached decodings made before
// a snapshot must stay valid after restore exactly when they would have
// stayed valid without one.
type BusState struct {
	NumPages   uint32     `json:"num_pages"`
	Pages      []PageData `json:"pages"`
	Attrs      []Attr     `json:"attrs"`
	Protected  []bool     `json:"protected"`
	FineGrain  []bool     `json:"fine_grain"`
	FineMask   []uint32   `json:"fine_mask"`
	Gen        []uint64   `json:"gen"`
	FGCache    []uint32   `json:"fg_cache"`
	FGCacheCap int        `json:"fg_cache_cap"`
	Stats      BusStats   `json:"stats"`
}

// ExportState captures the bus into a BusState. Zero-filled pages are
// compressed away; everything else is copied, so the state is independent
// of later bus mutations. Only backed pages are examined, so the cost follows
// the write set, not the RAM size; a page written and then zeroed again is
// still elided, so the state does not depend on how it was reached.
func (b *Bus) ExportState() *BusState {
	n := b.NumPages()
	s := &BusState{
		NumPages:   n,
		Attrs:      make([]Attr, n),
		Protected:  append([]bool(nil), b.protected...),
		FineGrain:  append([]bool(nil), b.fineGrain...),
		FineMask:   append([]uint32(nil), b.fineMask...),
		Gen:        make([]uint64, n),
		FGCache:    append([]uint32(nil), b.fgCache...),
		FGCacheCap: b.fgCacheCap,
		Stats:      b.Stats,
	}
	for p, pg := range b.pages {
		s.Attrs[p], s.Gen[p] = pg.attr, pg.gen
		if pg.ram != nil && !allZero(pg.ram[:]) {
			s.Pages = append(s.Pages, PageData{Index: uint32(p), Data: append([]byte(nil), pg.ram[:]...)})
		}
	}
	return s
}

// maxGen bounds the generations RestoreState accepts. A real generation
// counts writes to one page and cannot come near it; an envelope that says
// otherwise is trying to make the guest's next store wrap the counter back
// to 0, the one value that means "never written".
const maxGen = 1 << 62

// RAMSize checks that the state is well-formed — every per-page array as
// long as NumPages says, every page in range and whole, every generation
// plausible — and returns the RAM size in bytes of the bus it restores
// onto. It looks at nothing but the state, so a caller can size (or refuse)
// an allocation before making it.
func (s *BusState) RAMSize() (uint32, error) {
	n := s.NumPages
	if n >= 1<<(32-PageShift) {
		return 0, fmt.Errorf("mem: snapshot has %d pages, more than a bus can hold", n)
	}
	if uint32(len(s.Attrs)) != n || uint32(len(s.Protected)) != n ||
		uint32(len(s.FineGrain)) != n || uint32(len(s.FineMask)) != n ||
		uint32(len(s.Gen)) != n {
		return 0, fmt.Errorf("mem: snapshot page-array lengths do not match %d pages", n)
	}
	for _, pg := range s.Pages {
		if pg.Index >= n {
			return 0, fmt.Errorf("mem: snapshot page %d beyond RAM (%d pages)", pg.Index, n)
		}
		if len(pg.Data) != PageSize {
			return 0, fmt.Errorf("mem: snapshot page %d has %d bytes", pg.Index, len(pg.Data))
		}
	}
	for p, g := range s.Gen {
		if g > maxGen {
			return 0, fmt.Errorf("mem: snapshot page %d has implausible generation %d", p, g)
		}
	}
	return n << PageShift, nil
}

// RestoreState overwrites the bus with a previously exported state. The bus
// must have the same RAM size the state was captured from. Generations are
// restored verbatim — NOT bumped — so content caches filled before capture
// remain exactly as valid as they were; the pages populated get backing, so
// they stay visible to Reset and ExportState whatever generation they carry.
// A state that fails validation leaves the bus untouched. MMIO and port
// mappings and the hooks are topology and are left alone.
func (b *Bus) RestoreState(s *BusState) error {
	size, err := s.RAMSize()
	if err != nil {
		return err
	}
	if size != b.RAMSize() {
		return fmt.Errorf("mem: snapshot has %d pages, bus has %d", s.NumPages, b.NumPages())
	}
	b.scrubRAM()
	for _, pg := range s.Pages {
		copy(b.page(pg.Index)[:], pg.Data)
	}
	for p := range b.pages {
		b.pages[p].attr, b.pages[p].gen = s.Attrs[p], s.Gen[p]
	}
	copy(b.protected, s.Protected)
	copy(b.fineGrain, s.FineGrain)
	copy(b.fineMask, s.FineMask)
	b.fgCache = append(b.fgCache[:0], s.FGCache...)
	if s.FGCacheCap > 0 {
		b.fgCacheCap = s.FGCacheCap
	}
	if len(b.fgCache) > b.fgCacheCap {
		b.fgCache = b.fgCache[:b.fgCacheCap]
	}
	b.Stats = s.Stats
	return nil
}

func allZero(p []byte) bool {
	for _, v := range p {
		if v != 0 {
			return false
		}
	}
	return true
}
