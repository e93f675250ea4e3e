package xlate

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"sort"
)

// Key is the content hash of a frozen translation request: two requests with
// equal keys produce byte-identical Translations, because the backend is a
// pure function of the request and the key covers every input it reads. Keys
// make translation work shareable across independent guest VMs — the same
// hot region in two VMs hashes identically, so a farm translates it once.
type Key [sha256.Size]byte

// String renders a short prefix of the key as hex (for logs and tooling).
func (k Key) String() string { return hex.EncodeToString(k[:8]) }

// keyHasher wraps a hash with fixed-endian integer writes.
type keyHasher struct {
	h hash.Hash
	b [8]byte
}

func (kh *keyHasher) u32(v uint32) {
	binary.LittleEndian.PutUint32(kh.b[:4], v)
	kh.h.Write(kh.b[:4])
}

func (kh *keyHasher) u64(v uint64) {
	binary.LittleEndian.PutUint64(kh.b[:], v)
	kh.h.Write(kh.b[:])
}

func (kh *keyHasher) addrSet(set map[uint32]bool) {
	addrs := make([]uint32, 0, len(set))
	for a := range set {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	kh.addrs(addrs)
}

// addrs writes a sorted address list, length first.
func (kh *keyHasher) addrs(addrs []uint32) {
	kh.u64(uint64(len(addrs)))
	for _, a := range addrs {
		kh.u32(a)
	}
}

// Key computes the request's content hash. It covers, in order:
//
//   - the entry address and the selected trace (each instruction's address —
//     region selection consults the live branch profile, so two VMs with
//     different profiles can select different traces over identical bytes;
//     pinning the address sequence pins the trace, and decode from the
//     captured bytes is deterministic),
//   - the captured source ranges and their bytes,
//   - the speculation policy, canonically encoded (per-address sets sorted:
//     map iteration order must never reach the hash),
//   - the MMIO profile bits of the trace's addresses,
//   - the host microarchitecture and the compile-backend flag,
//   - the code-gen backend tag. Only a non-vliw backend writes bytes, so
//     vliw keys are identical to pre-backend-tag keys — existing snapshots
//     and stores stay addressable — while risc-built artifacts can never
//     dedup onto vliw ones (or vice versa) in a store both backends use.
//
// Anything not covered here must never influence Request.Translate.
func (req *Request) Key() Key {
	kh := &keyHasher{h: sha256.New()}

	kh.u32(req.Entry)

	kh.u64(uint64(len(req.insns)))
	for _, in := range req.insns {
		kh.u32(in.Addr)
	}

	kh.u64(uint64(len(req.ranges)))
	for ri, r := range req.ranges {
		kh.u32(r.Addr)
		kh.u32(r.Len)
		kh.h.Write(req.bytes[ri])
	}

	p := req.Pol
	kh.u64(uint64(p.MaxInsns))
	kh.u64(uint64(p.Unroll))
	var flags uint32
	if p.NoReorderMem {
		flags |= 1
	}
	if p.NoAliasHW {
		flags |= 2
	}
	if p.NoHoistLoads {
		flags |= 4
	}
	if p.SelfCheck {
		flags |= 8
	}
	kh.u32(flags)
	kh.addrSet(p.Serialize)
	kh.addrSet(p.NoReorder)
	kh.addrSet(p.ImmLoad)

	kh.addrs(req.mmioAddrs())

	host := req.host
	kh.u64(uint64(len(host.Name)))
	kh.h.Write([]byte(host.Name))
	kh.u64(uint64(host.Width))
	kh.u64(uint64(host.ALUs))
	kh.u64(uint64(host.MemUnits))
	kh.u64(uint64(host.MediaUnits))
	kh.u64(uint64(host.BranchUnits))
	kh.u64(uint64(host.LoadLatency))
	kh.u64(uint64(host.MulLatency))
	kh.u64(uint64(host.DivLatency))

	if req.compile {
		kh.u32(1)
	} else {
		kh.u32(0)
	}

	if req.backend != "" {
		kh.h.Write([]byte("backend:" + req.backend))
	}

	var k Key
	kh.h.Sum(k[:0])
	return k
}
