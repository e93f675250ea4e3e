package xlate

import (
	"fmt"
	"slices"

	"cms/internal/guest"
	"cms/internal/ir"
	"cms/internal/vliw"
)

// RequestImage is the serializable form of a frozen Request. It carries the
// same canonical inputs Request.Key hashes — entry, trace, captured source
// ranges and bytes, policy, MMIO profile bits, host configuration, the
// compile flag, and the backend tag (omitted for vliw, so pre-risc images
// deserialize unchanged) — so Reify().Key() equals the original request's
// key and
// Reify().Translate() rebuilds a byte-identical Translation. This is how a
// snapshot records "the set of installed translations" without ever storing
// the artifacts themselves.
type RequestImage struct {
	Entry   uint32          `json:"entry"`
	Pol     Policy          `json:"pol"`
	Insns   []guest.Insn    `json:"insns"`
	Ranges  []ir.SrcRange   `json:"ranges"`
	Bytes   [][]byte        `json:"bytes"`
	MMIO    []uint32        `json:"mmio,omitempty"`
	Host    vliw.HostConfig `json:"host"`
	Compile bool            `json:"compile"`
	Backend string          `json:"backend,omitempty"`
}

// Image exports the request.
func (req *Request) Image() *RequestImage {
	im := &RequestImage{
		Entry:   req.Entry,
		Pol:     req.Pol,
		Insns:   append([]guest.Insn(nil), req.insns...),
		Ranges:  append([]ir.SrcRange(nil), req.ranges...),
		Bytes:   make([][]byte, len(req.bytes)),
		Host:    req.host,
		Compile: req.compile,
		Backend: req.backend,
	}
	for i, b := range req.bytes {
		im.Bytes[i] = append([]byte(nil), b...)
	}
	im.MMIO = req.mmioAddrs()
	return im
}

// Reify rebuilds a Request from its image. The result behaves exactly like
// the original: same Key, same Translate output.
func (im *RequestImage) Reify() (*Request, error) {
	if len(im.Bytes) != len(im.Ranges) {
		return nil, fmt.Errorf("xlate: request image has %d byte runs for %d ranges",
			len(im.Bytes), len(im.Ranges))
	}
	for i, r := range im.Ranges {
		if uint32(len(im.Bytes[i])) != r.Len {
			return nil, fmt.Errorf("xlate: request image range %d: %d bytes, want %d",
				i, len(im.Bytes[i]), r.Len)
		}
	}
	req := &Request{
		Entry:   im.Entry,
		Pol:     im.Pol,
		insns:   append([]guest.Insn(nil), im.Insns...),
		ranges:  append([]ir.SrcRange(nil), im.Ranges...),
		bytes:   make([][]byte, len(im.Bytes)),
		host:    im.Host,
		compile: im.Compile,
		backend: normBackend(im.Backend),
	}
	for i, b := range im.Bytes {
		req.bytes[i] = append([]byte(nil), b...)
	}
	if len(im.MMIO) > 0 {
		req.setMMIO(func(addr uint32) bool { return slices.Contains(im.MMIO, addr) })
	}
	return req, nil
}
