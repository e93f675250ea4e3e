// Package snapshot serializes a complete VM — architectural state, RAM,
// device registers, execution profile, simulated Metrics, the adaptive
// policy ladders, and the set of installed translations — into a
// self-checking byte envelope, and restores it into a fresh engine that
// retires exactly the same future instruction stream with exactly the same
// Metrics as the run it was captured from.
//
// The one thing a snapshot never contains is a translation artifact.
// Translations are recorded by their frozen requests (the canonical inputs
// xlate.Key hashes); restore re-materializes each one through the shared
// store when the farm has one — a warm store makes rehydration a content
// lookup, a cold store a deterministic retranslation — or straight through
// the translator otherwise. Equal keys produce byte-identical artifacts, so
// the restored cache behaves exactly like the captured one either way. This
// keeps snapshots small, portable across hosts, and honest: the architectural
// contract lives in guest state, never in host code.
//
// Wire format:
//
//	offset 0            8 bytes   magic "CMSSNAP1"
//	offset 8            4 bytes   uint32 LE payload length
//	offset 12           n bytes   JSON payload (Snapshot)
//	offset 12+n        32 bytes   SHA-256 of the payload bytes
//
// The JSON payload also carries a version field; Decode rejects unknown
// versions, truncated envelopes, and any payload whose digest does not
// match. Encoding is canonical for a given Snapshot value (encoding/json
// sorts map keys), so decode-then-encode reproduces the input bytes —
// a property the FuzzSnapshotRoundtrip harness pins down.
package snapshot

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"

	"cms/internal/cms"
	"cms/internal/dev"
	"cms/internal/mem"
)

// Magic identifies a snapshot envelope; the trailing digit is the envelope
// (not payload) version and changes only if the framing itself does.
const Magic = "CMSSNAP1"

// Version is the payload format version.
const Version = 1

// headerLen is magic plus the payload length word.
const headerLen = len(Magic) + 4

// Snapshot is one captured VM.
type Snapshot struct {
	Version  int                `json:"version"`
	Platform *dev.PlatformState `json:"platform"`
	Engine   *cms.EngineState   `json:"engine"`
}

// Capture snapshots a quiesced engine (Run has returned — clean halt,
// budget exhaustion, or cancellation at a commit boundary).
func Capture(e *cms.Engine) (*Snapshot, error) {
	es, err := e.ExportState()
	if err != nil {
		return nil, err
	}
	return &Snapshot{
		Version:  Version,
		Platform: e.Plat.ExportState(),
		Engine:   es,
	}, nil
}

// Restore builds a fresh platform and engine from the snapshot. cfg must be
// the configuration the captured engine ran with (a snapshot records state,
// not policy); if it names a shared store, rehydration goes through it.
func Restore(s *Snapshot, cfg cms.Config) (*cms.Engine, error) {
	ram, err := s.Platform.RAMSize()
	if err != nil {
		return nil, err
	}
	return RestoreOn(mem.NewBus(ram), s, cfg)
}

// RestoreOn is Restore onto a bus the caller supplies: in its NewBus state
// (fresh, or recycled through Bus.Reset) and of s.Platform.RAMSize() bytes.
func RestoreOn(bus *mem.Bus, s *Snapshot, cfg cms.Config) (*cms.Engine, error) {
	if s.Version != Version {
		return nil, fmt.Errorf("snapshot: version %d, want %d", s.Version, Version)
	}
	plat, err := dev.RestorePlatform(bus, s.Platform)
	if err != nil {
		return nil, err
	}
	return cms.RestoreEngine(plat, cfg, s.Engine)
}

// Encode serializes the snapshot into a self-checking envelope.
func (s *Snapshot) Encode() ([]byte, error) {
	payload, err := json.Marshal(s)
	if err != nil {
		return nil, err
	}
	if len(payload) > 1<<31-1 {
		return nil, fmt.Errorf("snapshot: payload too large (%d bytes)", len(payload))
	}
	out := make([]byte, 0, headerLen+len(payload)+sha256.Size)
	out = append(out, Magic...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	out = append(out, payload...)
	sum := sha256.Sum256(payload)
	out = append(out, sum[:]...)
	return out, nil
}

// Decode parses and verifies an envelope. It never panics on hostile input:
// bad magic, truncation, trailing garbage, digest mismatch, malformed or
// version-skewed payloads, and in-flight pipeline translations
// (ErrPendingTranslations) all return errors.
func Decode(b []byte) (*Snapshot, error) {
	if len(b) < headerLen+sha256.Size {
		return nil, fmt.Errorf("snapshot: envelope truncated (%d bytes)", len(b))
	}
	if string(b[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("snapshot: bad magic %q", b[:len(Magic)])
	}
	n := int(binary.LittleEndian.Uint32(b[len(Magic):headerLen]))
	if len(b) != headerLen+n+sha256.Size {
		return nil, fmt.Errorf("snapshot: envelope is %d bytes, header says %d", len(b), headerLen+n+sha256.Size)
	}
	payload := b[headerLen : headerLen+n]
	sum := sha256.Sum256(payload)
	if string(sum[:]) != string(b[headerLen+n:]) {
		return nil, fmt.Errorf("snapshot: payload digest mismatch (corrupted envelope)")
	}
	// The engine is read through a wrapper that also counts the entries of
	// "pend", a key the engine state no longer has, so envelopes carrying
	// any are refused by name instead of restoring without their in-flight
	// translations.
	var w struct {
		Version  int                `json:"version"`
		Platform *dev.PlatformState `json:"platform"`
		Engine   *struct {
			*cms.EngineState
			Pend []struct{} `json:"pend"`
		} `json:"engine"`
	}
	if err := json.Unmarshal(payload, &w); err != nil {
		return nil, fmt.Errorf("snapshot: payload: %w", err)
	}
	if w.Version != Version {
		return nil, fmt.Errorf("snapshot: version %d, want %d", w.Version, Version)
	}
	if w.Platform == nil || w.Engine == nil || w.Engine.EngineState == nil {
		return nil, fmt.Errorf("snapshot: payload incomplete")
	}
	if len(w.Engine.Pend) > 0 {
		return nil, ErrPendingTranslations
	}
	return &Snapshot{Version: w.Version, Platform: w.Platform, Engine: w.Engine.EngineState}, nil
}

// ErrPendingTranslations refuses an envelope whose engine state has a
// non-empty "pend" section: translations the since-removed concurrent
// translation pipeline still had in flight at capture, each due to install
// at a later simulated instant. The engine now installs a translation the
// moment it makes it, so no restore could retire the future the captured
// run would have.
var ErrPendingTranslations = errors.New(`snapshot: envelope carries in-flight pipeline translations ("pend"), which this engine cannot resume`)

// Save captures and encodes in one step.
func Save(e *cms.Engine) ([]byte, error) {
	s, err := Capture(e)
	if err != nil {
		return nil, err
	}
	return s.Encode()
}

// Load decodes and restores in one step.
func Load(b []byte, cfg cms.Config) (*cms.Engine, error) {
	s, err := Decode(b)
	if err != nil {
		return nil, err
	}
	return Restore(s, cfg)
}
