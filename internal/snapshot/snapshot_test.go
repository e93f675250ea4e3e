package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"cms/internal/cms"
	"cms/internal/dev"
	"cms/internal/workload"
)

// outcome is everything a workload run must reproduce across a checkpoint.
type outcome struct {
	regs    [8]uint32
	eip     uint32
	flags   uint32
	halted  bool
	err     string
	console string
	ram     []byte
	metrics cms.Metrics
}

func capture(e *cms.Engine, err error) outcome {
	cpu := e.CPU()
	o := outcome{
		regs:    cpu.Regs,
		eip:     cpu.EIP,
		flags:   cpu.Flags,
		halted:  cpu.Halted,
		console: e.Plat.Console.OutputString(),
		ram:     e.Plat.Bus.ReadRaw(0, int(e.Plat.Bus.RAMSize())),
		metrics: e.Metrics,
	}
	if err != nil {
		o.err = err.Error()
	}
	return o
}

func newEngine(img *workload.Image, cfg cms.Config) *cms.Engine {
	plat := dev.NewPlatform(img.RAM, img.Disk)
	plat.Bus.WriteRaw(img.Org, img.Data)
	return cms.New(plat, img.Entry, cfg)
}

func diff(t *testing.T, name string, want, got outcome) {
	t.Helper()
	if want.regs != got.regs || want.eip != got.eip || want.flags != got.flags ||
		want.halted != got.halted || want.err != got.err {
		t.Fatalf("%s: architectural state diverged:\nwant %+v\ngot  %+v",
			name, want, got)
	}
	if want.console != got.console {
		t.Fatalf("%s: console diverged: want %q got %q", name, want.console, got.console)
	}
	if !bytes.Equal(want.ram, got.ram) {
		for i := range want.ram {
			if want.ram[i] != got.ram[i] {
				t.Fatalf("%s: RAM diverged at %#x: want %#x got %#x", name, i, want.ram[i], got.ram[i])
			}
		}
	}
	if !reflect.DeepEqual(want.metrics, got.metrics) {
		t.Fatalf("%s: metrics diverged:\nwant %+v\ngot  %+v", name, want.metrics, got.metrics)
	}
}

// TestWorkloadCheckpointDeterminism checkpoints every suite workload at
// several mid-run boundaries, restores each snapshot into a fresh engine,
// finishes the run there, and requires the combined outcome — architectural
// state, RAM, console, and simulated Metrics — to be bit-identical to the
// uninterrupted run. This is the snapshot subsystem's core contract across
// every workload idiom in the paper: MMIO, DMA, interrupts, and both SMC
// styles.
func TestWorkloadCheckpointDeterminism(t *testing.T) {
	cfg := cms.DefaultConfig()
	fractions := []uint64{9, 3, 2}    // checkpoint at ~1/9, ~1/3, ~1/2
	quanta := []uint64{251, 1021, 64} // vary boundary granularity
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			img := w.Build()
			base := newEngine(img, cfg)
			want := capture(base, base.Run(img.Budget))
			total := base.Metrics.GuestTotal()
			for i, frac := range fractions {
				target := total / frac
				if target == 0 {
					continue
				}
				runCfg := cfg
				runCfg.CancelQuantum = quanta[i%len(quanta)]
				var eng *cms.Engine
				runCfg.Cancel = func() bool { return eng.Metrics.GuestTotal() >= target }
				eng = newEngine(img, runCfg)
				err := eng.Run(img.Budget)
				if !errors.Is(err, cms.ErrCancelled) {
					t.Fatalf("target %d: expected cancellation, got %v", target, err)
				}
				blob, err := Save(eng)
				if err != nil {
					t.Fatalf("target %d: save: %v", target, err)
				}
				restored, err := Load(blob, cfg)
				if err != nil {
					t.Fatalf("target %d: load: %v", target, err)
				}
				got := capture(restored, restored.Run(img.Budget))
				diff(t, w.Name, want, got)
			}
		})
	}
}

// TestEnvelopeRoundtrip pins canonical encoding: decode-then-encode of an
// encoder-produced envelope reproduces the input bytes exactly.
func TestEnvelopeRoundtrip(t *testing.T) {
	img := workload.All()[0].Build()
	cfg := cms.DefaultConfig()
	e := newEngine(img, cfg)
	if err := e.Run(img.Budget); err != nil {
		t.Fatal(err)
	}
	b1, err := Save(e)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Decode(b1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("decode/encode not byte-identical: %d vs %d bytes", len(b1), len(b2))
	}
}

// TestEnvelopeCorruption flips bytes across the whole envelope and requires
// Decode to reject every corruption — magic, length word, payload, digest.
func TestEnvelopeCorruption(t *testing.T) {
	img := workload.All()[0].Build()
	e := newEngine(img, cms.DefaultConfig())
	if err := e.Run(img.Budget); err != nil {
		t.Fatal(err)
	}
	blob, err := Save(e)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(blob); err != nil {
		t.Fatalf("pristine envelope rejected: %v", err)
	}
	step := len(blob)/97 + 1
	for i := 0; i < len(blob); i += step {
		bad := append([]byte(nil), blob...)
		bad[i] ^= 0x41
		if _, err := Decode(bad); err == nil {
			t.Fatalf("corruption at offset %d undetected", i)
		}
	}
	for _, n := range []int{0, 1, len(Magic), headerLen, len(blob) - 1} {
		if _, err := Decode(blob[:n]); err == nil {
			t.Fatalf("truncation to %d bytes undetected", n)
		}
	}
	if _, err := Decode(append(append([]byte(nil), blob...), 0)); err == nil {
		t.Fatal("trailing garbage undetected")
	}
}

// reseal splices text into an envelope's payload right after the first
// occurrence of at, which must occur once, and frames the result as a valid
// envelope — how the tests below build envelopes of older shapes.
func reseal(t *testing.T, blob []byte, at, text string) []byte {
	t.Helper()
	payload := blob[headerLen : len(blob)-sha256.Size]
	if n := bytes.Count(payload, []byte(at)); n != 1 {
		t.Fatalf("payload holds %q %d times, want once", at, n)
	}
	payload = bytes.Replace(payload, []byte(at), []byte(at+text), 1)
	out := binary.LittleEndian.AppendUint32([]byte(Magic), uint32(len(payload)))
	sum := sha256.Sum256(payload)
	return append(append(out, payload...), sum[:]...)
}

// TestParentFormatEnvelopeRestores: every envelope written while the engine
// still had a translation pipeline carries three more Metrics keys, all 0 in
// a synchronous run. Such an envelope, captured mid-run, must restore and
// finish bit-identical to the uninterrupted run.
func TestParentFormatEnvelopeRestores(t *testing.T) {
	img := workload.All()[0].Build()
	cfg := cms.DefaultConfig()
	base := newEngine(img, cfg)
	want := capture(base, base.Run(img.Budget))

	runCfg := cfg
	var eng *cms.Engine
	runCfg.Cancel = func() bool { return eng.Metrics.GuestTotal() >= base.Metrics.GuestTotal()/3 }
	runCfg.CancelQuantum = 251
	eng = newEngine(img, runCfg)
	if err := eng.Run(img.Budget); !errors.Is(err, cms.ErrCancelled) {
		t.Fatalf("capture run: %v", err)
	}
	blob, err := Save(eng)
	if err != nil {
		t.Fatal(err)
	}
	old := reseal(t, blob, `"metrics":{`, `"PipelineInstalls":0,"PipelineStale":0,"PipelineSubmits":0,`)
	restored, err := Load(old, cfg)
	if err != nil {
		t.Fatal(err)
	}
	diff(t, "parent-format envelope", want, capture(restored, restored.Run(img.Budget)))
}

// TestPendingTranslationsRefused: an envelope captured with translations in
// flight in a pipelined engine is refused by name, not restored without them.
func TestPendingTranslationsRefused(t *testing.T) {
	img := workload.All()[0].Build()
	e := newEngine(img, cms.DefaultConfig())
	if err := e.Run(img.Budget); err != nil {
		t.Fatal(err)
	}
	blob, err := Save(e)
	if err != nil {
		t.Fatal(err)
	}
	pend := reseal(t, blob, `"engine":{`, `"pend":[{"entry":4096,"due":600,"req":null}],`)
	if _, err := Decode(pend); !errors.Is(err, ErrPendingTranslations) {
		t.Fatalf("Decode of an envelope with a pend entry: %v, want ErrPendingTranslations", err)
	}
	if _, err := Decode(reseal(t, blob, `"engine":{`, `"pend":[],`)); err != nil {
		t.Fatalf("an empty pend section is no in-flight translation: %v", err)
	}
}

// TestRestoredCacheRehydrates sanity-checks the restored engine actually
// carries translations (not an empty cache that silently retranslates with
// fresh charges — the Metrics comparison would catch it, but this pins the
// mechanism).
func TestRestoredCacheRehydrates(t *testing.T) {
	img := workload.All()[0].Build()
	cfg := cms.DefaultConfig()
	var eng *cms.Engine
	runCfg := cfg
	runCfg.Cancel = func() bool { return eng.Metrics.GuestTotal() >= 20000 }
	runCfg.CancelQuantum = 256
	eng = newEngine(img, runCfg)
	if err := eng.Run(img.Budget); !errors.Is(err, cms.ErrCancelled) {
		t.Skipf("workload halted before checkpoint target: %v", err)
	}
	n, _ := eng.Cache.Size()
	if n == 0 {
		t.Skip("nothing translated before checkpoint")
	}
	blob, err := Save(eng)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Load(blob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rn, _ := restored.Cache.Size(); rn != n {
		t.Fatalf("restored cache has %d entries, captured had %d", rn, n)
	}
	if restored.Metrics != eng.Metrics {
		t.Fatal("restore perturbed Metrics before resuming")
	}
}
