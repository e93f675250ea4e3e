package perf

import (
	"errors"
	"fmt"
	"time"

	"cms/internal/cms"
	"cms/internal/dev"
	"cms/internal/guest"
	"cms/internal/incident"
	"cms/internal/interp"
	"cms/internal/mem"
	"cms/internal/risc"
	"cms/internal/snapshot"
	"cms/internal/tcache"
	"cms/internal/vliw"
)

// countLayers derives the exact, count-type layer metrics of a set of runs.
func countLayers(out map[string]float64, c *counts) {
	out["mem.fine_grain_refills"] = float64(c.fgRefills)
	out["interp.guest_share"] = ratio(float64(c.guestInterp), float64(c.guest()))
	out["interp.icache_hit_ratio"] = ratio(float64(c.icHits), float64(c.icHits+c.icMisses))
	out["xlate.translations"] = float64(c.translations)
	out["xlate.guest_insns_translated"] = float64(c.insnsTranslated)
	out["xlate.atoms_per_insn"] = ratio(float64(c.codeAtoms), float64(c.insnsTranslated))
	out["xlate.texec_mols_per_insn"] = ratio(float64(c.molsTexec), float64(c.guestTexec))
	out["cms.dispatch_to_texec"] = float64(c.dispatchToTexec)
	out["cms.chain_ratio"] = ratio(float64(c.chain), float64(c.chain+c.lookup+c.dispReturns))
	out["cms.lookup_transfers"] = float64(c.lookup)
	out["cms.indirect_hit_ratio"] = ratio(float64(c.indHits), float64(c.indHits+c.indMisses))
	out["cms.faults_per_minsn"] = ratio(float64(c.faults)*1e6, float64(c.guest()))
	out["cms.adaptations"] = float64(c.adapts)
	out["cms.prot_faults"] = float64(c.protFaults)
	out["tcache.installs"] = float64(c.installs)
	out["tcache.invalidations"] = float64(c.invalidations)
	out["tcache.evictions"] = float64(c.evictions)
	out["tcache.group_hits"] = float64(c.groupHits)
}

// replayLayers pushes the sampled runs' own artifacts — their images, the
// requests their caches hold, the translations those requests make — through
// each layer's public API in isolation and records the unit costs.
func replayLayers(out map[string]float64, runs []*sampleRun, sc Scale) {
	var (
		decodeT, interpT, prepT, xlateT, keyT, compT, lowerT time.Duration
		installT, lookupT, invalT, hitT, missT, hashT, busT  time.Duration
		busMiB                                               float64
		decoded, interped, prepInsns, xlateInsns             uint64
		reqs, atoms, mols, fallbacks, fused                  int
		blocks, specialized, installs, lookups, pages        int
	)
	for _, r := range runs {
		t0 := time.Now()
		decoded += sweepDecode(r.img)
		decodeT += time.Since(t0)

		n, d := interpChunk(r.img, r.e.Metrics.GuestTotal())
		interped += n
		interpT += d

		t0 = time.Now()
		incident.ImageHash(r.img.org, r.img.entry, r.img.ram, r.img.data, r.img.disk)
		hashT += time.Since(t0)

		// One bus per sampled run, between the other replays' allocations:
		// a tight loop of NewBus alone would time first-touch page faults
		// on memory the collector never gets to recycle.
		t0 = time.Now()
		mem.NewBus(r.img.ram)
		busT += time.Since(t0)
		busMiB += float64(r.img.ram) / (1 << 20)

		cs, err := r.e.Cache.ExportState()
		if err != nil {
			continue
		}
		store := tcache.NewShared(0)
		cache := tcache.New()
		var installed []*tcache.Entry
		for _, es := range cs.Entries {
			// Region selection against the final guest memory; a region SMC
			// has since rewritten may no longer form, and is skipped.
			t0 = time.Now()
			if req, err := r.e.Trans.Prepare(es.Req.Entry, es.Req.Pol); err == nil {
				prepT += time.Since(t0)
				prepInsns += uint64(req.GuestLen())
			}

			im := *es.Req
			im.Compile = false
			req, err := im.Reify()
			if err != nil {
				continue
			}
			t0 = time.Now()
			req.Key()
			keyT += time.Since(t0)
			t0 = time.Now()
			t, err := req.Translate()
			if err != nil {
				continue
			}
			xlateT += time.Since(t0)
			xlateInsns += uint64(len(t.Insns))
			reqs++
			atoms += t.CodeAtoms()

			t0 = time.Now()
			cc := vliw.Compile(t.Code)
			compT += time.Since(t0)
			mols += cc.Len()
			fallbacks += cc.Fallbacks()
			fused += cc.Fused()
			t0 = time.Now()
			rc := risc.Lower(t.Code)
			lowerT += time.Since(t0)
			blocks += rc.Len()
			specialized += rc.Specialized()

			// The store sees the request as the engine froze it.
			sreq, err := es.Req.Reify()
			if err != nil {
				continue
			}
			t0 = time.Now()
			_, _, err = store.Translate(sreq)
			missT += time.Since(t0)
			if err != nil {
				continue
			}
			t0 = time.Now()
			art, _, _ := store.Translate(sreq)
			hitT += time.Since(t0)

			t0 = time.Now()
			installed = append(installed, cache.Install(art.Clone()))
			installT += time.Since(t0)
			installs++
		}
		const lookupReps = 64
		t0 = time.Now()
		for k := 0; k < lookupReps; k++ {
			for _, ent := range installed {
				cache.Lookup(ent.T.Entry)
			}
		}
		lookupT += time.Since(t0)
		lookups += lookupReps * len(installed)
		seen := map[uint32]bool{}
		for _, ent := range installed {
			for _, p := range ent.T.Pages() {
				if !seen[p] {
					seen[p] = true
					t0 = time.Now()
					cache.InvalidatePage(p)
					invalT += time.Since(t0)
					pages++
				}
			}
		}
	}
	out["guest.decode_ns_per_insn"] = ratio(float64(decodeT), float64(decoded))
	out["interp.ns_per_insn"] = ratio(float64(interpT), float64(interped))
	out["incident.image_hash_us_per_job"] = ratio(us(hashT), float64(len(runs)))
	out["mem.new_bus_ms_per_mib"] = ratio(ms(busT), busMiB)
	out["xlate.prepare_us_per_insn"] = ratio(us(prepT), float64(prepInsns))
	out["xlate.translate_us_per_insn"] = ratio(us(xlateT), float64(xlateInsns))
	out["xlate.key_us"] = ratio(us(keyT), float64(reqs))
	out["vliw.compile_us_per_atom"] = ratio(us(compT), float64(atoms))
	out["vliw.fallback_ratio"] = ratio(float64(fallbacks), float64(mols))
	out["vliw.fused_ratio"] = ratio(float64(fused), float64(mols))
	out["risc.lower_us_per_atom"] = ratio(us(lowerT), float64(atoms))
	out["risc.specialized_ratio"] = ratio(float64(specialized), float64(blocks))
	out["tcache.install_us"] = ratio(us(installT), float64(installs))
	out["tcache.lookup_ns"] = ratio(float64(lookupT), float64(lookups))
	out["tcache.invalidate_page_us"] = ratio(us(invalT), float64(pages))
	out["tcache.shared_hit_us"] = ratio(us(hitT), float64(installs))
	out["tcache.shared_miss_us"] = ratio(us(missT), float64(installs))

	if len(runs) > 0 {
		busLayers(out, runs[0].img.ram, sc.MemOps)
	}
}

// load builds a platform holding img, outside any span.
func load(img *image) *dev.Platform {
	plat := dev.NewPlatform(img.ram, img.disk)
	plat.Bus.WriteRaw(img.org, img.data)
	return plat
}

// sweepDecode runs guest.Decode linearly over the image, stepping one byte
// past anything that does not decode (the images carry data too), and
// returns how many instructions decoded.
func sweepDecode(img *image) uint64 {
	var n uint64
	for off := 0; off < len(img.data); {
		in, err := guest.Decode(img.data[off:], img.org+uint32(off))
		if err != nil {
			off++
			continue
		}
		off += int(in.Len)
		n++
	}
	return n
}

// interpChunk times Interp.Run on the image (which retires total guest
// instructions) with the decoded-instruction cache warm: the first tenth of
// the chunk runs untimed.
func interpChunk(img *image, total uint64) (uint64, time.Duration) {
	chunk := uint64(200_000)
	if total < chunk {
		chunk = total
	}
	plat := load(img)
	ip := interp.New(plat.Bus)
	ip.CPU = interp.NewCPU(img.entry)
	if img.stackTop != 0 {
		ip.CPU.Regs[guest.ESP] = img.stackTop
	}
	ip.IRQ, ip.Timer = plat.IRQ, plat.Timer
	if res, _ := ip.Run(chunk / 10); res.Stop != interp.StopNone {
		return 0, 0
	}
	t0 := time.Now()
	_, steps := ip.Run(chunk)
	return steps, time.Since(t0)
}

// busLayers times the bus's guest-access paths on a fresh bus: the fast path
// translated code takes on plain RAM, and the checked path a store takes on a
// page under fine-grain protection (into a chunk that holds no code).
func busLayers(out map[string]float64, ram uint32, ops int) {
	bus := mem.NewBus(ram)
	const base, span = 0x80000, 0x1000
	var sink uint32
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		a := base + uint32(i*4)%span
		if bus.FastRead(a, 4) {
			sink += bus.Read32(a)
		}
	}
	out["mem.fast_read_ns"] = float64(time.Since(t0)) / float64(ops)
	t0 = time.Now()
	for i := 0; i < ops; i++ {
		a := base + uint32(i*4)%span
		if bus.FastWrite(a, 4) {
			bus.Write32(a, sink)
		}
	}
	out["mem.fast_write_ns"] = float64(time.Since(t0)) / float64(ops)

	page := mem.PageOf(base)
	bus.Protect(page)
	bus.SetFineGrain(page, 1) // chunk 0 holds the "code"
	t0 = time.Now()
	for i := 0; i < ops; i++ {
		a := base + mem.ChunkSize + uint32(i*4)%(span-mem.ChunkSize)
		if bus.CheckProt(a, 4, mem.SrcCPU) == nil {
			bus.Write32(a, sink)
		}
	}
	out["mem.checked_write_ns"] = float64(time.Since(t0)) / float64(ops)
}

// texecNsPerMol is what remains of the cms.run spans once the replayed
// interpreter, translator and executable-form build costs are subtracted,
// per molecule executed in translations: translated execution plus dispatch.
func texecNsPerMol(out map[string]float64, run time.Duration, c *counts, buildMetric string) float64 {
	rest := float64(run) -
		out["interp.ns_per_insn"]*float64(c.guestInterp) -
		1e3*out["xlate.translate_us_per_insn"]*float64(c.insnsTranslated) -
		1e3*out[buildMetric]*float64(c.codeAtoms)
	return ratio(rest, float64(c.molsTexec))
}

// attribution renders how the replayed unit costs explain a span.
func attribution(span string, total time.Duration, out map[string]float64, c *counts, buildMetric string) string {
	pct := func(ns float64) float64 { return 100 * ratio(ns, float64(total)) }
	in := out["interp.ns_per_insn"] * float64(c.guestInterp)
	xl := 1e3 * out["xlate.translate_us_per_insn"] * float64(c.insnsTranslated)
	co := 1e3 * out[buildMetric] * float64(c.codeAtoms)
	return fmt.Sprintf("%s self time %.3fs = interp %.1f%% + xlate %.1f%% + compile %.1f%% + texec/dispatch %.1f%%",
		span, total.Seconds(), pct(in), pct(xl), pct(co), pct(float64(total)-in-xl-co))
}

// snapshotLayers checkpoints img's engine halfway through its run (stopped
// by the cancel hook, as the farm stops one), restores it against a warm and
// a cold store, and requires the warm restore to finish in the reference
// state — ok is the workload's own outcome check — before any number is
// recorded.
func snapshotLayers(out map[string]float64, img *image, ok func(*cms.Engine, *dev.Platform, error) bool) error {
	full, _, err := runImage(img, cms.DefaultConfig(), nil, 0, -1)
	if err != nil {
		return err
	}
	half := full.Metrics.GuestTotal() / 2

	cfg := cms.DefaultConfig()
	cfg.SharedStore = tcache.NewShared(0)
	var eng *cms.Engine
	cfg.Cancel = func() bool { return eng.Metrics.GuestTotal() >= half }
	eng = cms.New(load(img), img.entry, cfg)
	if img.stackTop != 0 {
		eng.CPU().Regs[guest.ESP] = img.stackTop
	}
	if err := eng.Run(img.budget); !errors.Is(err, cms.ErrCancelled) {
		return fmt.Errorf("mid-run stop: %v", err)
	}

	t0 := time.Now()
	blob, err := snapshot.Save(eng)
	if err != nil {
		return err
	}
	save := time.Since(t0)

	cfg.Cancel = nil
	t0 = time.Now()
	warm, err := snapshot.Load(blob, cfg)
	if err != nil {
		return fmt.Errorf("warm restore: %w", err)
	}
	warmT := time.Since(t0)
	cold := cfg
	cold.SharedStore = tcache.NewShared(0)
	t0 = time.Now()
	if _, err := snapshot.Load(blob, cold); err != nil {
		return fmt.Errorf("cold restore: %w", err)
	}
	coldT := time.Since(t0)

	if runErr := warm.Run(img.budget); !ok(warm, warm.Plat, runErr) {
		return fmt.Errorf("restored run diverged from the reference (err %v)", runErr)
	}
	s, err := snapshot.Decode(blob)
	if err != nil {
		return err
	}
	mib := float64(len(blob)) / (1 << 20)
	out["snapshot.save_ms"] = ms(save)
	out["snapshot.save_ms_per_mib"] = ms(save) / mib
	out["snapshot.bytes_kib"] = float64(len(blob)) / 1024
	out["snapshot.dirty_pages"] = float64(len(s.Platform.Bus.Pages))
	out["snapshot.restore_warm_ms"] = ms(warmT)
	out["snapshot.restore_cold_ms"] = ms(coldT)
	return nil
}
