package cms

import (
	"fmt"
	"reflect"
	"sort"

	"cms/internal/dev"
	"cms/internal/interp"
	"cms/internal/tcache"
	"cms/internal/xlate"
)

// Engine-level checkpoint state. A snapshot records everything the
// determinism contract depends on — architectural state, profile, simulated
// Metrics, the adaptive per-site policy ladders, which translations were
// installed (by frozen request, never by artifact), and the parked
// chain-boundary transition of a cancelled run — so
// that a restored engine retires exactly the same future instruction stream
// with exactly the same Metrics as the run it was captured from.
//
// Capture is legal only at a quiesced commit boundary: after Run has
// returned (clean halt, budget, or — the interesting case — the cooperative
// cancel hook). The engine is single-threaded between Runs, so no locking
// is needed.

// StatefulInjector is an Injector whose schedule state can ride a snapshot.
// An engine configured with an Injector can only be checkpointed if the
// injector implements this; the restored injector must be fast-forwarded
// with RestoreState before the run resumes, or injected events would replay
// from the schedule's origin and diverge from the uninterrupted run.
type StatefulInjector interface {
	Injector
	// SnapshotState serializes the injector's mutable state.
	SnapshotState() []byte
	// RestoreState overwrites the injector's mutable state.
	RestoreState([]byte) error
}

// SiteState is the serializable per-site adaptive state (§3.1's
// retranslation ladders plus the SMC escalation counters).
type SiteState struct {
	Entry         uint32       `json:"entry"`
	Policy        xlate.Policy `json:"policy"`
	InterpOnly    bool         `json:"interp_only,omitempty"`
	AliasAdapts   int          `json:"alias_adapts,omitempty"`
	SmcWrites     int          `json:"smc_writes,omitempty"`
	PrologueFails int          `json:"prologue_fails,omitempty"`
	WantSelfReval bool         `json:"want_self_reval,omitempty"`
	UseGroups     bool         `json:"use_groups,omitempty"`
	SelfCheck     bool         `json:"self_check,omitempty"`
}

// ResumeState is the parked chain-boundary transition of a cancelled run
// (see resumePoint in engine.go).
type ResumeState struct {
	Valid    bool   `json:"valid"`
	Entry    uint32 `json:"entry"`
	Exit     int    `json:"exit"`
	Indirect bool   `json:"indirect"`
	Target   uint32 `json:"target"`
}

// EngineState is the serializable engine: everything above the platform.
type EngineState struct {
	Interp  *interp.InterpState `json:"interp"`
	Metrics Metrics             `json:"metrics"`
	Budget  uint64              `json:"budget"`

	Sites []SiteState        `json:"sites,omitempty"`
	Cache *tcache.CacheState `json:"cache"`

	Resume ResumeState `json:"resume"`

	// TransTranslated/TransInsnsTranslated are the translator's wall-side
	// work counters, carried so reports over a restored engine match.
	TransTranslated      uint64 `json:"trans_translated"`
	TransInsnsTranslated uint64 `json:"trans_insns_translated"`

	// Injector is the opaque schedule state of a StatefulInjector, absent
	// when no injector is configured.
	Injector []byte `json:"injector,omitempty"`
}

// ExportState captures the engine at a quiesced boundary. It fails if a
// configured Injector cannot ride the snapshot, or if any installed
// translation lacks its frozen request.
func (e *Engine) ExportState() (*EngineState, error) {
	cs, err := e.Cache.ExportState()
	if err != nil {
		return nil, err
	}
	s := &EngineState{
		Interp:               e.Interp.ExportState(),
		Metrics:              e.Metrics,
		Budget:               e.budget,
		Cache:                cs,
		TransTranslated:      e.Trans.Translated,
		TransInsnsTranslated: e.Trans.InsnsTranslated,
	}
	addrs := make([]uint32, 0, len(e.sites))
	for a := range e.sites {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		st := e.sites[a]
		if reflect.DeepEqual(*st, site{}) {
			// Nothing adapted: it is the site restore creates on demand.
			continue
		}
		s.Sites = append(s.Sites, SiteState{
			Entry:         a,
			Policy:        st.policy,
			InterpOnly:    st.interpOnly,
			AliasAdapts:   st.aliasAdapts,
			SmcWrites:     st.smcWrites,
			PrologueFails: st.prologueFails,
			WantSelfReval: st.wantSelfReval,
			UseGroups:     st.useGroups,
			SelfCheck:     st.selfCheck,
		})
	}
	if e.resumePt.valid {
		s.Resume = ResumeState{
			Valid:    true,
			Entry:    e.resumePt.entry,
			Exit:     e.resumePt.exit,
			Indirect: e.resumePt.indirect,
			Target:   e.resumePt.target,
		}
	}
	if inj := e.Cfg.Injector; inj != nil {
		si, ok := inj.(StatefulInjector)
		if !ok {
			return nil, fmt.Errorf("cms: configured injector %T cannot be snapshotted", inj)
		}
		s.Injector = si.SnapshotState()
	}
	return s, nil
}

// rehydrate is the translate callback used while restoring the cache:
// produce, asking a configured shared store through Rehydrate so the warm
// fraction of a restore is observable. The artifact is bit-identical to the
// captured one. Nothing is charged to Metrics — every charge for these
// translations is already inside the snapshot's Metrics, which overwrite
// the engine's counters after the rebuild.
func (e *Engine) rehydrate(req *xlate.Request) (*xlate.Translation, error) {
	return e.produce(req, (*tcache.SharedStore).Rehydrate)
}

// RestoreEngine builds a fresh engine over plat and overwrites it with a
// captured state. plat must itself have been restored from the matching
// platform state (dev.RestorePlatform), and cfg must be the configuration
// the captured engine ran with — a snapshot records state, not policy, and
// restoring under a different speculation policy, host configuration, or
// cost model voids the determinism contract. If cfg carries an Injector it
// must be a StatefulInjector; it is fast-forwarded from the snapshot.
func RestoreEngine(plat *dev.Platform, cfg Config, s *EngineState) (*Engine, error) {
	if s == nil || s.Interp == nil || s.Cache == nil {
		return nil, fmt.Errorf("cms: engine state incomplete")
	}
	e := New(plat, s.Interp.CPU.EIP, cfg)
	e.Interp.RestoreState(s.Interp)
	for _, ss := range s.Sites {
		e.sites[ss.Entry] = &site{
			policy:        ss.Policy,
			interpOnly:    ss.InterpOnly,
			aliasAdapts:   ss.AliasAdapts,
			smcWrites:     ss.SmcWrites,
			prologueFails: ss.PrologueFails,
			wantSelfReval: ss.WantSelfReval,
			useGroups:     ss.UseGroups,
			selfCheck:     ss.SelfCheck,
		}
	}
	// Rebuild the cache by re-materializing every frozen request. The
	// replayed installs bump Cache.Stats and the translator's counters;
	// both are overwritten with the captured values below. Page protection
	// is NOT re-applied here: the bus arrived with the captured protection
	// state verbatim, and re-protecting would be redundant at best.
	if err := e.Cache.RestoreState(s.Cache, e.rehydrate); err != nil {
		return nil, err
	}
	if s.Resume.Valid {
		ent := e.Cache.Peek(s.Resume.Entry)
		if ent == nil {
			return nil, fmt.Errorf("cms: resume point names uncached translation %#x", s.Resume.Entry)
		}
		e.resumePt = resumePoint{
			valid:    true,
			ent:      ent,
			entry:    s.Resume.Entry,
			exit:     s.Resume.Exit,
			indirect: s.Resume.Indirect,
			target:   s.Resume.Target,
		}
	}
	if len(s.Injector) > 0 {
		si, ok := cfg.Injector.(StatefulInjector)
		if !ok {
			return nil, fmt.Errorf("cms: snapshot carries injector state but cfg.Injector is %T", cfg.Injector)
		}
		if err := si.RestoreState(s.Injector); err != nil {
			return nil, fmt.Errorf("cms: restoring injector: %w", err)
		}
	}
	e.Trans.Translated = s.TransTranslated
	e.Trans.InsnsTranslated = s.TransInsnsTranslated
	e.Metrics = s.Metrics
	e.budget = s.Budget
	return e, nil
}

// Budget returns the instruction budget of the engine's most recent Run —
// a checkpoint restored mid-run is typically resumed with the same budget
// so the combined run retires exactly what the uninterrupted one would.
func (e *Engine) Budget() uint64 { return e.budget }
