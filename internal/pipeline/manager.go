package pipeline

import (
	"repro/internal/cfg"
	"repro/internal/freq"
	"repro/internal/interference"
	"repro/internal/ir"
	"repro/internal/liveness"
	"repro/internal/liverange"
	"repro/internal/telemetry"
)

// LiveModeFull is the liveness mode LiveStat reports for a solve: a
// from-scratch sparse solve over the whole function. The obs
// `liveness` event carries it.
const LiveModeFull = "full"

// AnalysisManager owns the analysis artifacts of one allocation run and
// tracks their validity. Passes request analyses through it; the runner
// intersects the valid set with each pass's Preserves() result, so a
// pass that rewrites the function (spill-code insertion reports
// PreserveNone) automatically invalidates everything and the next
// round recomputes.
//
// The manager generalizes the shared prep cache: while the working
// function is still the cached original (every round 0), a requested
// analysis is served from the FuncCache as a copy-on-write view — a
// liveness Fork, an interference Snapshot, or the frozen live-range
// block map — leaving the shared artifact frozen. Once a spill rewrite
// has replaced the function, the cache no longer applies and every
// analysis — the CFG, liveness, the base interference graphs and the
// block map — is recomputed from scratch on the rewritten body.
//
// A manager belongs to one State and is not safe for concurrent use;
// concurrency happens one level up, with many managers reading one
// FuncCache.
type AnalysisManager struct {
	cache *FuncCache
	fn    *ir.Func
	valid AnalysisSet

	cfg  *cfg.Graph
	live *liveness.Info
	// base holds the current per-class uncoalesced graphs.
	base [ir.NumClasses]*interference.Graph
	bm   *liverange.BlockMap

	// solved records that the last liveness request ran the solver
	// rather than forking an already-built shared solution.
	solved bool
}

// NewAnalysisManager returns a manager serving analyses of the cached
// function. Nothing is valid yet; artifacts materialize on request.
func NewAnalysisManager(cache *FuncCache) *AnalysisManager {
	return &AnalysisManager{cache: cache, fn: cache.Fn}
}

// FromCache reports whether the working function is still the cached
// original, i.e. whether analyses may be served as views of the shared
// frozen artifacts.
func (m *AnalysisManager) FromCache() bool { return m.fn == m.cache.Fn }

// Valid returns the currently valid analyses.
func (m *AnalysisManager) Valid() AnalysisSet { return m.valid }

// Invalidate drops every analysis not in preserved. The runner calls
// this after each pass with the pass's Preserves() set.
func (m *AnalysisManager) Invalidate(preserved AnalysisSet) { m.valid &= preserved }

// MarkValid records that a is now valid (used by analysis passes that
// materialize an artifact themselves).
func (m *AnalysisManager) MarkValid(a Analysis) { m.valid = m.valid.With(a) }

// SetFunc switches the manager to a rewritten working function (the
// lazily-created clone). Everything is invalidated.
func (m *AnalysisManager) SetFunc(fn *ir.Func) {
	m.fn = fn
	m.valid = PreserveNone
}

// Liveness returns the liveness of the working function, computing it
// if invalid. While the working function is the cached original the
// result is a private Fork of the shared frozen Info; hit reports
// whether the shared artifact was already built (the prep-cache hit
// signal). After a rewrite the CFG and liveness are recomputed from
// scratch.
func (m *AnalysisManager) Liveness() (live *liveness.Info, hit bool) {
	if m.valid.Has(AnalysisLiveness) {
		return m.live, true
	}
	if m.FromCache() {
		hit = !m.cache.EnsureLive()
		if b := telemetry.B(); b != nil {
			if hit {
				b.PrepLiveHits.Inc()
			} else {
				b.PrepLiveMisses.Inc()
			}
		}
		m.cfg = m.cache.CFG()
		m.live = m.cache.Liveness().Fork()
	} else {
		m.cfg = cfg.New(m.fn)
		m.live = liveness.Compute(m.fn, m.cfg)
	}
	m.solved = !hit
	m.valid = m.valid.With(AnalysisCFG).With(AnalysisLiveness)
	return m.live, hit
}

// LiveStat describes how the current liveness solution was last
// obtained: the mode (LiveModeFull; empty when it was served from the
// already-built shared cache without solving), the number of block
// visits the solver performed, and the function's total block count.
// The liveness pass turns this into the obs `liveness` event.
func (m *AnalysisManager) LiveStat() (mode string, visited, total int) {
	if m.solved {
		mode = LiveModeFull
	}
	return mode, m.live.Visited, len(m.fn.Blocks)
}

// CFG returns the control-flow graph of the working function,
// computing it (together with liveness) if invalid.
func (m *AnalysisManager) CFG() *cfg.Graph {
	m.Liveness()
	return m.cfg
}

// Interference materializes the per-class base (uncoalesced)
// interference graphs of the working function. While the working
// function is the cached original they are copy-on-write Snapshots of
// the shared frozen graphs; hit reports whether those were already
// built. After a rewrite they are built from scratch.
func (m *AnalysisManager) Interference() (hit bool) {
	if m.valid.Has(AnalysisInterference) {
		return true
	}
	if m.FromCache() {
		hit = !m.cache.EnsureBase()
		if b := telemetry.B(); b != nil {
			if hit {
				b.PrepGraphHits.Inc()
			} else {
				b.PrepGraphMisses.Inc()
			}
		}
		for c := ir.Class(0); c < ir.NumClasses; c++ {
			m.base[c] = m.cache.BaseGraph(c).Snapshot()
		}
	} else {
		live, _ := m.Liveness()
		for c := ir.Class(0); c < ir.NumClasses; c++ {
			m.base[c] = interference.Build(m.fn, live, c)
		}
	}
	m.valid = m.valid.With(AnalysisInterference)
	return hit
}

// BlockMap materializes the live-range block map of the working
// function: the frozen shared map at round 0, a fresh scan after a
// spill rewrite.
func (m *AnalysisManager) BlockMap() *liverange.BlockMap {
	if m.valid.Has(AnalysisBlockMap) {
		return m.bm
	}
	live, _ := m.Liveness()
	if m.FromCache() {
		m.bm = m.cache.BlockMap()
	} else {
		m.bm = liverange.NewBlockMap(m.fn, live)
	}
	m.valid = m.valid.With(AnalysisBlockMap)
	return m.bm
}

// Base returns the current base interference graph of one bank.
// Interference must have materialized it this round; consumers that
// mutate must go through Snapshot.
func (m *AnalysisManager) Base(c ir.Class) *interference.Graph { return m.base[c] }

// CoalescedSnapshots returns fresh copy-on-write views of the shared
// aggressively-coalesced round-0 graphs. Only meaningful while the
// working function is the cached original.
func (m *AnalysisManager) CoalescedSnapshots() [ir.NumClasses]*interference.Graph {
	cg := m.cache.Coalesced()
	var out [ir.NumClasses]*interference.Graph
	for c := range cg {
		out[c] = cg[c].Snapshot()
	}
	return out
}

// CachedRanges returns the shared round-0 live-range analysis under
// ff. Only meaningful while the working function is the cached
// original.
func (m *AnalysisManager) CachedRanges(ff *freq.FuncFreq) *liverange.Set {
	return m.cache.RangesFor(ff)
}
