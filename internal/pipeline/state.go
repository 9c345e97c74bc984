package pipeline

import (
	"context"

	"repro/internal/freq"
	"repro/internal/interference"
	"repro/internal/interproc"
	"repro/internal/ir"
	"repro/internal/liveness"
	"repro/internal/liverange"
	"repro/internal/machine"
	"repro/internal/obs"
)

// State is the blackboard the passes of one allocation run communicate
// through: the working function, the per-round analysis products, and
// the accumulated allocation outputs. One State serves all rounds of
// one (function, strategy, configuration) allocation; the runner resets
// the per-round fields between rounds.
type State struct {
	// Orig is the original (cached) function; it is never mutated.
	Orig *ir.Func
	// Fn is the working function: Orig until the first spill rewrite,
	// then a private clone rewritten in place each spilling round.
	Fn *ir.Func
	// FF supplies the execution-frequency weights.
	FF *freq.FuncFreq
	// Config is the register configuration being allocated for.
	Config machine.Config
	// Round is the current build→color→spill round (0-based).
	Round int
	// Tracer receives decision events; nil disables tracing.
	Tracer obs.Tracer
	// Interproc, when non-nil, is the whole-program interprocedural
	// summary table of the run: the cost passes read it here at run
	// time, so every pipeline — the default or one a caller derived —
	// charges call sites by the callees' published clobber summaries.
	// Nil keeps the paper's static call-site estimate.
	Interproc *interproc.Table
	// Ctx, when non-nil, carries the deadline/cancellation of the
	// request this allocation serves. The runner polls it between
	// passes and abandons the run with ctx.Err() once it is done; nil
	// (the default for in-process callers) costs one nil check per
	// pass.
	Ctx context.Context
	// AM owns the analysis artifacts and their validity.
	AM *AnalysisManager

	// Per-round products.

	// Live is the liveness of Fn this round (a private fork).
	Live *liveness.Info
	// Graphs holds the working (post-coalesce) interference graphs of
	// this round. Entries left nil by the pipeline (e.g. with the
	// coalesce pass dropped) are lazily filled with base snapshots by
	// WorkGraphs.
	Graphs [ir.NumClasses]*interference.Graph
	// SharedRound0 marks that this round's coalesced graphs are views
	// of the shared round-0 artifacts, so the live-range analysis may
	// come from the shared cache too.
	SharedRound0 bool
	// Ranges is the live-range analysis of this round.
	Ranges *liverange.Set
	// Colors is the coloring produced by the strategy this round.
	Colors []machine.PhysReg
	// SpillSet maps the registers the strategy spilled this round to
	// their assigned stack slots. Empty means the round converged.
	SpillSet map[ir.Reg]*ir.Symbol

	// Accumulated outputs.

	// SlotOf maps every register spilled in any round to its slot.
	SlotOf map[ir.Reg]*ir.Symbol
	// NoSpill marks the spill temporaries introduced by rewrites; they
	// must never be spill candidates themselves.
	NoSpill map[ir.Reg]bool
	// Escalated records that a tiered pipeline abandoned its cheap tier
	// for this function (the hybrid scan-first strategy sets it when the
	// scan spills and graph coloring takes over). It is per-allocation
	// state, deliberately not reset between rounds: once escalated, every
	// later round stays in the expensive tier.
	Escalated bool

	// Scratch is strategy-private working storage that survives across
	// rounds of one allocation (never shared between functions). A pass
	// that needs per-round scratch — the linear scan's segment arena,
	// for example — parks it here so spill rounds reuse the round-0
	// allocations. Passes must tolerate any value left by another pass
	// (type-assert, replace on mismatch).
	Scratch any

	// LiveHit and BaseHit report whether this round's liveness and
	// base graphs were served from an already-built shared cache (the
	// prep-cache tracing signal).
	LiveHit bool
	BaseHit bool

	cloned bool
}

// NewState prepares a run of cache.Fn under ff and config.
func NewState(cache *FuncCache, ff *freq.FuncFreq, config machine.Config, tr obs.Tracer) *State {
	return &State{
		Orig:    cache.Fn,
		Fn:      cache.Fn,
		FF:      ff,
		Config:  config,
		Tracer:  tr,
		AM:      NewAnalysisManager(cache),
		SlotOf:  make(map[ir.Reg]*ir.Symbol),
		NoSpill: make(map[ir.Reg]bool),
	}
}

// Traced reports whether decision events should be emitted.
func (s *State) Traced() bool { return s.Tracer != nil && s.Tracer.Enabled() }

// IsNoSpill is the no-spill predicate over accumulated spill
// temporaries, in the shape liverange.Analyze wants.
func (s *State) IsNoSpill(r ir.Reg) bool { return s.NoSpill[r] }

// CloneFn switches the working function to a private clone of the
// original, exactly once; later calls are no-ops (the clone is
// rewritten in place). Block IDs are preserved by Clone, so frequency
// tables for the original remain valid.
func (s *State) CloneFn() {
	if s.cloned {
		return
	}
	s.Fn = s.Orig.Clone()
	s.cloned = true
	s.AM.SetFunc(s.Fn)
}

// BeginRound resets the per-round products. The runner calls it before
// each pass sweep.
func (s *State) BeginRound(round int) {
	s.Round = round
	s.Graphs = [ir.NumClasses]*interference.Graph{}
	s.SharedRound0 = false
	s.SpillSet = nil
	s.LiveHit = false
	s.BaseHit = false
}

// Converged reports whether the last pass sweep ended without spills.
func (s *State) Converged() bool { return len(s.SpillSet) == 0 }

// WorkGraphs returns this round's working interference graphs, filling
// any entry no pass produced with a copy-on-write snapshot of the base
// graph — the degenerate "no coalescing" product. This keeps a
// pipeline with the coalesce pass dropped well-formed, and guarantees
// downstream passes never receive the base graph itself: it stays the
// round's valid uncoalesced analysis, whatever they do to theirs.
func (s *State) WorkGraphs() *[ir.NumClasses]*interference.Graph {
	for c := range s.Graphs {
		if s.Graphs[c] == nil {
			s.Graphs[c] = s.AM.Base(ir.Class(c)).Snapshot()
		}
	}
	return &s.Graphs
}
