package regalloc

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/liverange"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/telemetry"
)

// This file defines the concrete passes of the allocation pipeline —
// the stages of the paper's Figure 1, each a pipeline.Pass the runner
// times and traces automatically. BuildPipeline assembles the default
// order:
//
//	liveness → build-graph → coalesce → liverange → color → spill-rewrite
//
// Ablations edit a Pipeline value instead of threading booleans:
// Replace(obs.PhaseCoalesce, CoalescePass(BriggsCoalesce)) switches the
// coalescing test, and Drop(obs.PhaseCoalesce) removes coalescing
// entirely.

// LivenessPass materializes the CFG and liveness of the working
// function. At round 0 it is served as a fork of the shared cached
// solution; after a spill rewrite both are recomputed from scratch on
// the rewritten body.
func LivenessPass() pipeline.Pass { return livenessPass{} }

type livenessPass struct{}

func (livenessPass) Name() string                    { return obs.PhaseLiveness }
func (livenessPass) Preserves() pipeline.AnalysisSet { return pipeline.PreserveAll }

func (livenessPass) Run(s *pipeline.State) error {
	s.Live, s.LiveHit = s.AM.Liveness()
	return nil
}

// PostPhase reports the round's liveness solve — its mode and how many
// blocks the worklist visited — after the phase timing window closes.
// Nothing is emitted when the solution came from the already-built
// shared cache without solving.
func (livenessPass) PostPhase(s *pipeline.State) {
	if !s.Traced() {
		return
	}
	mode, visited, total := s.AM.LiveStat()
	if mode == "" {
		return
	}
	s.Tracer.Emit(obs.Event{Kind: obs.KindLiveness, Fn: s.Fn.Name, Round: s.Round,
		Reason: mode, N: visited, Total: total})
}

// BuildGraphPass materializes the per-class base interference graphs:
// copy-on-write views of the shared cache at round 0, and graphs built
// from scratch on the rewritten body after a spill rewrite (the
// paper's graph-reconstruction phase).
func BuildGraphPass() pipeline.Pass { return buildGraphPass{} }

type buildGraphPass struct{}

func (buildGraphPass) Name() string                    { return obs.PhaseBuild }
func (buildGraphPass) Preserves() pipeline.AnalysisSet { return pipeline.PreserveAll }

func (buildGraphPass) Run(s *pipeline.State) error {
	s.BaseHit = s.AM.Interference()
	return nil
}

// PostPhase reports a full prep-cache hit — both liveness and base
// graphs served from already-built shared artifacts — after the build
// phase window closes.
func (buildGraphPass) PostPhase(s *pipeline.State) {
	if s.Round == 0 && s.LiveHit && s.BaseHit && s.Traced() {
		s.Tracer.Emit(obs.Event{Kind: obs.KindPrepCache, Fn: s.Fn.Name, Round: s.Round})
	}
}

// CoalesceMode selects the live-range coalescing test of the coalesce
// pass.
type CoalesceMode int

const (
	// AggressiveCoalesce merges every move-related pair (Chaitin; the
	// paper's framework default).
	AggressiveCoalesce CoalesceMode = iota
	// BriggsCoalesce merges only when the combined node stays
	// conservatively colorable (the Briggs test).
	BriggsCoalesce
)

// String names the mode.
func (m CoalesceMode) String() string {
	switch m {
	case AggressiveCoalesce:
		return "aggressive"
	case BriggsCoalesce:
		return "briggs"
	}
	return "unknown"
}

// CoalescePass derives this round's working graphs from the base
// graphs: snapshot, then coalesce under the selected mode. The
// aggressive untraced round 0 is served straight from the shared
// coalesced cache (the merge loop never reads k, so one result fits
// every configuration); traced runs always re-coalesce so the merge
// events appear in the stream.
func CoalescePass(mode CoalesceMode) pipeline.Pass { return coalescePass{mode: mode} }

type coalescePass struct{ mode CoalesceMode }

func (coalescePass) Name() string                    { return obs.PhaseCoalesce }
func (coalescePass) Preserves() pipeline.AnalysisSet { return pipeline.PreserveAll }

func (p coalescePass) Run(s *pipeline.State) error {
	if p.mode == AggressiveCoalesce && s.Round == 0 && !s.Traced() && s.AM.FromCache() {
		s.Graphs = s.AM.CoalescedSnapshots()
		s.SharedRound0 = true
		return nil
	}
	for c := ir.Class(0); c < ir.NumClasses; c++ {
		// Always a snapshot, never the base itself: the base stays the
		// round's valid uncoalesced graph.
		g := s.AM.Base(c).Snapshot()
		if s.Traced() {
			class, rnd, name, tr := c, s.Round, s.Fn.Name, s.Tracer
			g.TraceMerge = func(kept, gone ir.Reg) {
				tr.Emit(obs.Event{Kind: obs.KindCoalesceMerge, Fn: name,
					Class: class, Round: rnd, Reg: kept, With: gone})
			}
		}
		g.Coalesce(p.mode == BriggsCoalesce, s.Config.Total(c))
		g.TraceMerge = nil
		s.Graphs[c] = g
	}
	return nil
}

// RangesCostPass runs the live-range cost/benefit analysis over this
// round's working graphs. When the round is served from the shared
// round-0 artifacts the analysis comes from the shared per-frequency
// cache as well. The run's interprocedural summary table
// (State.Interproc), when set, replaces the paper's static call-site
// caller-save estimate with the callees' published clobber summaries,
// and bypasses that shared cache — the cached analysis was computed
// with static costs, and summary tables are per-batch-run state that
// must not leak between programs.
func RangesCostPass() pipeline.Pass { return rangesPass{} }

type rangesPass struct{}

func (rangesPass) Name() string                    { return obs.PhaseRanges }
func (rangesPass) Preserves() pipeline.AnalysisSet { return pipeline.PreserveAll }

func (rangesPass) Run(s *pipeline.State) error {
	if s.SharedRound0 && s.Interproc == nil {
		s.Ranges = s.AM.CachedRanges(s.FF)
	} else {
		s.Ranges = liverange.AnalyzeCosts(s.AM.BlockMap(), s.Fn, s.Live, s.WorkGraphs(), s.FF, s.IsNoSpill, s.Interproc)
	}
	s.AM.MarkValid(pipeline.AnalysisLiveRanges)
	return nil
}

// ColorPass runs the strategy's color ordering and assignment per
// bank, producing the round's coloring and spill set. Spilled
// representatives get their stack slots named here so slot numbering
// stays in decision order.
func ColorPass(strat Strategy) pipeline.Pass { return colorPass{strat: strat} }

type colorPass struct{ strat Strategy }

func (colorPass) Name() string                    { return obs.PhaseColor }
func (colorPass) Preserves() pipeline.AnalysisSet { return pipeline.PreserveAll }

func (p colorPass) Run(s *pipeline.State) error {
	graphs := s.WorkGraphs()
	spillSet := make(map[ir.Reg]*ir.Symbol)
	// Intermediate rounds' colorings are dead the moment the next round
	// overwrites them, so the slice's backing array is recycled across
	// rounds; only the final round's contents escape into the result.
	n := s.Fn.NumRegs()
	colors := s.Colors
	if cap(colors) < n {
		colors = make([]machine.PhysReg, n)
	} else {
		colors = colors[:n]
	}
	for i := range colors {
		colors[i] = machine.NoPhysReg
	}
	for c := ir.Class(0); c < ir.NumClasses; c++ {
		ctx := &ClassContext{
			Fn:     s.Fn,
			Class:  c,
			Graph:  graphs[c],
			Ranges: s.Ranges,
			Config: s.Config,
			Round:  s.Round,
			Tracer: s.Tracer,
		}
		res := p.strat.Allocate(ctx)
		for rep, col := range res.Colors {
			graphs[c].ForEachMember(rep, func(m ir.Reg) { colors[m] = col })
		}
		for _, rep := range res.Spilled {
			slot := &ir.Symbol{
				Name:  fmt.Sprintf("%s.spill.%d", s.Fn.Name, len(s.SlotOf)+len(spillSet)),
				Class: c,
				Local: true,
				Spill: true,
			}
			members := 0
			graphs[c].ForEachMember(rep, func(m ir.Reg) {
				spillSet[m] = slot
				members++
			})
			if s.Traced() {
				s.Tracer.Emit(obs.Event{Kind: obs.KindRewriteInsert, Fn: s.Fn.Name,
					Class: c, Round: s.Round, Reg: rep, Slot: slot.Name, N: members})
			}
		}
	}
	s.SpillSet = spillSet
	s.Colors = colors
	if b := telemetry.B(); b != nil {
		b.ColorRounds.Inc()
	}
	return nil
}

// SpillRewritePass commits the round's spill decisions: it records the
// slots, clones the function if this is the first rewrite, and inserts
// the spill code. It skips entirely — no phase events, no
// invalidation — when the round converged, and preserves nothing when
// it runs: the rewrite changed the function, so every analysis must be
// redone next round.
func SpillRewritePass(insert SpillInserter) pipeline.Pass { return spillRewritePass{insert: insert} }

type spillRewritePass struct{ insert SpillInserter }

func (spillRewritePass) Name() string                    { return obs.PhaseRewrite }
func (spillRewritePass) Preserves() pipeline.AnalysisSet { return pipeline.PreserveNone }
func (spillRewritePass) Skip(s *pipeline.State) bool     { return len(s.SpillSet) == 0 }

func (p spillRewritePass) Run(s *pipeline.State) error {
	for r, slot := range s.SpillSet {
		s.SlotOf[r] = slot
	}
	// Rounds before the first rewrite run entirely on copy-on-write
	// views of the original; only a spill rewrite needs a private body.
	s.CloneFn()
	p.insert(s.Fn, s.SpillSet, func(t ir.Reg) { s.NoSpill[t] = true })
	return nil
}

// PipelineBuilder is an optional Strategy extension: a strategy whose
// natural pipeline is not the standard six-pass coloring sequence
// (e.g. the graph-free linear scan, which has no build/coalesce/color
// phases) supplies its own. BuildPipeline — and through it every
// driver that leaves Options.Pipeline nil — consults it before
// assembling the default.
type PipelineBuilder interface {
	BuildPipeline(insertSpills SpillInserter) pipeline.Pipeline
}

// BuildPipeline assembles the default allocation pipeline for strat,
// coalescing aggressively. A strategy implementing PipelineBuilder
// supplies its own pipeline instead. Callers wanting a non-standard
// pipeline (another coalescing mode, none at all) derive one from this
// with Replace and Drop (or assemble their own) and set
// Options.Pipeline. No pass captures per-run settings: the passes read
// them from the pipeline.State AllocatePrepared fills, so one pipeline
// value serves every run.
func BuildPipeline(strat Strategy, insertSpills SpillInserter) pipeline.Pipeline {
	if pb, ok := strat.(PipelineBuilder); ok {
		return pb.BuildPipeline(insertSpills)
	}
	return pipeline.New(
		LivenessPass(),
		BuildGraphPass(),
		CoalescePass(AggressiveCoalesce),
		RangesCostPass(),
		ColorPass(strat),
		SpillRewritePass(insertSpills),
	)
}
