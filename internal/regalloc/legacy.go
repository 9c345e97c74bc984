package regalloc

import (
	"fmt"
	"time"

	"repro/internal/cfg"
	"repro/internal/freq"
	"repro/internal/interference"
	"repro/internal/ir"
	"repro/internal/liveness"
	"repro/internal/liverange"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

// AllocateLegacy is the pre-pipeline allocation driver, preserved
// verbatim (modulo the exported FuncCache accessors) as the reference
// implementation for the pipeline differential tests: the pass
// pipeline behind AllocatePrepared must be byte-identical to this loop
// — colors, spill slots, round counts, assembly, and the traced event
// stream — on every benchmark program. It is not part of the public
// allocation surface and ignores opts.Pipeline.
func AllocateLegacy(prep *pipeline.FuncCache, ff *freq.FuncFreq, config machine.Config, strat Strategy, insertSpills SpillInserter, opts Options) (*FuncAlloc, error) {
	if opts.MaxRounds == 0 {
		opts.MaxRounds = DefaultMaxRounds
	}
	fn := prep.Fn
	work := fn // cloned lazily, right before the first spill rewrite
	cloned := false
	noSpill := make(map[ir.Reg]bool)
	slotOf := make(map[ir.Reg]*ir.Symbol)
	isNoSpill := func(r ir.Reg) bool { return noSpill[r] }

	// The uncoalesced graphs of the current round.
	var baseGraphs [ir.NumClasses]*interference.Graph

	tr := opts.Tracer
	traced := tr != nil && tr.Enabled()
	var t0 time.Time

	// The round-0 aggressive-coalesce result and the round-0 range
	// analysis are strategy- and configuration-independent too (the
	// aggressive merge loop never reads k, and round 0 has no spill
	// temporaries), so the default untraced configuration shares them
	// across cells as well.
	cachedRound0 := opts.Coalesce && !opts.ConservativeCoalesce && !traced

	for round := 0; round < opts.MaxRounds; round++ {
		var live *liveness.Info
		if round == 0 {
			if traced {
				t0 = phaseStart(tr, work.Name, round, obs.PhaseLiveness)
			}
			liveHit := !prep.EnsureLive()
			live = prep.Liveness().Fork()
			if traced {
				phaseEnd(tr, work.Name, round, obs.PhaseLiveness, t0)
				t0 = phaseStart(tr, work.Name, round, obs.PhaseBuild)
			}
			baseHit := !prep.EnsureBase()
			for c := ir.Class(0); c < ir.NumClasses; c++ {
				baseGraphs[c] = prep.BaseGraph(c).Snapshot()
			}
			if traced {
				phaseEnd(tr, work.Name, round, obs.PhaseBuild, t0)
				if liveHit && baseHit {
					tr.Emit(obs.Event{Kind: obs.KindPrepCache, Fn: work.Name, Round: round})
				}
			}
		} else {
			if traced {
				t0 = phaseStart(tr, work.Name, round, obs.PhaseLiveness)
			}
			g := cfg.New(work)
			live = liveness.Compute(work, g)
			if traced {
				phaseEnd(tr, work.Name, round, obs.PhaseLiveness, t0)
				t0 = phaseStart(tr, work.Name, round, obs.PhaseBuild)
			}
			for c := ir.Class(0); c < ir.NumClasses; c++ {
				baseGraphs[c] = interference.Build(work, live, c)
			}
			if traced {
				phaseEnd(tr, work.Name, round, obs.PhaseBuild, t0)
			}
		}
		if traced {
			t0 = phaseStart(tr, work.Name, round, obs.PhaseCoalesce)
		}
		var graphs [ir.NumClasses]*interference.Graph
		if round == 0 && cachedRound0 {
			cg := prep.Coalesced()
			for c := ir.Class(0); c < ir.NumClasses; c++ {
				graphs[c] = cg[c].Snapshot()
			}
		} else {
			for c := ir.Class(0); c < ir.NumClasses; c++ {
				if opts.Coalesce {
					graphs[c] = baseGraphs[c].Snapshot()
					if traced {
						class, rnd := c, round
						graphs[c].TraceMerge = func(kept, gone ir.Reg) {
							tr.Emit(obs.Event{Kind: obs.KindCoalesceMerge, Fn: work.Name,
								Class: class, Round: rnd, Reg: kept, With: gone})
						}
					}
					graphs[c].Coalesce(opts.ConservativeCoalesce, config.Total(c))
					graphs[c].TraceMerge = nil
				} else {
					// A snapshot, never the base itself: nothing the
					// coloring round does to graphs[c] may reach the base
					// graph.
					graphs[c] = baseGraphs[c].Snapshot()
				}
			}
		}
		if traced {
			phaseEnd(tr, work.Name, round, obs.PhaseCoalesce, t0)
			t0 = phaseStart(tr, work.Name, round, obs.PhaseRanges)
		}
		var ranges *liverange.Set
		if round == 0 && cachedRound0 {
			ranges = prep.RangesFor(ff)
		} else {
			ranges = liverange.Analyze(work, live, &graphs, ff, isNoSpill)
		}
		if traced {
			phaseEnd(tr, work.Name, round, obs.PhaseRanges, t0)
			t0 = phaseStart(tr, work.Name, round, obs.PhaseColor)
		}

		spillSet := make(map[ir.Reg]*ir.Symbol)
		colors := make([]machine.PhysReg, work.NumRegs())
		for i := range colors {
			colors[i] = machine.NoPhysReg
		}
		for c := ir.Class(0); c < ir.NumClasses; c++ {
			ctx := &ClassContext{
				Fn:     work,
				Class:  c,
				Graph:  graphs[c],
				Ranges: ranges,
				Config: config,
				Round:  round,
				Tracer: tr,
			}
			res := strat.Allocate(ctx)
			for rep, col := range res.Colors {
				for _, m := range graphs[c].Members(rep) {
					colors[m] = col
				}
			}
			for _, rep := range res.Spilled {
				slot := &ir.Symbol{
					Name:  fmt.Sprintf("%s.spill.%d", work.Name, len(slotOf)+len(spillSet)),
					Class: c,
					Local: true,
					Spill: true,
				}
				members := graphs[c].Members(rep)
				for _, m := range members {
					spillSet[m] = slot
				}
				if traced {
					tr.Emit(obs.Event{Kind: obs.KindRewriteInsert, Fn: work.Name,
						Class: c, Round: round, Reg: rep, Slot: slot.Name, N: len(members)})
				}
			}
		}
		if traced {
			phaseEnd(tr, work.Name, round, obs.PhaseColor, t0)
		}

		if len(spillSet) == 0 {
			return &FuncAlloc{
				Fn:     work,
				Colors: colors,
				SlotOf: slotOf,
				Rounds: round + 1,
				Ranges: ranges,
				Live:   live,
				Graphs: graphs,
				Config: config,
			}, nil
		}

		for r, slot := range spillSet {
			slotOf[r] = slot
		}
		if traced {
			t0 = phaseStart(tr, work.Name, round, obs.PhaseRewrite)
		}
		if !cloned {
			// Round 0 ran entirely on copy-on-write views of the
			// original; only a spill rewrite needs a private body.
			work = fn.Clone()
			cloned = true
		}
		insertSpills(work, spillSet, func(t ir.Reg) { noSpill[t] = true })
		if traced {
			phaseEnd(tr, work.Name, round, obs.PhaseRewrite, t0)
		}
	}
	return nil, fmt.Errorf("regalloc: %s did not converge on %s after %d rounds", strat.Name(), fn.Name, opts.MaxRounds)
}

// phaseStart emits the PhaseStart event and opens the timing window.
// Callers guard on the tracer being enabled.
func phaseStart(tr obs.Tracer, fn string, round int, phase string) time.Time {
	tr.Emit(obs.Event{Kind: obs.KindPhaseStart, Fn: fn, Round: round, Phase: phase})
	return time.Now()
}

// phaseEnd emits the PhaseEnd event carrying the measured wall time.
func phaseEnd(tr obs.Tracer, fn string, round int, phase string, t0 time.Time) {
	tr.Emit(obs.Event{Kind: obs.KindPhaseEnd, Fn: fn, Round: round, Phase: phase, Dur: time.Since(t0)})
}
