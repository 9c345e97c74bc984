package linscan

import (
	"fmt"
	"math"

	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/regalloc"
	"repro/internal/telemetry"
)

// Scan is the graph-free linear-scan strategy. As a PipelineBuilder it
// replaces the six-pass coloring pipeline with three passes —
//
//	liveness → scan → spill-rewrite
//
// — dropping build-graph, coalesce, liverange, and color entirely: the
// scan pass derives segments, costs, and hints from one backward walk
// and assigns registers in a single sweep with hole-aware second-chance
// binpacking. The zero value is ready to use and safe for concurrent
// allocations.
type Scan struct{}

// Name implements Strategy.
func (*Scan) Name() string { return "linscan" }

// BuildPipeline implements regalloc.PipelineBuilder.
func (*Scan) BuildPipeline(insertSpills regalloc.SpillInserter) pipeline.Pipeline {
	return pipeline.New(
		regalloc.LivenessPass(),
		scanPass{},
		regalloc.SpillRewritePass(insertSpills),
	)
}

// Allocate implements Strategy for the rare case of Scan dropped into
// a graph-coloring pipeline (Options.Pipeline with a ColorPass(Scan)):
// a single greedy sweep over the graph's nodes applying the same
// benefit split, evicting the cheapest spillable holder when blocked.
// The native path — the scan pass installed by BuildPipeline — never
// calls this.
func (sc *Scan) Allocate(ctx *regalloc.ClassContext) *regalloc.ClassResult {
	res := regalloc.NewClassResult()
	cost := func(r ir.Reg) float64 {
		if rg := ctx.RangeOf(r); rg != nil {
			return rg.SpillCost
		}
		return 0
	}
	for _, rep := range ctx.Nodes() {
		rg := ctx.RangeOf(rep)
		if rg != nil && !rg.NoSpill && rg.CrossesCall && rg.BenefitCaller < 0 && rg.BenefitCallee < 0 {
			res.Spilled = append(res.Spilled, rep)
			ctx.EmitSpill(rep, obs.ReasonNegativeBenefit, rg.SpillCost)
			continue
		}
		for {
			free := ctx.FreeColors(res, rep)
			if len(free) > 0 {
				caller, callee := ctx.SplitFree(free)
				prefer := rg != nil && rg.PrefersCallee()
				var col machine.PhysReg
				switch {
				case prefer && len(callee) > 0:
					col = callee[0]
				case !prefer && len(caller) > 0:
					col = caller[0]
				default:
					col = free[0]
				}
				ctx.Assign(res, rep, col)
				ctx.EmitAssign(rep, col, prefer)
				break
			}
			victim, vcost := ir.NoReg, math.Inf(1)
			if rg == nil || !rg.NoSpill {
				victim, vcost = rep, cost(rep)
			}
			ctx.Graph.Neighbors(rep, func(nb ir.Reg) {
				if _, colored := res.Colors[nb]; !colored {
					return
				}
				if nrg := ctx.RangeOf(nb); nrg != nil && nrg.NoSpill {
					return
				}
				if c := cost(nb); c < vcost || (c == vcost && nb < victim) {
					victim, vcost = nb, c
				}
			})
			if victim == ir.NoReg {
				// Every holder is an unspillable temporary; spilling rep
				// anyway at least terminates the sweep (the round limit
				// catches a configuration this pathological).
				victim = rep
			}
			if victim == rep {
				res.Spilled = append(res.Spilled, rep)
				ctx.EmitSpill(rep, obs.ReasonBlocked, vcost)
				break
			}
			ctx.Unassign(res, victim)
			res.Spilled = append(res.Spilled, victim)
			ctx.EmitSpill(victim, obs.ReasonBlocked, vcost)
		}
	}
	return res
}

// runScan performs the analysis walk and the per-bank scans against
// the pipeline state, without committing anything. Call sites are
// charged by the state's interprocedural table when one is set.
func runScan(s *pipeline.State) (*funcIntervals, *scanOutcome, error) {
	nr := s.Fn.NumRegs()
	// The segment arena parks on the state between rounds, so spill
	// rounds reuse the round-0 allocations.
	sb, ok := s.Scratch.(*segBuilder)
	if !ok {
		sb = new(segBuilder)
		s.Scratch = sb
	}
	fi := analyze(s.Fn, s.Live, s.FF, s.Config, sb, s.Interproc)
	// Recycle the colors backing array across rounds, like the color
	// pass: only the final round's contents escape into the result.
	colors := s.Colors
	if cap(colors) < nr {
		colors = make([]machine.PhysReg, nr)
	} else {
		colors = colors[:nr]
	}
	for i := range colors {
		colors[i] = machine.NoPhysReg
	}
	out := &scanOutcome{colors: colors, via: make([]uint8, nr)}
	for c := ir.Class(0); c < ir.NumClasses; c++ {
		if err := fi.scan(s.Fn, c, s.Config, s.IsNoSpill, out); err != nil {
			return fi, out, err
		}
	}
	return fi, out, nil
}

// commit publishes a scan outcome to the state: the coloring, the
// spill set with its deterministically numbered slots, the decision
// events, and the tier telemetry.
func commit(s *pipeline.State, fi *funcIntervals, out *scanOutcome) {
	spillSet := make(map[ir.Reg]*ir.Symbol, len(out.spilled))
	for i, r := range out.spilled {
		slot := &ir.Symbol{
			Name:  fmt.Sprintf("%s.spill.%d", s.Fn.Name, len(s.SlotOf)+i),
			Class: s.Fn.RegClass(r),
			Local: true,
			Spill: true,
		}
		spillSet[r] = slot
		if s.Traced() {
			bcaller, bcallee := fi.benefits(int(r))
			s.Tracer.Emit(obs.Event{Kind: obs.KindSpillChoice, Fn: s.Fn.Name,
				Class: s.Fn.RegClass(r), Round: s.Round, Reg: r,
				Reason: out.spillReasons[i], Key: fi.spillCost[r],
				Cost: fi.spillCost[r], BenefitCaller: bcaller, BenefitCallee: bcallee})
			s.Tracer.Emit(obs.Event{Kind: obs.KindRewriteInsert, Fn: s.Fn.Name,
				Class: s.Fn.RegClass(r), Round: s.Round, Reg: r, Slot: slot.Name, N: 1})
		}
	}
	if s.Traced() {
		for r := 0; r < len(out.colors); r++ {
			col := out.colors[r]
			if col == machine.NoPhysReg {
				continue
			}
			c := s.Fn.RegClass(ir.Reg(r))
			bcaller, bcallee := fi.benefits(r)
			s.Tracer.Emit(obs.Event{Kind: obs.KindColorAssign, Fn: s.Fn.Name,
				Class: c, Round: s.Round, Reg: ir.Reg(r), Color: col,
				Wanted: kindName(fi.prefersCallee(r)),
				Chosen: kindName(s.Config.IsCalleeSave(c, col)),
				Cost:   fi.spillCost[r], BenefitCaller: bcaller, BenefitCallee: bcallee})
			// Binpacking decisions ride directly behind their assignment:
			// a hole event for a range packed into an occupied register at
			// first chance, a second-chance event for one that lost its
			// register and was re-seated against the committed assignment.
			// N carries the range's segment count (≥ 2 means real holes).
			switch out.via[r] {
			case viaHole:
				s.Tracer.Emit(obs.Event{Kind: obs.KindHoleAssign, Fn: s.Fn.Name,
					Class: c, Round: s.Round, Reg: ir.Reg(r), Color: col,
					Cost: fi.spillCost[r], N: len(fi.segs[r])})
			case viaSecond:
				s.Tracer.Emit(obs.Event{Kind: obs.KindSecondChance, Fn: s.Fn.Name,
					Class: c, Round: s.Round, Reg: ir.Reg(r), Color: col,
					Cost: fi.spillCost[r], N: len(fi.segs[r])})
			}
		}
	}
	s.SpillSet = spillSet
	s.Colors = out.colors
	if b := telemetry.B(); b != nil {
		b.ScanRounds.Inc()
		if out.holeAssigns > 0 {
			b.ScanHoleAssigns.Add(int64(out.holeAssigns))
		}
		if out.secondChance > 0 {
			b.ScanSecondChance.Add(int64(out.secondChance))
		}
	}
}

func kindName(callee bool) string {
	if callee {
		return obs.KindCallee
	}
	return obs.KindCaller
}

// scanPass is the Scan strategy's single allocation pass.
type scanPass struct{}

func (scanPass) Name() string                    { return obs.PhaseScan }
func (scanPass) Preserves() pipeline.AnalysisSet { return pipeline.PreserveAll }

func (scanPass) Run(s *pipeline.State) error {
	fi, out, err := runScan(s)
	if err != nil {
		return err
	}
	commit(s, fi, out)
	return nil
}

// DefaultMaxScanOverhead is the escalation bar callcost.HybridTiered
// installs. Re-derived for the segment-refined scan from the knee of
// the benchprog bar sweep (cmd/experiments -exp pareto): above ~20000
// estimated weighted memory operations, full coloring reliably recovers
// meaningful quality over the scan (the long tail of hot spill-heavy
// functions); below it, escalations stop paying for themselves (at a
// bar of 25000 an extra function escalates with zero total-overhead
// gain over 30000). The hull-based scan could not afford a finite bar
// at all — every spill escalated; the sharper segments both raised the
// bar and cut benchprog escalations from 7/76 to 6/76 at 333745 total
// overhead (vs 487666), within 4% of improved coloring.
const DefaultMaxScanOverhead = 20000

// Hybrid is the two-tier strategy: run the linear scan first and keep
// its result when it is clean; escalate to graph coloring — once, for
// the whole rest of the function's allocation — when the scan would
// take a pressure spill or its estimated overhead exceeds the budget.
// Spill-light functions (the common case) pay only the scan; the hard
// ones get the full coloring treatment they were going to need anyway.
type Hybrid struct {
	// Escalate is the graph-coloring strategy of the expensive tier.
	// Nil falls back to base Chaitin; callers usually install the
	// paper's improved allocator.
	Escalate regalloc.Strategy
	// MaxScanOverhead, when positive, additionally escalates functions
	// whose scan allocation's estimated overhead (weighted memory
	// operations) exceeds it, even if nothing spilled. Zero escalates
	// on spills only.
	MaxScanOverhead float64
}

// Name implements Strategy.
func (*Hybrid) Name() string { return "hybrid" }

// escalate returns the expensive-tier strategy.
func (h *Hybrid) escalate() regalloc.Strategy {
	if h.Escalate != nil {
		return h.Escalate
	}
	return &regalloc.Chaitin{}
}

// Allocate implements Strategy by delegating to the expensive tier
// (meaningful only when Hybrid is dropped into a plain coloring
// pipeline; the native tiered pipeline decides per function).
func (h *Hybrid) Allocate(ctx *regalloc.ClassContext) *regalloc.ClassResult {
	return h.escalate().Allocate(ctx)
}

// BuildPipeline implements regalloc.PipelineBuilder: the standard
// coloring pipeline of the escalation strategy, with the scan pass
// inserted after liveness and every coloring pass gated on
// State.Escalated. A function whose scan commits cleanly converges
// without ever running build-graph; one that escalates runs the full
// coloring sequence in the same round and stays in that tier for all
// later rounds.
func (h *Hybrid) BuildPipeline(insertSpills regalloc.SpillInserter) pipeline.Pipeline {
	coloring := regalloc.BuildPipeline(h.escalate(), insertSpills)
	passes := []pipeline.Pass{
		regalloc.LivenessPass(),
		hybridScanPass{h: h},
	}
	for _, p := range coloring.Passes() {
		switch p.Name() {
		case obs.PhaseLiveness:
			// Already first; both tiers share it.
		case obs.PhaseRewrite:
			// Both tiers spill through the same rewrite (it skips on
			// converged rounds either way).
			passes = append(passes, p)
		default:
			passes = append(passes, escalatedOnly{inner: p})
		}
	}
	return pipeline.New(passes...)
}

// hybridScanPass runs the scan tier at round 0 and decides whether to
// keep the result or escalate.
type hybridScanPass struct{ h *Hybrid }

func (hybridScanPass) Name() string                    { return obs.PhaseScan }
func (hybridScanPass) Preserves() pipeline.AnalysisSet { return pipeline.PreserveAll }

// Skip keeps the scan out of every round after an escalation.
func (hybridScanPass) Skip(s *pipeline.State) bool { return s.Escalated }

func (p hybridScanPass) Run(s *pipeline.State) error {
	fi, out, err := runScan(s)
	reason := ""
	switch {
	case err != nil:
		// Unspillable pressure the scan cannot express; coloring can.
		reason = "scan-error"
	case out.pressureSpills > 0:
		// Only pressure spills signal that the scan's packing failed.
		// Spills by choice are the cost model speaking — the coloring
		// tier's §4 machinery makes the same negative-benefit call — so
		// they are not worth a full coloring run by themselves.
		reason = "spill"
	case p.h.MaxScanOverhead > 0 && out.estOverhead > p.h.MaxScanOverhead:
		reason = "overhead"
	}
	if reason != "" {
		s.Escalated = true
		if b := telemetry.B(); b != nil {
			b.HybridEscalations.Inc()
		}
		if s.Traced() {
			s.Tracer.Emit(obs.Event{Kind: obs.KindEscalate, Fn: s.Fn.Name,
				Round: s.Round, Reason: reason, N: len(out.spilled)})
		}
		return nil
	}
	commit(s, fi, out)
	return nil
}

// escalatedOnly gates a coloring pass on the hybrid's escalation flag,
// delegating everything else (including the pass's own Skip and
// PostPhase) to the wrapped pass.
type escalatedOnly struct{ inner pipeline.Pass }

func (e escalatedOnly) Name() string                    { return e.inner.Name() }
func (e escalatedOnly) Preserves() pipeline.AnalysisSet { return e.inner.Preserves() }
func (e escalatedOnly) Run(s *pipeline.State) error     { return e.inner.Run(s) }

func (e escalatedOnly) Skip(s *pipeline.State) bool {
	if !s.Escalated {
		return true
	}
	if sk, ok := e.inner.(pipeline.Skipper); ok {
		return sk.Skip(s)
	}
	return false
}

func (e escalatedOnly) PostPhase(s *pipeline.State) {
	if pp, ok := e.inner.(pipeline.PostPhaser); ok {
		pp.PostPhase(s)
	}
}
