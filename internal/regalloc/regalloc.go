// Package regalloc is the register-allocation framework of the
// reproduction, mirroring the structure of the paper's Figure 1:
//
//	graph construction → live-range coalescing → color ordering →
//	color assignment → graph reconstruction → spill-code insertion →
//	shuffle-code insertion
//
// The framework hosts pluggable Strategy implementations (the paper's
// Table 1): base Chaitin-style and optimistic coloring live here;
// the improved allocator (package core), priority-based coloring
// (package priority), and the CBH model (package cbh) plug in through
// the same interface, so all approaches share graph construction,
// coalescing, spill-code insertion, and measurement — the "fair
// comparison" property the paper's framework argues for.
//
// The two data structures the paper names are explicit: the color
// stack C (ColorStack) connecting color ordering to color assignment,
// and the spill pool S (the Spilled sets flowing back to spill-code
// insertion).
package regalloc

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/freq"
	"repro/internal/interference"
	"repro/internal/interproc"
	"repro/internal/ir"
	"repro/internal/liveness"
	"repro/internal/liverange"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/telemetry"
)

// Strategy is one register-allocation approach: it performs the color
// ordering and color assignment phases for the live ranges of one
// register bank.
type Strategy interface {
	// Name identifies the strategy in reports.
	Name() string
	// Allocate colors the nodes of ctx.Graph. Every node must either
	// receive a color in the result or appear in Spilled.
	Allocate(ctx *ClassContext) *ClassResult
}

// ClassContext is everything a strategy sees for one bank of one
// function in one allocation round.
type ClassContext struct {
	Fn     *ir.Func
	Class  ir.Class
	Graph  *interference.Graph
	Ranges *liverange.Set
	Config machine.Config
	// Round is the allocation round (0-based); spill code from earlier
	// rounds is already in Fn.
	Round int
	// Tracer receives the strategy's decision events; nil disables
	// tracing. Strategies emit through Traced/Emit so the disabled
	// path constructs nothing.
	Tracer obs.Tracer

	// Scratch buffers backing FreeColors and SplitFree. The assignment
	// loop calls both once per popped node, so the buffers turn the two
	// hottest per-node queries into zero-allocation operations.
	freeTaken     []bool
	freeScratch   []machine.PhysReg
	callerScratch []machine.PhysReg
	calleeScratch []machine.PhysReg

	// colorOf mirrors the result's Colors map as a flat register-indexed
	// table — the copy FreeColors actually reads, because the map probe
	// per neighbor was the hottest line of color assignment. Maintained
	// by Assign/Unassign; allocated on first use.
	colorOf []machine.PhysReg
}

// Assign records rep's color in res and in the flat lookup table
// backing FreeColors. Strategies must route every coloring decision
// through Assign/Unassign — writing res.Colors directly would leave
// FreeColors blind to the neighbor's color.
func (ctx *ClassContext) Assign(res *ClassResult, rep ir.Reg, col machine.PhysReg) {
	res.Colors[rep] = col
	ctx.ensureColorOf()
	ctx.colorOf[rep] = col
}

// Unassign removes rep's color (spill-by-choice revoking a tentative
// assignment).
func (ctx *ClassContext) Unassign(res *ClassResult, rep ir.Reg) {
	delete(res.Colors, rep)
	if int(rep) < len(ctx.colorOf) {
		ctx.colorOf[rep] = machine.NoPhysReg
	}
}

func (ctx *ClassContext) ensureColorOf() {
	if ctx.colorOf == nil {
		ctx.colorOf = make([]machine.PhysReg, ctx.Fn.NumRegs())
		for i := range ctx.colorOf {
			ctx.colorOf[i] = machine.NoPhysReg
		}
	}
}

// Traced reports whether decision events should be emitted. Strategies
// guard every emission on it so an untraced run pays nothing.
func (ctx *ClassContext) Traced() bool { return ctx.Tracer != nil && ctx.Tracer.Enabled() }

// Emit stamps ev with the context's function, bank, and round and
// sends it to the tracer. Safe to call untraced (it is a no-op), but
// call sites should guard with Traced to skip event construction.
func (ctx *ClassContext) Emit(ev obs.Event) {
	if ctx.Tracer == nil || !ctx.Tracer.Enabled() {
		return
	}
	ev.Fn = ctx.Fn.Name
	ev.Class = ctx.Class
	ev.Round = ctx.Round
	ctx.Tracer.Emit(ev)
}

// EmitAssign emits the ColorAssign event for rep: the color, the kind
// wanted and taken, and the benefit evidence behind the choice.
func (ctx *ClassContext) EmitAssign(rep ir.Reg, color machine.PhysReg, wantCallee bool) {
	if !ctx.Traced() {
		return
	}
	ev := obs.Event{
		Kind:   obs.KindColorAssign,
		Reg:    rep,
		Color:  color,
		Wanted: kindName(wantCallee),
		Chosen: kindName(ctx.Config.IsCalleeSave(ctx.Class, color)),
	}
	if rg := ctx.RangeOf(rep); rg != nil {
		ev.Cost, ev.BenefitCaller, ev.BenefitCallee = rg.SpillCost, rg.BenefitCaller, rg.BenefitCallee
	}
	ctx.Emit(ev)
}

// EmitSpill emits the SpillChoice event for rep with the reason and
// the heuristic key that condemned it, plus the range's cost evidence.
func (ctx *ClassContext) EmitSpill(rep ir.Reg, reason string, key float64) {
	if !ctx.Traced() {
		return
	}
	ev := obs.Event{Kind: obs.KindSpillChoice, Reg: rep, Reason: reason, Key: key}
	if rg := ctx.RangeOf(rep); rg != nil {
		ev.Cost, ev.BenefitCaller, ev.BenefitCallee = rg.SpillCost, rg.BenefitCaller, rg.BenefitCallee
	}
	ctx.Emit(ev)
}

func kindName(callee bool) string {
	if callee {
		return obs.KindCallee
	}
	return obs.KindCaller
}

// N returns the number of allocable registers in this bank.
func (ctx *ClassContext) N() int { return ctx.Config.Total(ctx.Class) }

// RangeOf returns the cost record of representative rep.
func (ctx *ClassContext) RangeOf(rep ir.Reg) *liverange.Range {
	return ctx.Ranges.Of(rep)
}

// Nodes returns the bank's live-range representatives in deterministic
// order.
func (ctx *ClassContext) Nodes() []ir.Reg { return ctx.Graph.Nodes() }

// ClassResult is a strategy's output for one bank.
type ClassResult struct {
	// Colors maps representatives to physical registers.
	Colors map[ir.Reg]machine.PhysReg
	// Spilled lists representatives sent to the spill pool S; they will
	// be rewritten to memory and the allocation restarted.
	Spilled []ir.Reg
}

// NewClassResult returns an empty result.
func NewClassResult() *ClassResult {
	return &ClassResult{Colors: make(map[ir.Reg]machine.PhysReg)}
}

// ---------------------------------------------------------------------
// Color stack and free-color computation

// ColorStack is the paper's color stack C: live ranges pushed during
// color ordering and popped (last-in, first-out) during color
// assignment, so the top of the stack chooses registers first.
type ColorStack struct {
	items []ir.Reg
}

// Push adds a live range to the top of the stack.
func (s *ColorStack) Push(r ir.Reg) { s.items = append(s.items, r) }

// Pop removes and returns the top; the boolean is false when empty.
func (s *ColorStack) Pop() (ir.Reg, bool) {
	if len(s.items) == 0 {
		return 0, false
	}
	r := s.items[len(s.items)-1]
	s.items = s.items[:len(s.items)-1]
	return r, true
}

// Len returns the number of stacked live ranges.
func (s *ColorStack) Len() int { return len(s.items) }

// FreeColors returns the physical registers of the bank not taken by
// any already-colored neighbor of rep, in increasing order (caller-save
// first, then callee-save, matching the bank layout). Colors count as
// taken when recorded through Assign on this context (res is accepted
// for signature symmetry with Assign and future-proofing; the fast
// flat table is what is consulted).
//
// The returned slice is scratch owned by ctx: it is overwritten by the
// next FreeColors call, so callers must not retain it across calls.
func (ctx *ClassContext) FreeColors(res *ClassResult, rep ir.Reg) []machine.PhysReg {
	n := ctx.N()
	if cap(ctx.freeTaken) < n {
		ctx.freeTaken = make([]bool, n)
	}
	taken := ctx.freeTaken[:n]
	for i := range taken {
		taken[i] = false
	}
	ctx.ensureColorOf()
	colorOf := ctx.colorOf
	ctx.Graph.Neighbors(rep, func(nb ir.Reg) {
		if c := colorOf[nb]; c != machine.NoPhysReg {
			taken[c] = true
		}
	})
	free := ctx.freeScratch[:0]
	for i := 0; i < n; i++ {
		if !taken[i] {
			free = append(free, machine.PhysReg(i))
		}
	}
	ctx.freeScratch = free
	return free
}

// SplitFree partitions free colors into caller-save and callee-save.
//
// Like FreeColors, the returned slices are ctx-owned scratch and are
// overwritten by the next SplitFree call.
func (ctx *ClassContext) SplitFree(free []machine.PhysReg) (caller, callee []machine.PhysReg) {
	caller, callee = ctx.callerScratch[:0], ctx.calleeScratch[:0]
	for _, r := range free {
		if ctx.Config.IsCallerSave(ctx.Class, r) {
			caller = append(caller, r)
		} else {
			callee = append(callee, r)
		}
	}
	ctx.callerScratch, ctx.calleeScratch = caller, callee
	return caller, callee
}

// ---------------------------------------------------------------------
// Simplification (shared by Chaitin-style strategies)

// Simplifier runs Chaitin simplification over the bank's graph with a
// pluggable ordering key and spill heuristic.
//
// Selection is worklist-driven: two binary heaps replace the original
// whole-slice rescans, making Run near-linear (O(E + V log V)) instead
// of quadratic, while popping nodes in exactly the same order.
type Simplifier struct {
	ctx     *ClassContext
	sc      *simpScratch
	nodes   []ir.Reg
	deg     []int32 // indexed by register, valid for members
	removed []bool  // indexed by register
	member  []bool  // indexed by register: node of this run
}

// simpScratch is the per-run storage of a Simplifier, pooled across
// runs (classes, rounds, and functions — the pool is safe under the
// parallel per-function driver). One allocation round runs one
// Simplifier per bank, so without pooling the register-indexed slices
// and both heaps were reallocated every round.
type simpScratch struct {
	deg       []int32
	removed   []bool
	member    []bool
	nodes     []ir.Reg
	simplify  regHeap
	spillable regHeap
	stack     []ir.Reg
}

var simpPool = sync.Pool{New: func() any {
	if b := telemetry.B(); b != nil {
		b.PoolNews.Inc()
	}
	return new(simpScratch)
}}

// NewSimplifier prepares simplification state for ctx. Pair with
// Release (after the returned stack is drained) to recycle the
// scratch; skipping Release costs allocations, never correctness.
func NewSimplifier(ctx *ClassContext) *Simplifier {
	n := ctx.Fn.NumRegs()
	if b := telemetry.B(); b != nil {
		b.PoolGets.Inc()
	}
	sc := simpPool.Get().(*simpScratch)
	if cap(sc.deg) < n {
		sc.deg = make([]int32, n)
		sc.removed = make([]bool, n)
		sc.member = make([]bool, n)
	}
	s := &Simplifier{
		ctx:     ctx,
		sc:      sc,
		nodes:   ctx.Graph.AppendNodes(sc.nodes[:0]),
		deg:     sc.deg[:n],
		removed: sc.removed[:n],
		member:  sc.member[:n],
	}
	for i := range s.removed {
		s.removed[i] = false
	}
	for i := range s.member {
		s.member[i] = false
	}
	sc.nodes = s.nodes
	for _, r := range s.nodes {
		s.member[r] = true
	}
	for _, r := range s.nodes {
		d := int32(0)
		ctx.Graph.Neighbors(r, func(nb ir.Reg) {
			if s.member[nb] {
				d++
			}
		})
		s.deg[r] = d
	}
	return s
}

// regHeap is a binary min-heap of (key, reg) pairs ordered
// lexicographically — smallest key first, ties to the smaller register.
// That ordering is exactly the tie-break rule of the original
// linear-scan selection, so heap pops reproduce its choices.
type regHeap []regHeapItem

type regHeapItem struct {
	key float64
	reg ir.Reg
}

func (h regHeap) less(i, j int) bool {
	if h[i].key != h[j].key {
		return h[i].key < h[j].key
	}
	return h[i].reg < h[j].reg
}

func (h *regHeap) push(it regHeapItem) {
	*h = append(*h, it)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		(*h)[i], (*h)[p] = (*h)[p], (*h)[i]
		i = p
	}
}

func (h *regHeap) pop() regHeapItem {
	old := *h
	top := old[0]
	last := len(old) - 1
	old[0] = old[last]
	*h = old[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < last && h.less(l, m) {
			m = l
		}
		if r < last && h.less(r, m) {
			m = r
		}
		if m == i {
			break
		}
		old[i], old[m] = old[m], old[i]
		i = m
	}
	return top
}

// SpillHeuristic selects how the blocked-simplification spill candidate
// is chosen (the paper cites a line of work on better heuristics [17,
// 2, 5]; Chaitin's cost/degree is the classic default).
type SpillHeuristic int

const (
	// CostOverDegree spills the minimum spill_cost/degree (Chaitin).
	CostOverDegree SpillHeuristic = iota
	// PlainCost spills the minimum spill_cost, ignoring degree.
	PlainCost
	// CostOverDegreeSq spills minimum spill_cost/degree², biasing
	// harder toward high-degree ranges (Bernstein et al.'s family).
	CostOverDegreeSq
)

// String names the heuristic.
func (h SpillHeuristic) String() string {
	switch h {
	case CostOverDegree:
		return "cost/degree"
	case PlainCost:
		return "cost"
	case CostOverDegreeSq:
		return "cost/degree2"
	}
	return "unknown"
}

// Options for Run.
type SimplifyOptions struct {
	// Key orders unconstrained nodes: the node with the smallest key is
	// removed first (ends up deepest in the stack). Nil means removal
	// in register order (plain Chaitin). Key must be a pure function of
	// rep for the duration of the run — the worklist caches its value
	// when a node becomes unconstrained.
	Key func(rep ir.Reg) float64
	// Optimistic pushes would-be spills onto the stack ("optimistic
	// coloring", Briggs) instead of spilling immediately.
	Optimistic bool
	// Heuristic selects the blocked-spill choice rule.
	Heuristic SpillHeuristic
}

// Run simplifies the graph to an ordering. It returns the color stack
// and the representatives spilled when simplification blocked (empty
// when Optimistic).
//
// The unconstrained worklist is exact because degrees only fall: a node
// crosses the degree-<N threshold at most once, and its ordering key is
// static (SimplifyOptions.Key), so heap order equals rescan order. The
// spill heap is lazily rekeyed: cost/degree keys only grow as neighbor
// removal shrinks degrees, so a stored key is a lower bound and
// pop-recompute-reinsert terminates with the exact minimum.
func (s *Simplifier) Run(opts SimplifyOptions) (*ColorStack, []ir.Reg) {
	n := s.ctx.N()
	stack := &ColorStack{items: s.sc.stack[:0]}
	var spilled []ir.Reg
	remaining := len(s.nodes)

	spillCostOf := func(rep ir.Reg) float64 {
		if rg := s.ctx.RangeOf(rep); rg != nil {
			return rg.SpillCost
		}
		return 0
	}
	keyOf := func(r ir.Reg) float64 {
		if opts.Key != nil {
			return opts.Key(r)
		}
		return 0
	}
	heurKey := func(r ir.Reg) float64 {
		d := int(s.deg[r])
		if d <= 0 {
			d = 1
		}
		switch opts.Heuristic {
		case PlainCost:
			return spillCostOf(r)
		case CostOverDegreeSq:
			return spillCostOf(r) / float64(d*d)
		default:
			return spillCostOf(r) / float64(d)
		}
	}

	// simplify holds every currently unconstrained node; spillable
	// holds every spillable node still in the graph (keys possibly
	// stale, never overestimates).
	simplify := s.sc.simplify[:0]
	spillable := s.sc.spillable[:0]
	for _, r := range s.nodes {
		if int(s.deg[r]) < n {
			simplify.push(regHeapItem{keyOf(r), r})
		}
		if rg := s.ctx.RangeOf(r); rg == nil || !rg.NoSpill {
			spillable.push(regHeapItem{heurKey(r), r})
		}
	}

	remove := func(r ir.Reg) {
		s.removed[r] = true
		remaining--
		s.ctx.Graph.Neighbors(r, func(nb ir.Reg) {
			if s.member[nb] && !s.removed[nb] {
				s.deg[nb]--
				if int(s.deg[nb]) == n-1 {
					simplify.push(regHeapItem{keyOf(nb), nb})
				}
			}
		})
	}

	for remaining > 0 {
		// Unconstrained node with the smallest key.
		if len(simplify) > 0 {
			it := simplify.pop()
			remove(it.reg)
			stack.Push(it.reg)
			if s.ctx.Traced() {
				s.ctx.Emit(obs.Event{Kind: obs.KindSimplifyPop, Reg: it.reg,
					Key: it.key, Reason: obs.ReasonUnconstrained, N: stack.Len()})
			}
			continue
		}

		// Simplification blocked: every remaining node has degree >= n.
		// Choose a spill candidate by min cost/degree among spillable
		// nodes, fixing stale keys as they surface.
		cand := ir.NoReg
		candKey := 0.0
		for len(spillable) > 0 {
			top := spillable[0]
			if s.removed[top.reg] {
				spillable.pop()
				continue
			}
			if k := heurKey(top.reg); k != top.key {
				spillable.pop()
				spillable.push(regHeapItem{k, top.reg})
				continue
			}
			cand, candKey = top.reg, top.key
			spillable.pop()
			break
		}
		if cand == ir.NoReg {
			// Only unspillable nodes remain; push the lowest-degree one
			// and hope assignment finds a color (it will for realistic
			// configurations, since spill temporaries have tiny
			// degree).
			for _, r := range s.nodes {
				if !s.removed[r] && (cand == ir.NoReg || s.deg[r] < s.deg[cand]) {
					cand = r
				}
			}
			remove(cand)
			stack.Push(cand)
			if s.ctx.Traced() {
				s.ctx.Emit(obs.Event{Kind: obs.KindSimplifyPop, Reg: cand,
					Reason: obs.ReasonUnspillable, N: stack.Len()})
			}
			continue
		}
		remove(cand)
		if opts.Optimistic {
			stack.Push(cand)
			if s.ctx.Traced() {
				s.ctx.Emit(obs.Event{Kind: obs.KindSimplifyPop, Reg: cand,
					Key: candKey, Reason: obs.ReasonOptimistic, N: stack.Len()})
			}
		} else {
			spilled = append(spilled, cand)
			s.ctx.EmitSpill(cand, obs.ReasonBlocked, candKey)
		}
	}
	s.sc.simplify, s.sc.spillable = simplify[:0], spillable[:0]
	return stack, spilled
}

// Release hands the simplifier's pooled scratch back, including the
// storage of the (by now drained) color stack Run returned. The
// Simplifier and the stack must not be used afterwards. Optional:
// without it the scratch is simply garbage-collected.
func (s *Simplifier) Release(stack *ColorStack) {
	sc := s.sc
	if sc == nil {
		return
	}
	s.sc = nil
	if stack != nil {
		sc.stack = stack.items[:0]
	}
	simpPool.Put(sc)
}

// ---------------------------------------------------------------------
// Base Chaitin-style and optimistic strategies (paper §3.1, §8)

// Chaitin is the paper's base model: plain simplification, spill by
// cost/degree when blocked, and a simple storage-class rule during
// assignment — a live range crossing a call prefers callee-save
// registers, one that does not prefers caller-save, falling back to the
// other kind when the preferred kind is exhausted.
type Chaitin struct {
	// Optimistic delays spill decisions to the assignment phase
	// (Briggs' optimistic coloring).
	Optimistic bool
	// Heuristic selects the blocked-spill choice rule (default
	// cost/degree).
	Heuristic SpillHeuristic
}

// Name implements Strategy.
func (c *Chaitin) Name() string {
	if c.Optimistic {
		return "optimistic"
	}
	return "chaitin"
}

// Allocate implements Strategy.
func (c *Chaitin) Allocate(ctx *ClassContext) *ClassResult {
	res := NewClassResult()
	simp := NewSimplifier(ctx)
	stack, spilled := simp.Run(SimplifyOptions{Optimistic: c.Optimistic, Heuristic: c.Heuristic})
	res.Spilled = append(res.Spilled, spilled...)

	for {
		rep, ok := stack.Pop()
		if !ok {
			break
		}
		free := ctx.FreeColors(res, rep)
		if len(free) == 0 {
			// Only possible for optimistically pushed nodes.
			res.Spilled = append(res.Spilled, rep)
			ctx.EmitSpill(rep, obs.ReasonNoColor, 0)
			continue
		}
		caller, callee := ctx.SplitFree(free)
		rg := ctx.RangeOf(rep)
		preferCallee := rg != nil && rg.CrossesCall
		ctx.Assign(res, rep, pickPreferred(caller, callee, preferCallee))
		ctx.EmitAssign(rep, res.Colors[rep], preferCallee)
	}
	simp.Release(stack)
	return res
}

// pickPreferred picks from the preferred kind when available, falling
// back to the other kind.
func pickPreferred(caller, callee []machine.PhysReg, preferCallee bool) machine.PhysReg {
	if preferCallee {
		if len(callee) > 0 {
			return callee[0]
		}
		return caller[0]
	}
	if len(caller) > 0 {
		return caller[0]
	}
	return callee[0]
}

// ---------------------------------------------------------------------
// Driver

// Options configure an allocation run.
type Options struct {
	// MaxRounds bounds build→color→spill iterations.
	MaxRounds int
	// Ctx, when non-nil, bounds the allocation with a deadline or
	// cancellation: the pipeline runner polls it between passes and
	// the whole-program driver checks it before starting each task, so
	// a canceled request stops consuming CPU at the next pass
	// boundary. Nil — the default — costs one nil check per pass.
	Ctx context.Context
	// Tracer receives decision events and phase timings (package obs).
	// Nil — the default — disables tracing; every emission site is
	// guarded, so the untraced path adds no work and no allocations.
	Tracer obs.Tracer
	// Parallel bounds the worker pool of Program.AllocateWithOptions,
	// which runs the whole-program driver with one task per function:
	// 0 selects GOMAXPROCS, 1 forces the sequential path, n > 1 caps
	// the pool at n. Output is byte-identical either way; a non-nil Tracer forces
	// sequential so the event stream stays in program order (see
	// TraceParallel). Program.AllocateProgramBatch ignores it and reads
	// BatchOptions.Workers instead.
	Parallel int
	// TraceParallel keeps the Parallel worker pool even when a Tracer
	// is attached. Events from different functions then interleave in
	// emission order rather than program order; each event's Seq field
	// still records a total order, and sinks must be concurrency-safe
	// (all the shipped sinks are). Off by default so traced streams and
	// their goldens stay deterministic.
	TraceParallel bool
	// NoPrepCache disables Program-level sharing of prepared round-0
	// artifacts (CFG, liveness, base interference graphs): every
	// allocation rebuilds from scratch. Exists for A/B benchmarking.
	NoPrepCache bool
	// Interproc attaches a whole-program interprocedural summary table
	// (package interproc): the liverange cost analysis replaces the
	// paper's static caller_save_cost estimate at call sites whose
	// callee has a published summary, and the save/restore plan prunes
	// saves the callee provably does not need. Nil — the default —
	// keeps the paper's intraprocedural model exactly. Set by the
	// whole-program batch driver; a non-nil table bypasses the shared
	// round-0 range cache (the cached analysis assumes static costs).
	// AllocatePrepared hands it to the passes through
	// pipeline.State.Interproc, so it applies to an overriding Pipeline
	// as well.
	Interproc *interproc.Table
	// Pipeline overrides the pass pipeline. Nil — the default — runs
	// BuildPipeline(strat, insertSpills), i.e. the standard
	// liveness → build-graph → coalesce → liverange → color →
	// spill-rewrite sequence with aggressive coalescing. Ablations set
	// a derived pipeline here: Replace the coalesce pass with
	// CoalescePass(BriggsCoalesce) for conservative coalescing, or Drop
	// it to allocate without coalescing.
	Pipeline *pipeline.Pipeline
}

// DefaultMaxRounds is the default bound on build→color→spill rounds
// (pipeline.DefaultMaxRounds).
const DefaultMaxRounds = pipeline.DefaultMaxRounds

// DefaultOptions returns the standard configuration.
func DefaultOptions() Options {
	return Options{MaxRounds: DefaultMaxRounds}
}

// FuncAlloc is the final allocation of one function.
type FuncAlloc struct {
	// Fn is the allocated function. When spill code was needed it is a
	// rewritten clone of the original (block IDs are preserved, so
	// frequency tables for the original remain valid); when no live
	// range spilled it aliases the original function unchanged.
	Fn *ir.Func
	// Colors assigns every virtual register of Fn a physical register
	// in its bank; spilled registers were rewritten away and map to
	// machine.NoPhysReg only if they no longer occur.
	Colors []machine.PhysReg
	// SlotOf maps spilled virtual registers to their stack slots.
	SlotOf map[ir.Reg]*ir.Symbol
	// Rounds is the number of build→color→spill iterations executed.
	Rounds int
	// Ranges is the live-range analysis of the final round.
	Ranges *liverange.Set
	// Live is the liveness of Fn from the final round. Consumers that
	// need liveness of the allocated function (rewrite.Validate,
	// rewrite.BuildPlan) reuse it — through their own Fork — instead of
	// recomputing. Nil for hand-constructed FuncAllocs.
	Live *liveness.Info
	// Graphs holds the final interference graphs per bank.
	Graphs [ir.NumClasses]*interference.Graph
	// Config echoes the register configuration used.
	Config machine.Config
	// Escalated reports that a tiered strategy abandoned its cheap tier
	// for this function (the hybrid linear-scan strategy escalating to
	// graph coloring). Always false for single-tier strategies.
	Escalated bool
}

// SpillInserter abstracts the spill-code insertion phase; it lives in
// package rewrite and is injected here to keep the framework free of a
// dependency cycle.
type SpillInserter func(fn *ir.Func, spill map[ir.Reg]*ir.Symbol, newTemp func(ir.Reg))

// AllocateFunc runs the full framework loop on fn: build, coalesce,
// color (via strat), and iterate through spill-code insertion until no
// live range spills. fn itself is not modified; when spill code is
// needed the returned FuncAlloc holds a rewritten clone, otherwise it
// aliases fn unchanged.
func AllocateFunc(fn *ir.Func, ff *freq.FuncFreq, config machine.Config, strat Strategy, insertSpills SpillInserter, opts Options) (*FuncAlloc, error) {
	return AllocatePrepared(Prepare(fn), ff, config, strat, insertSpills, opts)
}

// AllocatePrepared is AllocateFunc consuming a shared pipeline.FuncCache: the
// round-0 CFG, liveness, and base interference graphs come from the
// cache (built on first use) instead of being rebuilt, and are consumed
// through copy-on-write Snapshot views so the cached artifacts stay
// frozen. Many goroutines may allocate from the same FuncCache
// concurrently; the result is byte-identical to AllocateFunc on a
// fresh function.
//
// The allocation itself is a pass pipeline (package pipeline): by
// default the one BuildPipeline assembles for strat, or the pipeline
// opts.Pipeline overrides it with. Either way the passes read the
// interprocedural table and the context from the run's State. The
// runner emits the per-pass phase events; a run that exhausts the
// round budget returns an error wrapping pipeline.ErrRoundLimit.
func AllocatePrepared(prep *pipeline.FuncCache, ff *freq.FuncFreq, config machine.Config, strat Strategy, insertSpills SpillInserter, opts Options) (*FuncAlloc, error) {
	pl := opts.Pipeline
	if pl == nil {
		def := BuildPipeline(strat, insertSpills)
		pl = &def
	}
	s := pipeline.NewState(prep, ff, config, opts.Tracer)
	s.Ctx = opts.Ctx
	s.Interproc = opts.Interproc
	runner := &pipeline.Runner{Passes: pl.Passes(), MaxRounds: opts.MaxRounds}
	rounds, err := runner.Run(s)
	if err != nil {
		if errors.Is(err, pipeline.ErrRoundLimit) {
			return nil, fmt.Errorf("regalloc: %s did not converge on %s: %w", strat.Name(), prep.Fn.Name, err)
		}
		return nil, fmt.Errorf("regalloc: %s on %s: %w", strat.Name(), prep.Fn.Name, err)
	}
	return &FuncAlloc{
		Fn:        s.Fn,
		Colors:    s.Colors,
		SlotOf:    s.SlotOf,
		Rounds:    rounds,
		Ranges:    s.Ranges,
		Live:      s.Live,
		Graphs:    s.Graphs,
		Config:    config,
		Escalated: s.Escalated,
	}, nil
}

// SortRegs sorts a register slice in increasing order (a convenience
// for strategies that need deterministic iteration).
func SortRegs(rs []ir.Reg) {
	sort.Slice(rs, func(i, j int) bool { return rs[i] < rs[j] })
}
