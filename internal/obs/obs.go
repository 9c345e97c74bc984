// Package obs is the allocator's observability substrate: a typed
// event stream that makes every decision of the register-allocation
// pipeline — the simplify order, spill-by-choice verdicts, which
// benefit won a color choice, coalescing merges, spill-code rewrites —
// visible to pluggable sinks, together with per-phase wall-time.
//
// The paper's whole argument (Lueh & Gross, PLDI 1997) rests on *why*
// each live range landed in memory, a caller-save, or a callee-save
// register; this package is where that story is recorded. Three sinks
// ship with the package: a JSONL event log (JSONL), a human-readable
// allocation narrative (Narrative), and an in-memory aggregator
// (Stats). Multi fans one event stream out to several sinks.
//
// Tracing is strictly opt-in and free when off: every emission site in
// the allocator is guarded by Tracer.Enabled() (or a nil tracer), so a
// run without a tracer constructs no events and performs no extra
// allocations. Events are plain value structs; emitting one does not
// allocate either — sinks pay only when tracing is on.
package obs

import (
	"time"

	"repro/internal/ir"
	"repro/internal/machine"
)

// Kind discriminates the event types of the allocator pipeline.
type Kind uint8

const (
	// KindPhaseStart marks entry into a pipeline phase of one round.
	KindPhaseStart Kind = iota
	// KindPhaseEnd marks phase exit; Dur carries the wall time.
	KindPhaseEnd
	// KindSimplifyPop records one node leaving the graph during
	// simplification (and being pushed onto the color stack C): Reg,
	// the ordering Key, and the Reason it was removable.
	KindSimplifyPop
	// KindSpillChoice records a live range sent to the spill pool S,
	// with the evidence: the heuristic Key and the range's spill cost
	// and benefit functions.
	KindSpillChoice
	// KindColorAssign records a live range receiving a physical
	// register: the color, the kind wanted and the kind chosen, and the
	// benefit_caller/benefit_callee numbers behind the choice.
	KindColorAssign
	// KindCoalesceMerge records one copy-coalescing merge: With's live
	// range was merged into Reg's.
	KindCoalesceMerge
	// KindRewriteInsert records a spilled live range handed to
	// spill-code insertion: Reg, its stack Slot, and the number of
	// member registers rewritten.
	KindRewriteInsert
	// KindPrefDecide records the preference-decision pass (§6) forcing
	// a call-crossing live range from callee-save to caller-save.
	KindPrefDecide
	// KindPrepCache records that round 0 was satisfied from the
	// function's prepared-artifact cache: CFG, liveness, and the base
	// interference graphs were reused instead of rebuilt. Emitted only
	// on a hit, so a single cold allocation's event stream is unchanged.
	KindPrepCache
	// KindLiveness records one dataflow solve: Reason carries the mode
	// (always "full", a from-scratch solve over the whole function), N
	// the number of block visits the sparse worklist performed, and
	// Total the function's block count.
	// Not emitted when liveness was served from an already-built shared
	// cache without solving.
	KindLiveness
	// KindEscalate records the hybrid tier abandoning the linear-scan
	// result of one function and escalating to graph coloring: Reason
	// carries why ("spill" or "overhead"), N the number of registers the
	// scan wanted to spill.
	KindEscalate
	// KindHoleAssign records the linear scan binpacking a live range
	// into a lifetime hole of an already-occupied physical register at
	// first chance: every resident's segment set is disjoint from the
	// range's. Color is the shared register, N the range's segment
	// count.
	KindHoleAssign
	// KindSecondChance records a range that lost its register (evicted,
	// or the cheapest loser when its bank blocked) being re-seated by
	// the second-chance pass against the bank's committed assignment
	// instead of spilling. Color is the register found, N the range's
	// segment count.
	KindSecondChance

	// NumKinds is the number of event kinds.
	NumKinds
)

// String names the kind as it appears in the JSONL stream.
func (k Kind) String() string {
	switch k {
	case KindPhaseStart:
		return "phase_start"
	case KindPhaseEnd:
		return "phase_end"
	case KindSimplifyPop:
		return "simplify_pop"
	case KindSpillChoice:
		return "spill_choice"
	case KindColorAssign:
		return "color_assign"
	case KindCoalesceMerge:
		return "coalesce_merge"
	case KindRewriteInsert:
		return "rewrite_insert"
	case KindPrefDecide:
		return "pref_decide"
	case KindPrepCache:
		return "prep_cache"
	case KindLiveness:
		return "liveness"
	case KindEscalate:
		return "escalate"
	case KindHoleAssign:
		return "hole_assign"
	case KindSecondChance:
		return "second_chance"
	}
	return "unknown"
}

// Pipeline phase names, matching the paper's Figure 1 boxes.
const (
	PhaseLiveness = "liveness"      // CFG construction + dataflow
	PhaseBuild    = "build-graph"   // interference build / reconstruction
	PhaseCoalesce = "coalesce"      // live-range coalescing
	PhaseRanges   = "liverange"     // cost and benefit analysis
	PhaseColor    = "color"         // color ordering + assignment
	PhaseRewrite  = "spill-rewrite" // spill-code insertion
	PhaseScan     = "scan"          // graph-free linear scan (package linscan)
)

// Decision reasons carried by SimplifyPop and SpillChoice events. All
// are constants so emission never builds strings.
const (
	// ReasonUnconstrained: the node's degree dropped below N.
	ReasonUnconstrained = "unconstrained"
	// ReasonOptimistic: simplification blocked but the node was pushed
	// optimistically (Briggs) instead of spilled.
	ReasonOptimistic = "optimistic-push"
	// ReasonUnspillable: only unspillable temporaries remained; the
	// lowest-degree one was pushed.
	ReasonUnspillable = "unspillable"
	// ReasonBlocked: simplification blocked and the spill heuristic
	// (cost/degree family) chose this range.
	ReasonBlocked = "blocked"
	// ReasonNoColor: an optimistically pushed node found no free color
	// at assignment.
	ReasonNoColor = "no-free-color"
	// ReasonNegativeBenefit: spill by choice (§4) — keeping the range
	// in the only available kind costs more than memory.
	ReasonNegativeBenefit = "negative-benefit"
	// ReasonSharedCallee: the shared callee-cost post-pass (§4) found a
	// callee-save register whose users' combined spill cost is below
	// the entry/exit save/restore; all users were spilled.
	ReasonSharedCallee = "shared-callee-cost"
	// ReasonNegativePriority: priority-based coloring leaves ranges
	// with negative priority in memory (§9).
	ReasonNegativePriority = "negative-priority"
	// ReasonForcedCaller: the preference decision (§6) re-annotated the
	// range to prefer caller-save.
	ReasonForcedCaller = "forced-caller"
	// ReasonUnlockCallee: the CBH model spilled a callee-save-register
	// live range, unlocking its register (§10).
	ReasonUnlockCallee = "unlock-callee"
)

// Register-kind labels carried by ColorAssign events.
const (
	KindCaller = "caller"
	KindCallee = "callee"
)

// Event is one allocator decision or phase boundary. It is a single
// flat value struct — rather than one type per kind — so that
// constructing and emitting an event never allocates; which fields are
// meaningful depends on Kind (see the Kind constants).
type Event struct {
	Kind  Kind
	Seq   uint64   // monotonic per-run emission number (see Sequencer)
	Run   uint64   // process-unique run id (see Sequencer); not serialized
	Fn    string   // enclosing function
	Phase string   // phase events: pipeline phase name
	Round int      // allocation round (0-based)
	Class ir.Class // register bank of the decision

	Dur time.Duration // KindPhaseEnd: wall time of the phase

	Reg   ir.Reg          // subject live-range representative
	With  ir.Reg          // KindCoalesceMerge: the merged partner
	Color machine.PhysReg // KindColorAssign: the register assigned

	Reason string // decision reason (Reason* constants)
	Wanted string // KindColorAssign: preferred kind (caller/callee)
	Chosen string // KindColorAssign: kind actually taken

	Key           float64 // ordering/heuristic key behind the decision
	Cost          float64 // the range's spill cost
	BenefitCaller float64 // spill_cost − caller_cost (§4)
	BenefitCallee float64 // spill_cost − callee_cost (§4)

	Slot  string // KindRewriteInsert: stack-slot name
	N     int    // small count (stack depth, members rewritten, blocks visited, …)
	Total int    // KindLiveness: total block count behind N
}

// Tracer receives the allocator's event stream.
//
// Implementations must be safe for concurrent use: the experiment
// harness allocates many programs in parallel against one sink.
type Tracer interface {
	// Enabled reports whether events should be constructed at all.
	// Every emission site in the allocator guards on this (or on a nil
	// Tracer), so a disabled tracer costs nothing — not even event
	// construction.
	Enabled() bool
	// Emit records one event.
	Emit(ev Event)
}

// Disabled is a Tracer that is permanently off. It exists so tests can
// verify that the guarded emission path adds no allocations; a nil
// Tracer behaves identically.
type Disabled struct{}

// Enabled implements Tracer.
func (Disabled) Enabled() bool { return false }

// Emit implements Tracer.
func (Disabled) Emit(Event) {}

// Multi fans events out to several sinks; it is enabled when any
// member is.
type Multi []Tracer

// NewMulti returns a tracer feeding every non-nil sink in ts. When ts
// has exactly one usable sink it is returned directly (no fan-out
// indirection).
func NewMulti(ts ...Tracer) Tracer {
	var m Multi
	for _, t := range ts {
		if t != nil {
			m = append(m, t)
		}
	}
	if len(m) == 1 {
		return m[0]
	}
	return m
}

// Enabled implements Tracer.
func (m Multi) Enabled() bool {
	for _, t := range m {
		if t.Enabled() {
			return true
		}
	}
	return false
}

// Emit implements Tracer.
func (m Multi) Emit(ev Event) {
	for _, t := range m {
		if t.Enabled() {
			t.Emit(ev)
		}
	}
}
