package telemetry

import (
	"strings"
	"sync/atomic"

	"repro/internal/obs"
)

// Builtin bundles the allocator's well-known instruments as direct
// handles, so instrumentation sites pay one global atomic pointer load
// (B) plus one atomic add — no map lookups, no allocation. The fields
// are registered on Reg under the stable names in parentheses, which is
// how they appear in /metrics and the -metrics dumps.
type Builtin struct {
	// Reg is the registry every handle is registered on.
	Reg *Registry

	// Allocation totals (pipeline.Runner).

	// AllocFuncs counts completed function allocations
	// (alloc_funcs_total).
	AllocFuncs *Counter
	// AllocRounds counts executed build→color→spill rounds
	// (alloc_rounds_total).
	AllocRounds *Counter
	// SpilledRegs counts virtual registers sent to memory, summed over
	// rounds (alloc_spilled_regs_total).
	SpilledRegs *Counter
	// Rounds is the rounds-to-converge distribution per function
	// allocation (alloc_rounds).
	Rounds *Histogram
	// PassRuns counts executed (non-skipped) pass runs
	// (pass_runs_total).
	PassRuns *Counter

	// Strategy tiers (packages linscan and regalloc).

	// ScanRounds counts allocation rounds completed by the graph-free
	// linear-scan tier (alloc_scan_rounds_total); ColorRounds the rounds
	// completed by a graph-coloring color pass
	// (alloc_color_rounds_total). Together they split alloc_rounds_total
	// by tier: for the hybrid strategy, the coloring share is exactly
	// the escalated work.
	ScanRounds, ColorRounds *Counter
	// ScanHoleAssigns counts live ranges the scan binpacked into a
	// lifetime hole of an occupied register at first chance
	// (alloc_scan_hole_assigns_total); ScanSecondChance counts ranges
	// re-seated by the second-chance pass after losing their register
	// (alloc_scan_second_chance_total). Both measure spills the segment
	// refinement avoided that hull-overlap scanning would have taken.
	ScanHoleAssigns, ScanSecondChance *Counter
	// HybridEscalations counts functions whose hybrid scan tier spilled
	// (or exceeded its overhead budget) and escalated to graph coloring
	// (hybrid_escalations_total). The escalation rate is
	// hybrid_escalations_total / alloc_funcs_total of a hybrid run.
	HybridEscalations *Counter

	// Prep-cache behavior (pipeline.AnalysisManager).

	// PrepLiveHits / PrepLiveMisses count round-0 liveness requests
	// served from an already-built shared artifact vs. having to build
	// it (prep_live_hits_total, prep_live_misses_total).
	PrepLiveHits, PrepLiveMisses *Counter
	// PrepGraphHits / PrepGraphMisses are the same split for the base
	// interference graphs (prep_graph_hits_total,
	// prep_graph_misses_total).
	PrepGraphHits, PrepGraphMisses *Counter

	// Copy-on-write interference snapshots (package interference).

	// Snapshots counts Snapshot() views taken of shared graphs
	// (cow_snapshots_total); SnapshotPrivatized counts the subset whose
	// first mutation forced a private copy of the storage
	// (cow_privatized_total). The gap is what copy-on-write saves.
	Snapshots, SnapshotPrivatized *Counter

	// Scratch recycling (regalloc's simplifier pool).

	// PoolGets counts simplifier-scratch pool checkouts
	// (pool_simplifier_gets_total); PoolNews the subset that had to
	// allocate fresh scratch (pool_simplifier_news_total). The recycle
	// rate is 1 − news/gets.
	PoolGets, PoolNews *Counter

	// Content-addressed result cache (internal/resultcache).

	// Results meters the per-function result cache: functions served
	// from a completed cached allocation vs. having to color
	// (result_cache_hits_total, result_cache_misses_total), entries the
	// LRU bound pushed out (result_cache_evictions_total), and the
	// resident entries and their bytes (result_cache_entries,
	// result_cache_bytes).
	Results CacheMeters
	// Memo meters the daemon's program memo: requests answered without
	// running the front end vs. not (result_memo_hits_total,
	// result_memo_misses_total), plus its evictions and resident entries
	// (result_memo_evictions_total, result_memo_entries).
	Memo CacheMeters

	// Worker pool (internal/par).

	// ParLoops counts par.RunDAG invocations — every whole-program
	// allocation and every ForEachIndexed loop (par_loops_total);
	// ParTasks the tasks they scheduled (par_tasks_total).
	ParLoops, ParTasks *Counter
	// ParQueueDepth is the number of ready tasks not yet claimed by a
	// worker in the most recent loop (par_queue_depth); ParBusyWorkers
	// the number of workers currently executing a task
	// (par_busy_workers). Together they expose utilization during a
	// sweep.
	ParQueueDepth, ParBusyWorkers *Gauge

	// Whole-program batch driver (callcost.AllocateProgramBatch).

	// BatchWaves counts call-graph scheduling waves across batch runs
	// (batch_waves_total): one wave per lock-step level of the condensed
	// call graph, so waves/batches is the mean call-chain depth.
	BatchWaves *Counter
	// InterprocSummaryHits counts call sites whose caller consumed a
	// published callee clobber summary instead of the paper's static
	// estimate (interproc_summary_hits_total).
	InterprocSummaryHits *Counter
	// BatchReadyPeak is the peak number of simultaneously ready
	// components in the most recent batch DAG run (batch_dag_ready_peak)
	// — the parallelism the program's call-graph shape exposed.
	BatchReadyPeak *Gauge

	// phase maps the standard pipeline phase names to their wall-time
	// histograms; built once at Enable and read-only afterwards.
	phase map[string]*Histogram
}

// CacheMeters are the instruments of one bounded cache. A nil handle
// is a no-op, so a cache leaves unmetered what it does not track.
type CacheMeters struct {
	Hits, Misses, Evictions *Counter
	Entries, Bytes          *Gauge
}

// PhaseBuckets are the upper bounds, in microseconds, of the per-phase
// wall-time histograms.
var PhaseBuckets = []float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000, 50000}

// RoundsBuckets are the upper bounds of the rounds-to-converge
// histogram (DefaultMaxRounds is 32).
var RoundsBuckets = []float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32}

// PhaseDur returns the wall-time histogram of one pipeline phase, in
// microseconds. The six standard phases resolve through a prebuilt
// read-only map; unknown (custom pass) names fall back to a registry
// lookup. Nil-safe: returns nil on a nil Builtin.
func (b *Builtin) PhaseDur(phase string) *Histogram {
	if b == nil {
		return nil
	}
	if h := b.phase[phase]; h != nil {
		return h
	}
	return b.Reg.Histogram(phaseMetricName(phase), PhaseBuckets)
}

// phaseMetricName maps a pass name to its histogram name:
// "build-graph" → "phase_build_graph_us".
func phaseMetricName(phase string) string {
	return "phase_" + strings.ReplaceAll(phase, "-", "_") + "_us"
}

// newBuiltin registers the well-known instruments on r.
func newBuiltin(r *Registry) *Builtin {
	b := &Builtin{
		Reg:                r,
		AllocFuncs:         r.Counter("alloc_funcs_total"),
		AllocRounds:        r.Counter("alloc_rounds_total"),
		SpilledRegs:        r.Counter("alloc_spilled_regs_total"),
		Rounds:             r.Histogram("alloc_rounds", RoundsBuckets),
		PassRuns:           r.Counter("pass_runs_total"),
		ScanRounds:         r.Counter("alloc_scan_rounds_total"),
		ScanHoleAssigns:    r.Counter("alloc_scan_hole_assigns_total"),
		ScanSecondChance:   r.Counter("alloc_scan_second_chance_total"),
		ColorRounds:        r.Counter("alloc_color_rounds_total"),
		HybridEscalations:  r.Counter("hybrid_escalations_total"),
		PrepLiveHits:       r.Counter("prep_live_hits_total"),
		PrepLiveMisses:     r.Counter("prep_live_misses_total"),
		PrepGraphHits:      r.Counter("prep_graph_hits_total"),
		PrepGraphMisses:    r.Counter("prep_graph_misses_total"),
		Snapshots:          r.Counter("cow_snapshots_total"),
		SnapshotPrivatized: r.Counter("cow_privatized_total"),
		PoolGets:           r.Counter("pool_simplifier_gets_total"),
		PoolNews:           r.Counter("pool_simplifier_news_total"),
		Results: CacheMeters{
			Hits:      r.Counter("result_cache_hits_total"),
			Misses:    r.Counter("result_cache_misses_total"),
			Evictions: r.Counter("result_cache_evictions_total"),
			Entries:   r.Gauge("result_cache_entries"),
			Bytes:     r.Gauge("result_cache_bytes"),
		},
		Memo: CacheMeters{
			Hits:      r.Counter("result_memo_hits_total"),
			Misses:    r.Counter("result_memo_misses_total"),
			Evictions: r.Counter("result_memo_evictions_total"),
			Entries:   r.Gauge("result_memo_entries"),
		},
		ParLoops:             r.Counter("par_loops_total"),
		ParTasks:             r.Counter("par_tasks_total"),
		ParQueueDepth:        r.Gauge("par_queue_depth"),
		ParBusyWorkers:       r.Gauge("par_busy_workers"),
		BatchWaves:           r.Counter("batch_waves_total"),
		InterprocSummaryHits: r.Counter("interproc_summary_hits_total"),
		BatchReadyPeak:       r.Gauge("batch_dag_ready_peak"),
		phase:                make(map[string]*Histogram),
	}
	for _, p := range []string{obs.PhaseLiveness, obs.PhaseBuild, obs.PhaseCoalesce,
		obs.PhaseRanges, obs.PhaseColor, obs.PhaseRewrite, obs.PhaseScan} {
		b.phase[p] = r.Histogram(phaseMetricName(p), PhaseBuckets)
	}
	return b
}

// global holds the enabled Builtin bundle; nil means telemetry is off.
var global atomic.Pointer[Builtin]

// B returns the globally enabled instrument bundle, or nil when
// telemetry is disabled. This is the hot-path guard every
// instrumentation site uses:
//
//	if b := telemetry.B(); b != nil { b.AllocFuncs.Inc() }
//
// One atomic pointer load when disabled; no allocation either way.
func B() *Builtin { return global.Load() }

// Enable installs a fresh registry (or r, when non-nil) as the global
// telemetry target and returns its instrument bundle. Instrumentation
// all over the allocator starts feeding it immediately. Calling Enable
// again swaps in a new bundle; counts do not carry over.
func Enable(r *Registry) *Builtin {
	if r == nil {
		r = NewRegistry()
	}
	b := newBuiltin(r)
	global.Store(b)
	return b
}

// Disable turns global telemetry off; instrumentation reverts to the
// free nil path. The previously enabled registry remains readable by
// whoever holds it.
func Disable() { global.Store(nil) }
