// Package callcost is the public API of this reproduction of
// "Call-Cost Directed Register Allocation" (Lueh & Gross, PLDI 1997).
//
// It compiles MC (a small C-like language) to an IR, register-allocates
// every function with a selectable coloring strategy on a parameterized
// MIPS-like machine (two banks, configurable caller-save/callee-save
// split), and measures the register-allocation overhead — spill,
// caller-save, callee-save, and shuffle memory operations — both
// analytically and by executing the allocated code on a machine-level
// interpreter.
//
// A minimal session:
//
//	prog, _ := callcost.Compile(src)
//	pf, _, _ := prog.Profile()                      // dynamic weights
//	base, _ := prog.Allocate(callcost.Chaitin(), callcost.NewConfig(8, 6, 4, 4), pf)
//	impr, _ := prog.Allocate(callcost.ImprovedAll(), callcost.NewConfig(8, 6, 4, 4), pf)
//	fmt.Println(base.Overhead(pf).Total() / impr.Overhead(pf).Total())
package callcost

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/cbh"
	"repro/internal/codegen"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/freq"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/linscan"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/minterp"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/priority"
	"repro/internal/regalloc"
	"repro/internal/rewrite"
)

// Re-exported machine-model types and helpers.
type (
	// Config is a register-file configuration (Ri,Rf,Ei,Ef).
	Config = machine.Config
	// Overhead is the decomposed register-allocation cost.
	Overhead = metrics.Overhead
	// Strategy is a pluggable register-allocation approach.
	Strategy = regalloc.Strategy
	// FreqInfo is a program-wide execution-frequency table.
	FreqInfo = freq.ProgramFreq
)

// NewConfig builds a configuration from the paper's (Ri,Rf,Ei,Ef)
// notation: caller-save int/float, callee-save int/float.
func NewConfig(ri, rf, ei, ef int) Config { return machine.NewConfig(ri, rf, ei, ef) }

// FullMachine is the complete register file (26 int, 16 float).
func FullMachine() Config { return machine.Full }

// Sweep returns the register-pressure sweep used by the paper's
// figures.
func Sweep() []Config { return machine.Sweep() }

// ---------------------------------------------------------------------
// Strategies

// Chaitin returns the base Chaitin-style allocator (the paper's §3.1
// base model).
func Chaitin() Strategy { return &regalloc.Chaitin{} }

// Optimistic returns Briggs' optimistic coloring (§8).
func Optimistic() Strategy { return &regalloc.Chaitin{Optimistic: true} }

// Improved returns the enhanced Chaitin-style allocator with the given
// techniques enabled: storage-class analysis, benefit-driven
// simplification, and preference decision (§4-§6).
func Improved(storageClass, benefitSimplify, preference bool) *core.Improved {
	return &core.Improved{
		StorageClass:    storageClass,
		BenefitSimplify: benefitSimplify,
		Preference:      preference,
	}
}

// ImprovedAll returns the paper's headline SC+BS+PR configuration.
func ImprovedAll() *core.Improved { return core.All() }

// ImprovedOptimistic returns SC+BS+PR integrated with optimistic
// coloring (§8, Figure 9).
func ImprovedOptimistic() *core.Improved {
	s := core.All()
	s.Optimistic = true
	return s
}

// PriorityOrdering selects the color ordering of the priority-based
// allocator.
type PriorityOrdering = priority.Ordering

// The priority orderings of §9.1.
const (
	PrioritySorting               = priority.Sorting
	PriorityRemovingUnconstrained = priority.RemovingUnconstrained
	PrioritySortingUnconstrained  = priority.SortingUnconstrained
)

// Priority returns Chow's priority-based allocator (§9) with the given
// ordering.
func Priority(o PriorityOrdering) Strategy { return &priority.Chow{Ordering: o} }

// CBH returns the Chaitin/Briggs-Hierarchical cost model (§10).
func CBH() Strategy { return &cbh.CBH{} }

// LinearScan returns the graph-free linear-scan allocator: one
// backward walk derives live intervals, spill costs, and the paper's
// caller/callee benefit split, and a single interval sweep assigns
// registers — no interference graph, no simplify stack. Its pipeline
// is liveness → scan → spill-rewrite.
func LinearScan() Strategy { return &linscan.Scan{} }

// HybridTiered returns the scan-first, color-on-spill tiered
// allocator: every function is first allocated by the hole-aware
// linear scan, and only functions whose scan takes a pressure spill —
// or whose estimated scan overhead exceeds the
// linscan.DefaultMaxScanOverhead bar — escalate to the full SC+BS+PR
// graph-coloring allocator. Spill-light functions keep the scan's
// multi-x allocation-time win; spill-heavy ones keep coloring quality.
func HybridTiered() Strategy {
	return &linscan.Hybrid{Escalate: core.All(), MaxScanOverhead: linscan.DefaultMaxScanOverhead}
}

// Strategies returns the named standard strategies, for tests and
// sweeps.
func Strategies() map[string]Strategy {
	return map[string]Strategy{
		"chaitin":    Chaitin(),
		"optimistic": Optimistic(),
		"improved":   ImprovedAll(),
		"priority":   Priority(PrioritySorting),
		"cbh":        CBH(),
		"linscan":    LinearScan(),
		"hybrid":     HybridTiered(),
	}
}

// ---------------------------------------------------------------------
// Programs

// Program is a compiled MC program plus cached frequency information
// and cached per-function allocation prep (see Prepare).
type Program struct {
	IR *ir.Program

	staticOnce sync.Once
	staticFreq *freq.ProgramFreq

	prepOnce sync.Once
	prep     *PreparedProgram
}

// Compile compiles MC source text.
func Compile(src string) (*Program, error) {
	p, err := compile.Source(src)
	if err != nil {
		return nil, err
	}
	return &Program{IR: p}, nil
}

// MustCompile is Compile that panics on error, for tests and examples
// with known-good sources.
func MustCompile(src string) *Program {
	p, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return p
}

// Run executes the program on the reference interpreter.
func (p *Program) Run() (*interp.Result, error) {
	return interp.Run(p.IR, interp.Options{})
}

// Profile runs the program with profiling and returns the dynamic
// (profile-based) frequency table together with the run result.
func (p *Program) Profile() (*freq.ProgramFreq, *interp.Result, error) {
	res, err := interp.Run(p.IR, interp.Options{Profile: true})
	if err != nil {
		return nil, nil, err
	}
	return freq.FromProfile(p.IR, res.Profile), res, nil
}

// StaticFreq returns the estimated (compile-time) frequency table,
// computed once. Safe for concurrent use.
func (p *Program) StaticFreq() *freq.ProgramFreq {
	p.staticOnce.Do(func() { p.staticFreq = freq.Static(p.IR) })
	return p.staticFreq
}

// PreparedProgram caches, per function, the allocation artifacts that
// depend only on the IR: CFG, liveness, and base interference graphs
// (plus the round-0 coalesce/range results the default configuration
// also shares). One PreparedProgram serves every (strategy, config)
// cell of a sweep; all methods are safe for concurrent use.
type PreparedProgram struct {
	funcs map[string]*pipeline.FuncCache
}

// Func returns the prepared state of the named function, or nil.
func (pp *PreparedProgram) Func(name string) *pipeline.FuncCache { return pp.funcs[name] }

// Prepare returns the program's prep cache, creating it on first call.
// The artifacts themselves are built lazily, on each function's first
// allocation. Allocate and AllocateWithOptions use the cache
// automatically; Prepare exists for callers that want to share it
// explicitly or warm it up.
func (p *Program) Prepare() *PreparedProgram {
	p.prepOnce.Do(func() {
		pp := &PreparedProgram{funcs: make(map[string]*pipeline.FuncCache, len(p.IR.Funcs))}
		for _, fn := range p.IR.Funcs {
			pp.funcs[fn.Name] = regalloc.Prepare(fn)
		}
		p.prep = pp
	})
	return p.prep
}

// ---------------------------------------------------------------------
// Allocations

// Allocation is a whole-program register allocation under one strategy
// and one register configuration.
type Allocation struct {
	Program  *Program
	Config   Config
	Strategy string
	Plans    map[string]*rewrite.FuncPlan
}

// AllocOptions re-exports the framework's tunables (coalescing mode,
// graph reconstruction, round limits, tracing, pipeline override).
type AllocOptions = regalloc.Options

// DefaultAllocOptions returns the standard configuration: aggressive
// coalescing, graph reconstruction between rounds, no tracer.
func DefaultAllocOptions() AllocOptions { return regalloc.DefaultOptions() }

// PassPipeline is the allocator's pass pipeline (package pipeline): an
// ordered, editable list of passes the round runner executes. Derive
// variants with Replace and Drop and attach them via
// AllocOptions.Pipeline to run ablations as pipeline edits.
type PassPipeline = pipeline.Pipeline

// PipelineFor returns the default pass pipeline the allocator would
// run for strat — the starting point for deriving ablation pipelines.
// The pipeline is the same under every opts: the passes read per-run
// settings such as opts.Interproc from the run's state, so a pipeline
// derived from this one and set as opts.Pipeline allocates exactly as
// the default does.
func PipelineFor(strat Strategy, opts AllocOptions) PassPipeline {
	return regalloc.BuildPipeline(strat, rewrite.InsertSpills)
}

// ---------------------------------------------------------------------
// Observability

// Tracer re-exports the allocator's event-sink interface (package
// obs): attach one via WithTracer to watch every allocation decision —
// simplify order, spill choices with their benefit evidence, color
// assignments, coalescing merges — plus per-phase wall time. The
// default (no tracer) is a no-op: existing callers are untouched and
// the allocator performs no extra allocations.
type Tracer = obs.Tracer

// TraceEvent is one allocator decision or phase boundary.
type TraceEvent = obs.Event

// StatsSink aggregates phase timings and decision counters in memory.
type StatsSink = obs.Stats

// WithTracer returns opts with tr attached (context-style option).
func WithTracer(opts AllocOptions, tr Tracer) AllocOptions {
	opts.Tracer = tr
	return opts
}

// NewJSONLSink returns a sink writing one JSON event per line to w.
func NewJSONLSink(w io.Writer) Tracer { return obs.NewJSONL(w) }

// NewNarrativeSink returns a sink writing a human-readable allocation
// narrative to w (what rallocc -explain prints).
func NewNarrativeSink(w io.Writer) Tracer { return obs.NewNarrative(w) }

// NewStatsSink returns an in-memory aggregator of phase timings and
// decision counters.
func NewStatsSink() *StatsSink { return obs.NewStats() }

// MultiSink fans events out to every given sink.
func MultiSink(ts ...Tracer) Tracer { return obs.NewMulti(ts...) }

// DisabledSink returns a tracer that is permanently off — behaviorally
// identical to attaching no tracer at all (useful for asserting the
// traced path costs nothing when disabled).
func DisabledSink() Tracer { return obs.Disabled{} }

// Allocate register-allocates every function of the program with the
// default framework options. pf supplies the cost weights (static
// estimates or a profile).
func (p *Program) Allocate(strat Strategy, config Config, pf *freq.ProgramFreq) (*Allocation, error) {
	return p.AllocateWithOptions(strat, config, pf, regalloc.DefaultOptions())
}

// AllocateWithOptions is Allocate with explicit framework options.
//
// It runs the whole-program driver of AllocateProgramBatch with
// interprocedural costs off, so every function is an independent task,
// dispatched in program order on a bounded worker pool (opts.Parallel
// workers; 0 selects GOMAXPROCS, 1 forces sequential). Every result
// lands in an index-addressed slot, so Colors, SlotOf, and the
// assembly output are byte-identical to the sequential path. A non-nil
// enabled Tracer forces one worker so the event stream stays in
// program order, unless opts.TraceParallel opts in to interleaved
// parallel tracing. Every emitted event carries a monotonic per-run
// sequence number (Event.Seq). Round-0 artifacts come from the
// program's prep cache unless opts.NoPrepCache is set.
func (p *Program) AllocateWithOptions(strat Strategy, config Config, pf *freq.ProgramFreq, opts AllocOptions) (*Allocation, error) {
	a, _, err := p.allocate(strat, config, pf, opts, nil, opts.Parallel)
	return a, err
}

// PlanFunc allocates one function of the program and builds its
// save/restore plan — the per-function step of the whole-program
// driver, and the compute side of a rallocd cache miss. Round-0
// artifacts come from the program's prep cache unless opts.NoPrepCache
// is set. The allocation is validated before its plan is built, and
// the plan prunes call-site saves by opts.Interproc's callee summaries
// when a table is attached.
func (p *Program) PlanFunc(fn *ir.Func, ff *freq.FuncFreq, config Config, strat Strategy, opts AllocOptions) (*rewrite.FuncPlan, error) {
	var pfn *pipeline.FuncCache
	if !opts.NoPrepCache {
		pfn = p.Prepare().Func(fn.Name)
	}
	if pfn == nil {
		pfn = regalloc.Prepare(fn)
	}
	fa, err := regalloc.AllocatePrepared(pfn, ff, config, strat, rewrite.InsertSpills, opts)
	if err != nil {
		return nil, err
	}
	if err := rewrite.Validate(fa); err != nil {
		return nil, fmt.Errorf("callcost: %s produced an invalid allocation: %w", strat.Name(), err)
	}
	return rewrite.BuildPlanInterproc(fa, opts.Interproc), nil
}

// Overhead computes the analytic register-allocation cost of the
// allocation under the given frequency table.
func (a *Allocation) Overhead(pf *freq.ProgramFreq) Overhead {
	return metrics.AnalyticProgram(a.Plans, pf)
}

// Execute runs the allocated program on the machine-level interpreter,
// returning its result and the measured overhead counters.
func (a *Allocation) Execute() (*minterp.Result, error) {
	return minterp.Run(a.Program.IR, a.Plans, a.Config, minterp.Options{})
}

// MeasuredOverhead executes the allocation and returns the measured
// overhead decomposition.
func (a *Allocation) MeasuredOverhead() (Overhead, *minterp.Result, error) {
	res, err := a.Execute()
	if err != nil {
		return Overhead{}, nil, err
	}
	return metrics.FromCounts(res.Counts), res, nil
}

// Assembly emits MIPS-flavored assembly for the allocated program:
// spill code, caller-save save/restore around calls, and callee-save
// save/restore in prologue/epilogue are all visible in the text.
func (a *Allocation) Assembly() string {
	return codegen.Program(a.Program.IR, a.Plans, a.Config)
}

// Ratio is the paper's headline metric: base overhead divided by
// improved overhead (bigger is better for "improved").
func Ratio(base, improved float64) float64 { return metrics.Ratio(base, improved) }
