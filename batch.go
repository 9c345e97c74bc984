package callcost

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/callgraph"
	"repro/internal/freq"
	"repro/internal/interproc"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/rewrite"
	"repro/internal/telemetry"
)

// BatchOptions configures AllocateProgramBatch.
type BatchOptions struct {
	// Interproc enables interprocedural callee-save costs: callees are
	// allocated before their callers (call-graph order), each callee
	// publishes its realized clobber summary — the caller-save registers
	// its allocated code may actually write — and callers consume those
	// summaries both in the cost model (a call into a known callee
	// charges 2·|clobbered ∩ bank|/|bank| per crossing instead of the
	// paper's flat 2) and in save placement (a crossing caller-save
	// register is saved only when the callee may write it). Calls to
	// external callees and within a recursive component keep the paper's
	// static estimate. Off (false), every function is scheduled
	// independently and the output is byte-identical to
	// AllocateWithOptions, which runs this driver with Interproc off.
	Interproc bool
	// Workers bounds the scheduling worker pool: <= 0 selects
	// GOMAXPROCS, 1 forces sequential execution. The unit of
	// parallelism is the task — a call-graph component with Interproc
	// on, a function with it off. AllocateProgramBatch ignores
	// AllocOptions.Parallel, which bounds AllocateWithOptions instead.
	Workers int
}

// BatchStats reports scheduling facts of one AllocateProgramBatch run.
type BatchStats struct {
	// SCCs is the number of condensed call-graph components (the task
	// count of the scheduling DAG with Interproc on); Recursive the
	// subset that is genuinely recursive.
	SCCs, Recursive int
	// Waves is the depth of the lock-step wave partition — the longest
	// dependency chain in the condensed call graph. The DAG schedule is
	// wave-free, but Waves still bounds its critical path.
	Waves int
	// ReadyPeak is the maximum number of tasks that were simultaneously
	// ready during the run — with Interproc on, the parallelism the
	// program's call-graph shape exposed; with it off, the function
	// count.
	ReadyPeak int
	// SummaryHits counts call sites whose caller consumed a published
	// callee clobber summary; SummaryMisses the sites that kept the
	// static estimate (external callee, same recursive component, or
	// interprocedural costs disabled).
	SummaryHits, SummaryMisses int
}

// AllocateProgramBatch register-allocates the whole program as one
// batch and reports its schedule. It is the entry point of the one
// whole-program allocation driver (AllocateWithOptions runs the same
// driver with interprocedural costs off) and the only one that feeds
// the batch telemetry instruments.
//
// With bopts.Interproc set, the condensed call-graph components
// (recursive functions collapse into one) form a task DAG, dependencies
// pointing at callees, executed on a bounded worker pool the moment
// their last callee finishes — independent subtrees run concurrently,
// with no wave barriers. That order is what makes interprocedural
// callee-save costs sound: every callee's summary is published before
// any caller starts, so results are deterministic and independent of
// the worker schedule. With it clear, every function is its own task
// with no dependencies and the output is byte-identical to
// AllocateWithOptions — colors, spill slots, assembly, and overhead —
// which the differential tests assert.
func (p *Program) AllocateProgramBatch(strat Strategy, config Config, pf *freq.ProgramFreq, opts AllocOptions, bopts BatchOptions) (*Allocation, BatchStats, error) {
	cg := callgraph.Build(p.IR)
	sched := cg
	if !bopts.Interproc {
		sched = nil
	}
	a, bs, err := p.allocate(strat, config, pf, opts, sched, bopts.Workers)
	if err != nil {
		return nil, BatchStats{}, err
	}
	bs.SCCs, bs.Waves = cg.NumSCCs(), len(cg.Waves())
	for c := 0; c < bs.SCCs; c++ {
		if cg.Recursive(c) {
			bs.Recursive++
		}
	}
	if b := telemetry.B(); b != nil {
		b.BatchWaves.Add(int64(bs.Waves))
		b.BatchReadyPeak.Set(int64(bs.ReadyPeak))
		b.InterprocSummaryHits.Add(int64(bs.SummaryHits))
	}
	return a, bs, nil
}

// allocate is the whole-program allocation driver: it schedules one
// PlanFunc step per function on par.RunDAG with the given number of
// workers, collects the plans, and reports the run's ReadyPeak and
// summary counts.
//
// The task rule: with a call graph cg, interprocedural costs are on
// and each component of cg is one task that waits for its callees'
// components. With cg nil they are off, and each function is its own
// task, in program order, with no dependencies — so a one-worker run,
// and with it every ordered trace, follows program order, and every
// function may run in parallel.
func (p *Program) allocate(strat Strategy, config Config, pf *freq.ProgramFreq, opts AllocOptions, cg *callgraph.Graph, workers int) (*Allocation, BatchStats, error) {
	if !config.Valid() {
		return nil, BatchStats{}, fmt.Errorf("callcost: configuration %s below the calling-convention minimum (%d,%d,0,0)",
			config, machine.MinCallerInt, machine.MinCallerFloat)
	}
	funcs := p.IR.Funcs
	planOf := make(map[string]int, len(funcs))
	for i, fn := range funcs {
		planOf[fn.Name] = i
	}

	var cc *interproc.Table
	var deps [][]int
	members := func(t int) []*ir.Func { return funcs[t : t+1] }
	if cg != nil {
		cc = interproc.NewTable(config)
		deps = make([][]int, cg.NumSCCs())
		for c := range deps {
			deps[c] = cg.Deps(c)
		}
		members = cg.Members
	} else {
		deps = make([][]int, len(funcs))
	}
	opts.Interproc = cc

	if opts.Tracer != nil && opts.Tracer.Enabled() {
		if !opts.TraceParallel {
			workers = 1
		}
		// One sequencer per program run: every event gets the run's id
		// and a monotonic emission number, total across its functions.
		opts.Tracer = obs.NewSequencer(opts.Tracer)
	}
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}

	plans := make([]*rewrite.FuncPlan, len(funcs))
	var hits, misses atomic.Int64
	stats, err := par.RunDAG(ctx, deps, workers, func(t int) error {
		ms := members(t)
		for _, fn := range ms {
			ff := pf.ByFunc[fn.Name]
			if ff == nil {
				return fmt.Errorf("callcost: no frequency info for %s", fn.Name)
			}
			// Count summary consumption before this component publishes:
			// a hit is a call site whose callee's summary is already on
			// the table — exactly the sites the cost model and the save
			// placement refine. Same-component callees are not yet
			// published, so recursive calls count as misses, matching
			// their static treatment.
			for _, b := range fn.Blocks {
				for i := range b.Instrs {
					if b.Instrs[i].Op != ir.OpCall {
						continue
					}
					if cc != nil && cc.Lookup(b.Instrs[i].Callee) != nil {
						hits.Add(1)
					} else {
						misses.Add(1)
					}
				}
			}
			plan, err := p.PlanFunc(fn, ff, config, strat, opts)
			if err != nil {
				return err
			}
			plans[planOf[fn.Name]] = plan
		}
		if cc == nil {
			return nil
		}
		// Publish after every member is allocated. A recursive
		// component publishes the member-wise union for each member —
		// exact, because every member reaches every other, so they
		// share one transitive clobber set.
		local := func(callee string) bool { return cg.SCCOf(callee) == t }
		sums := make([]*interproc.Summary, len(ms))
		for i, fn := range ms {
			sums[i] = rewrite.Summarize(plans[planOf[fn.Name]], cc, local)
		}
		if cg.Recursive(t) {
			u := rewrite.UnionSummaries(sums...)
			for _, fn := range ms {
				cc.Publish(fn.Name, u)
			}
		} else {
			cc.Publish(ms[0].Name, sums[0])
		}
		return nil
	})
	if err != nil {
		return nil, BatchStats{}, err
	}

	a := &Allocation{
		Program:  p,
		Config:   config,
		Strategy: strat.Name(),
		Plans:    make(map[string]*rewrite.FuncPlan, len(funcs)),
	}
	for i, fn := range funcs {
		a.Plans[fn.Name] = plans[i]
	}
	return a, BatchStats{
		ReadyPeak:     stats.ReadyPeak,
		SummaryHits:   int(hits.Load()),
		SummaryMisses: int(misses.Load()),
	}, nil
}
