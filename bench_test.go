// Benchmarks that regenerate every table and figure of the paper (run
// with `go test -bench=. -benchmem`), plus micro-benchmarks of the
// pipeline phases. The per-figure benchmarks report the headline
// quantity of the corresponding experiment as a custom metric so a
// bench run doubles as a results summary:
//
//	BenchmarkFigure7   ... base/improved@full(ear)
//	BenchmarkTable4    ... min and max speedup percent
package callcost_test

import (
	"io"
	"testing"
	"time"

	"repro"
	"repro/internal/benchprog"
	"repro/internal/cfg"
	"repro/internal/experiments"
	"repro/internal/interference"
	"repro/internal/ir"
	"repro/internal/liveness"
	"repro/internal/liverange"
	"repro/internal/obs"
	"repro/internal/regalloc"
	"repro/internal/rewrite"
)

// benchEnv caches compiled and profiled benchmarks across benchmarks.
var benchEnv = experiments.NewEnv()

func runExperiment(b *testing.B, id string) {
	b.Helper()
	e := experiments.ByID(id)
	if e == nil {
		b.Fatalf("no experiment %s", id)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(benchEnv, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2 regenerates the base-allocator cost decomposition of
// eqntott and ear across the register sweep.
func BenchmarkFigure2(b *testing.B) { runExperiment(b, "fig2") }

// BenchmarkFigure6 regenerates the SC / SC+PR / SC+BS / SC+BS+PR
// improvement ratios for the class-representative programs.
func BenchmarkFigure6(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFigure7 regenerates the improved-allocator decomposition and
// reports the paper's headline ratio (base/improved at the full machine
// for ear; the paper reports 45x).
func BenchmarkFigure7(b *testing.B) {
	runExperiment(b, "fig7")
	base, err := experiments.CostDecomposition(benchEnv, "ear", callcost.Chaitin())
	if err != nil {
		b.Fatal(err)
	}
	impr, err := experiments.CostDecomposition(benchEnv, "ear", callcost.ImprovedAll())
	if err != nil {
		b.Fatal(err)
	}
	last := len(base) - 1
	b.ReportMetric(callcost.Ratio(base[last].Cost.Total(), impr[last].Cost.Total()), "base/improved@full(ear)")
}

// BenchmarkTable2 regenerates optimistic-vs-base with static estimates.
func BenchmarkTable2(b *testing.B) { runExperiment(b, "tab2") }

// BenchmarkTable3 regenerates optimistic-vs-base with profiles.
func BenchmarkTable3(b *testing.B) { runExperiment(b, "tab3") }

// BenchmarkFigure9 regenerates the fpppp static comparison.
func BenchmarkFigure9(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkFigure10 regenerates priority-based vs improved Chaitin.
func BenchmarkFigure10(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkFigure11 regenerates improved Chaitin vs CBH.
func BenchmarkFigure11(b *testing.B) { runExperiment(b, "fig11") }

// BenchmarkTable4 regenerates the execution-time speedups and reports
// their range.
func BenchmarkTable4(b *testing.B) {
	runExperiment(b, "tab4")
	rows, err := experiments.Speedups(benchEnv, experiments.Tab4Programs)
	if err != nil {
		b.Fatal(err)
	}
	minS, maxS := rows[0].SpeedupPercent, rows[0].SpeedupPercent
	for _, r := range rows {
		if r.SpeedupPercent < minS {
			minS = r.SpeedupPercent
		}
		if r.SpeedupPercent > maxS {
			maxS = r.SpeedupPercent
		}
	}
	b.ReportMetric(minS, "min-speedup-%")
	b.ReportMetric(maxS, "max-speedup-%")
}

// BenchmarkAblationCalleeModel regenerates the §4 first-use vs shared
// comparison.
func BenchmarkAblationCalleeModel(b *testing.B) { runExperiment(b, "ablation-callee") }

// BenchmarkAblationSimplifyKey regenerates the §5 key comparison.
func BenchmarkAblationSimplifyKey(b *testing.B) { runExperiment(b, "ablation-key") }

// BenchmarkAblationPriorityOrdering regenerates the §9.1 ordering
// comparison.
func BenchmarkAblationPriorityOrdering(b *testing.B) { runExperiment(b, "ablation-priority") }

// BenchmarkAblationCoalescing regenerates the coalescing-mode ablation.
func BenchmarkAblationCoalescing(b *testing.B) { runExperiment(b, "ablation-coalesce") }

// BenchmarkAblationSpillHeuristic regenerates the spill-heuristic
// ablation.
func BenchmarkAblationSpillHeuristic(b *testing.B) { runExperiment(b, "ablation-spillheur") }

// ---------------------------------------------------------------------
// Pipeline micro-benchmarks

// BenchmarkCompileSuite measures the front end over the whole suite.
func BenchmarkCompileSuite(b *testing.B) {
	progs := benchprog.All()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			if _, err := callcost.Compile(p.Source); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkLiveness measures the dataflow solver on the suite's largest
// functions.
func BenchmarkLiveness(b *testing.B) {
	prog := callcost.MustCompile(benchprog.ByName("tomcatv").Source)
	fn := prog.IR.FuncByName["main"]
	g := cfg.New(fn)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		liveness.Compute(fn, g)
	}
}

// benchGraphSetup compiles the largest benchprog function (fpppp's
// twoel) and returns everything the per-phase micro-benchmarks need.
func benchGraphSetup(b *testing.B) (*ir.Func, *liveness.Info) {
	b.Helper()
	prog := callcost.MustCompile(benchprog.ByName("fpppp").Source)
	fn := prog.IR.FuncByName["twoel"]
	g := cfg.New(fn)
	return fn, liveness.Compute(fn, g)
}

// BenchmarkInterferenceBuild measures graph construction.
func BenchmarkInterferenceBuild(b *testing.B) {
	fn, live := benchGraphSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		interference.Build(fn, live, ir.ClassFloat)
	}
}

// BenchmarkCoalesce measures the coalescing phase as the driver runs
// it: clone the base graph, then coalesce the clone aggressively.
func BenchmarkCoalesce(b *testing.B) {
	fn, live := benchGraphSetup(b)
	base := interference.Build(fn, live, ir.ClassFloat)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := base.Clone()
		g.Coalesce(false, 16)
	}
}

// BenchmarkSimplify measures worklist simplification over the coalesced
// graph of the largest benchprog function, at a register count low
// enough that the blocked-spill path is exercised too.
func BenchmarkSimplify(b *testing.B) {
	p, err := benchEnv.Get("fpppp")
	if err != nil {
		b.Fatal(err)
	}
	fn := p.Program.IR.FuncByName["twoel"]
	g := cfg.New(fn)
	live := liveness.Compute(fn, g)
	cfgRegs := callcost.NewConfig(8, 6, 2, 2)
	var graphs [ir.NumClasses]*interference.Graph
	for c := ir.Class(0); c < ir.NumClasses; c++ {
		graphs[c] = interference.Build(fn, live, c)
		graphs[c].Coalesce(false, cfgRegs.Total(c))
	}
	ranges := liverange.Analyze(fn, live, &graphs, p.Dynamic.ByFunc["twoel"], nil)
	ctx := &regalloc.ClassContext{
		Fn:     fn,
		Class:  ir.ClassFloat,
		Graph:  graphs[ir.ClassFloat],
		Ranges: ranges,
		Config: cfgRegs,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := regalloc.NewSimplifier(ctx)
		s.Run(regalloc.SimplifyOptions{})
	}
}

// BenchmarkRanges measures live-range analysis (costs, degrees, areas)
// over the coalesced graphs of the largest benchprog function — the
// phase the prepared-function cache shares across strategy cells.
func BenchmarkRanges(b *testing.B) {
	p, err := benchEnv.Get("fpppp")
	if err != nil {
		b.Fatal(err)
	}
	fn := p.Program.IR.FuncByName["twoel"]
	live := liveness.Compute(fn, cfg.New(fn))
	var graphs [ir.NumClasses]*interference.Graph
	for c := ir.Class(0); c < ir.NumClasses; c++ {
		graphs[c] = interference.Build(fn, live, c)
		graphs[c].Coalesce(false, 0)
	}
	ff := p.Dynamic.ByFunc["twoel"]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		liverange.Analyze(fn, live, &graphs, ff, nil)
	}
}

// BenchmarkAllocateBase measures a whole-program base allocation.
func BenchmarkAllocateBase(b *testing.B) {
	benchAllocate(b, callcost.Chaitin())
}

// BenchmarkAllocateImproved measures a whole-program improved
// allocation (the paper's contribution, all three techniques).
func BenchmarkAllocateImproved(b *testing.B) {
	benchAllocate(b, callcost.ImprovedAll())
}

func benchAllocate(b *testing.B, strat callcost.Strategy) {
	b.Helper()
	p, err := benchEnv.Get("li")
	if err != nil {
		b.Fatal(err)
	}
	cfgRegs := callcost.NewConfig(8, 6, 4, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Program.Allocate(strat, cfgRegs, p.Dynamic); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllocateProgram measures repeated whole-program allocations
// of the same compiled program — the shape of a figure sweep — with the
// shared prepared-function cache on (the default) and off. The gap
// between the two sub-benchmarks is what round-0 sharing buys.
func BenchmarkAllocateProgram(b *testing.B) {
	p, err := benchEnv.Get("li")
	if err != nil {
		b.Fatal(err)
	}
	cfgRegs := callcost.NewConfig(8, 6, 4, 4)
	for _, mode := range []struct {
		name   string
		noPrep bool
	}{
		{"prep-cache", false},
		{"no-prep-cache", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			opts := callcost.DefaultAllocOptions()
			opts.NoPrepCache = mode.noPrep
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Program.AllocateWithOptions(callcost.ImprovedAll(), cfgRegs, p.Dynamic, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAllocateStrategy measures cold whole-program allocation
// wall time per strategy: the full graph-coloring pipeline (improved),
// the graph-free linear scan, and the scan-first hybrid tier. The
// prepared-function cache is off so every iteration pays exactly the
// analyses its strategy needs — the scan's win is precisely not
// building interference graphs.
//
// Each cell also reports the pareto-sweep quality metrics as custom
// units: the analytic total overhead under dynamic weights
// ("overhead") and, for the hybrid, how many functions escalated to
// full coloring ("escalated"). Both are deterministic, so
// cmd/benchdiff gates them tightly against the baseline's pareto
// section — a quality regression fails CI like a wall-time one.
func BenchmarkAllocateStrategy(b *testing.B) {
	// li and eqntott escalate under the hybrid tier (their hot function
	// spills); ear and sc are spill-light and stay entirely in the scan.
	progs := []string{"li", "compress", "eqntott", "ear", "sc"}
	strategies := []struct {
		name  string
		strat callcost.Strategy
	}{
		{"improved", callcost.ImprovedAll()},
		{"linscan", callcost.LinearScan()},
		{"hybrid", callcost.HybridTiered()},
	}
	cfgRegs := callcost.NewConfig(8, 6, 4, 4)
	for _, pname := range progs {
		p, err := benchEnv.Get(pname)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range strategies {
			b.Run(pname+"/"+s.name, func(b *testing.B) {
				opts := callcost.DefaultAllocOptions()
				opts.NoPrepCache = true
				var alloc *callcost.Allocation
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var err error
					if alloc, err = p.Program.AllocateWithOptions(s.strat, cfgRegs, p.Dynamic, opts); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				b.ReportMetric(alloc.Overhead(p.Dynamic).Total(), "overhead")
				if s.name == "hybrid" {
					escalated := 0
					for _, plan := range alloc.Plans {
						if plan.Alloc.Escalated {
							escalated++
						}
					}
					b.ReportMetric(float64(escalated), "escalated")
				}
			})
		}
	}
}

// BenchmarkMachineInterp measures executing allocated code on the
// machine-level interpreter.
func BenchmarkMachineInterp(b *testing.B) {
	p, err := benchEnv.Get("compress")
	if err != nil {
		b.Fatal(err)
	}
	alloc, err := p.Program.Allocate(callcost.ImprovedAll(), callcost.NewConfig(8, 6, 4, 4), p.Dynamic)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := alloc.Execute(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReferenceInterp measures the reference interpreter on the
// same workload, for comparison with BenchmarkMachineInterp.
func BenchmarkReferenceInterp(b *testing.B) {
	p, err := benchEnv.Get("compress")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Program.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// roundTimer is a tracer that accumulates the wall time of every
// pipeline phase of rounds ≥ 1 — the spill rounds.
type roundTimer struct{ total time.Duration }

func (rt *roundTimer) Enabled() bool { return true }
func (rt *roundTimer) Emit(ev obs.Event) {
	if ev.Kind == obs.KindPhaseEnd && ev.Round >= 1 {
		rt.total += ev.Dur
	}
}

// BenchmarkSpillRound measures the spill rounds (round ≥ 1) of
// multi-round allocations, where every analysis is recomputed from
// scratch on the rewritten body. The reported round1+_us/op metric is
// the per-allocation wall time of rounds ≥ 1; the ns/op column is the
// whole allocation. The arm keeps the name "rebuild" so its baseline
// rows stay comparable.
func BenchmarkSpillRound(b *testing.B) {
	cases := []struct{ prog, fn string }{
		{"fpppp", "twoel"},
		{"tomcatv", "main"},
		{"eqntott", "buildtt"},
	}
	cfgRegs := callcost.NewConfig(6, 4, 0, 0)
	for _, c := range cases {
		p, err := benchEnv.Get(c.prog)
		if err != nil {
			b.Fatal(err)
		}
		fn := p.Program.IR.FuncByName[c.fn]
		ff := p.Dynamic.ByFunc[c.fn]
		b.Run(c.prog+"_"+c.fn+"/rebuild", func(b *testing.B) {
			tr := &roundTimer{}
			opts := regalloc.DefaultOptions()
			opts.Tracer = tr
			b.ResetTimer()
			tr.total = 0
			for i := 0; i < b.N; i++ {
				if _, err := regalloc.AllocateFunc(fn, ff, cfgRegs, callcost.Chaitin(),
					rewrite.InsertSpills, opts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(tr.total.Nanoseconds())/1e3/float64(b.N), "round1+_us/op")
		})
	}
}
