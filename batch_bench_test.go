package callcost_test

import (
	"sort"
	"testing"
	"time"

	"repro"
	"repro/internal/callgraph"
	"repro/internal/randprog"
	"repro/internal/regalloc"
	"repro/internal/rewrite"
)

// batchBenchProgram compiles one benchmark input for the batch driver:
// a named benchprog, or the synthetic wide call DAG ("calldag") — a
// randprog ShapeCallDAG instance with a large independent chain layer,
// the shape whose schedule actually exposes parallelism.
func batchBenchProgram(b *testing.B, name string) (*callcost.Program, *callcost.Allocation) {
	b.Helper()
	var prog *callcost.Program
	if name == "calldag" {
		src := randprog.Generate(7, randprog.Options{
			Funcs: 24, MaxStmts: 5, MaxDepth: 2, MaxLoopTrip: 4,
			Shape: randprog.ShapeCallDAG,
		})
		p, err := callcost.Compile(src)
		if err != nil {
			b.Fatal(err)
		}
		prog = p
	} else {
		p, err := benchEnv.Get(name)
		if err != nil {
			b.Fatal(err)
		}
		prog = p.Program
	}
	return prog, nil
}

// simulateMakespan runs list scheduling (longest-task-first among the
// ready set) of the component durations over the dependency DAG on the
// given number of workers and returns the simulated wall time. This is
// what the DAG schedule would cost with that many real CPUs — measured
// per-component serially, so it is computable (and stable) on a
// single-core host where a wall-clock A/B of Workers=1 vs Workers=4
// measures nothing but goroutine overhead.
func simulateMakespan(d []time.Duration, deps [][]int, workers int) time.Duration {
	n := len(d)
	indeg := make([]int, n)
	dependents := make([][]int, n)
	for i, ds := range deps {
		indeg[i] = len(ds)
		for _, dep := range ds {
			dependents[dep] = append(dependents[dep], i)
		}
	}
	ready := make([]int, 0, n)
	for i, deg := range indeg {
		if deg == 0 {
			ready = append(ready, i)
		}
	}
	free := make([]time.Duration, workers) // next instant each worker is idle
	finish := make([]time.Duration, n)
	running := make([]int, 0, n) // tasks started, sorted by finish time
	started := 0
	for started < n || len(running) > 0 {
		// Start every ready task we have a worker for, longest first.
		sort.Slice(ready, func(a, b int) bool { return d[ready[a]] > d[ready[b]] })
		for len(ready) > 0 {
			// Earliest-idle worker.
			w := 0
			for i := 1; i < workers; i++ {
				if free[i] < free[w] {
					w = i
				}
			}
			t := ready[0]
			// The task may also be gated by its dependencies' finishes.
			start := free[w]
			for _, dep := range deps[t] {
				if finish[dep] > start {
					start = finish[dep]
				}
			}
			free[w] = start + d[t]
			finish[t] = free[w]
			running = append(running, t)
			ready = ready[1:]
			started++
		}
		if len(running) == 0 {
			break
		}
		// Retire the earliest finisher, releasing its dependents.
		sort.Slice(running, func(a, b int) bool { return finish[running[a]] < finish[running[b]] })
		done := running[0]
		running = running[1:]
		for _, dep := range dependents[done] {
			if indeg[dep]--; indeg[dep] == 0 {
				ready = append(ready, dep)
			}
		}
	}
	var makespan time.Duration
	for _, f := range finish {
		if f > makespan {
			makespan = f
		}
	}
	return makespan
}

// measureComponents times each call-graph component's allocation
// serially (warm prep, best of rounds) and returns the durations plus
// the component dependency lists.
func measureComponents(b *testing.B, prog *callcost.Program, cfg callcost.Config, rounds int) ([]time.Duration, [][]int) {
	b.Helper()
	cg := callgraph.Build(prog.IR)
	pf := prog.StaticFreq()
	prep := prog.Prepare()
	opts := callcost.DefaultAllocOptions()
	strat := callcost.ImprovedAll()
	n := cg.NumSCCs()
	d := make([]time.Duration, n)
	deps := make([][]int, n)
	for c := 0; c < n; c++ {
		deps[c] = cg.Deps(c)
	}
	for r := 0; r < rounds; r++ {
		for c := 0; c < n; c++ {
			start := time.Now()
			for _, fn := range cg.Members(c) {
				if _, err := regalloc.AllocatePrepared(prep.Func(fn.Name), pf.ByFunc[fn.Name], cfg, strat, rewrite.InsertSpills, opts); err != nil {
					b.Fatal(err)
				}
			}
			el := time.Since(start)
			if r == 0 || el < d[c] {
				d[c] = el
			}
		}
	}
	return d, deps
}

// BenchmarkBatchAllocate measures the whole-program batch driver.
// seq/dag are the wall time of AllocateProgramBatch, interprocedural
// costs off, with Workers=1 vs Workers=4 (warm prep) — on a multi-core
// host their gap is the parallel schedule's win; on this repo's
// single-core CI they necessarily tie,
// so the dag cell additionally reports sched_speedup_x4: the ratio of
// the summed per-component allocation times to the simulated 4-worker
// list-schedule makespan over the real dependency DAG, using
// individually measured component durations. That is the speedup the
// schedule itself provides, gated like any other metric (higher is
// better), independent of how many CPUs the measuring host has.
// sched_speedup_x4 is computed from the call graph's component DAG
// directly, so it does not depend on the driver's task rule. With
// interprocedural costs off every function is an independent task, so
// ready_peak (informational) is the program's function count.
func BenchmarkBatchAllocate(b *testing.B) {
	cfgRegs := callcost.NewConfig(8, 6, 4, 4)
	// ear and li are the real benchmark shapes (narrow DAGs — most of
	// their work is one hot component); calldag is the wide layer where
	// scheduling pays.
	for _, pname := range []string{"ear", "li", "calldag"} {
		prog, _ := batchBenchProgram(b, pname)
		pf := prog.StaticFreq()
		for _, mode := range []struct {
			name    string
			workers int
		}{
			{"seq", 1},
			{"dag", 4},
		} {
			b.Run(pname+"/"+mode.name, func(b *testing.B) {
				opts := callcost.DefaultAllocOptions()
				var bs callcost.BatchStats
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var err error
					if _, bs, err = prog.AllocateProgramBatch(callcost.ImprovedAll(), cfgRegs, pf, opts, callcost.BatchOptions{Workers: mode.workers}); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				if mode.name != "dag" {
					return
				}
				b.ReportMetric(float64(bs.ReadyPeak), "ready_peak")
				d, deps := measureComponents(b, prog, cfgRegs, 3)
				var total time.Duration
				for _, el := range d {
					total += el
				}
				makespan := simulateMakespan(d, deps, 4)
				if makespan > 0 {
					b.ReportMetric(float64(total)/float64(makespan), "sched_speedup_x4")
				}
			})
		}
	}
}
