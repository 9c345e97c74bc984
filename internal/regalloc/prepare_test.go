package regalloc_test

import (
	"reflect"
	"testing"

	"repro/internal/cfg"
	"repro/internal/compile"
	"repro/internal/freq"
	"repro/internal/interference"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/liveness"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/regalloc"
	"repro/internal/rewrite"
)

// prepFixture compiles src and returns the function plus its dynamic
// frequency table.
func prepFixture(t *testing.T, src, fn string) (*ir.Func, *freq.FuncFreq) {
	t.Helper()
	prog, err := compile.Source(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res, err := interp.Run(prog, interp.Options{Profile: true})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	pf := freq.FromProfile(prog, res.Profile)
	return prog.FuncByName[fn], pf.ByFunc[fn]
}

// freshBaseGraphs builds the round-0 graphs of fn from scratch, as the
// oracle for what a FuncCache's bases must still look like after any
// number of allocations consumed them.
func freshBaseGraphs(fn *ir.Func) [ir.NumClasses]*interference.Graph {
	live := liveness.Compute(fn, cfg.New(fn))
	var out [ir.NumClasses]*interference.Graph
	for c := ir.Class(0); c < ir.NumClasses; c++ {
		out[c] = interference.Build(fn, live, c)
	}
	return out
}

// TestNoCoalesceBaseGraphsStayFrozen pins the snapshot fix for the old
// aliasing hazard: with coalescing off, the coloring round used to
// receive the base graph itself, so anything it did (stale-entry
// compaction or union-find path halving) reached the graph the next
// round — and now the prep cache — relied on. Snapshot semantics must make that impossible even
// through a spilling multi-round allocation.
func TestNoCoalesceBaseGraphsStayFrozen(t *testing.T) {
	fn, ff := prepFixture(t, pressureSrc, "f")
	prep := regalloc.Prepare(fn)
	strat := &regalloc.Chaitin{}
	opts := regalloc.DefaultOptions()
	dropped := regalloc.BuildPipeline(strat, rewrite.InsertSpills, opts).Drop(obs.PhaseCoalesce)
	opts.Pipeline = &dropped

	config := machine.NewConfig(6, 4, 0, 0)
	fa1, err := regalloc.AllocatePrepared(prep, ff, config, strat, rewrite.InsertSpills, opts)
	if err != nil {
		t.Fatal(err)
	}
	if fa1.Rounds < 2 {
		t.Fatalf("fixture no longer spills (rounds=%d); the regression needs a spill round", fa1.Rounds)
	}
	want := freshBaseGraphs(fn)
	for c := ir.Class(0); c < ir.NumClasses; c++ {
		if !interference.EdgesEqual(prep.BaseGraph(c), want[c]) {
			t.Errorf("class %v: prepared base graph mutated by a no-coalesce allocation", c)
		}
	}

	// A second allocation from the same (now warm) prep must reproduce
	// the first exactly.
	fa2, err := regalloc.AllocatePrepared(prep, ff, config, strat, rewrite.InsertSpills, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fa1.Colors, fa2.Colors) || fa1.Rounds != fa2.Rounds {
		t.Error("allocation from a warm prep cache diverged from the cold one")
	}
}

// TestAllocatePreparedMatchesAllocateFunc holds a shared FuncCache
// to the same results as the from-scratch entry point across strategies
// and configurations, including spilling ones.
func TestAllocatePreparedMatchesAllocateFunc(t *testing.T) {
	fn, ff := prepFixture(t, pressureSrc, "f")
	prep := regalloc.Prepare(fn)
	for _, config := range []machine.Config{machine.NewConfig(6, 4, 0, 0), machine.NewConfig(8, 6, 4, 4), machine.Full} {
		for _, mode := range []struct {
			name string
			edit func(pipeline.Pipeline) pipeline.Pipeline
		}{
			{"default", nil},
			{"conservative", func(p pipeline.Pipeline) pipeline.Pipeline {
				return p.Replace(obs.PhaseCoalesce, regalloc.CoalescePass(regalloc.BriggsCoalesce))
			}},
			{"no-coalesce", func(p pipeline.Pipeline) pipeline.Pipeline { return p.Drop(obs.PhaseCoalesce) }},
		} {
			for _, strat := range []regalloc.Strategy{&regalloc.Chaitin{}, &regalloc.Chaitin{Optimistic: true}} {
				opts := regalloc.DefaultOptions()
				if mode.edit != nil {
					p := mode.edit(regalloc.BuildPipeline(strat, rewrite.InsertSpills, opts))
					opts.Pipeline = &p
				}
				want, err := regalloc.AllocateFunc(fn, ff, config, strat, rewrite.InsertSpills, opts)
				if err != nil {
					t.Fatalf("%s %s at %s: %v", mode.name, strat.Name(), config, err)
				}
				got, err := regalloc.AllocatePrepared(prep, ff, config, strat, rewrite.InsertSpills, opts)
				if err != nil {
					t.Fatalf("%s %s at %s (prepared): %v", mode.name, strat.Name(), config, err)
				}
				if !reflect.DeepEqual(want.Colors, got.Colors) {
					t.Errorf("%s %s at %s: prepared colors diverge", mode.name, strat.Name(), config)
				}
				if want.Rounds != got.Rounds {
					t.Errorf("%s %s at %s: rounds %d vs %d", mode.name, strat.Name(), config, want.Rounds, got.Rounds)
				}
				if len(want.SlotOf) != len(got.SlotOf) {
					t.Errorf("%s %s at %s: spill counts %d vs %d", mode.name, strat.Name(), config, len(want.SlotOf), len(got.SlotOf))
				}
			}
		}
	}
}

// TestAllocateAliasesOriginalWhenNoSpills pins the lazy-clone contract:
// an allocation that never spills returns the input function itself,
// unchanged; one that spills returns a clone and leaves the input
// untouched.
func TestAllocateAliasesOriginalWhenNoSpills(t *testing.T) {
	fn, ff := prepFixture(t, pressureSrc, "f")
	before := fn.String()

	fa, err := regalloc.AllocateFunc(fn, ff, machine.Full, &regalloc.Chaitin{}, rewrite.InsertSpills, regalloc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(fa.SlotOf) != 0 {
		t.Fatalf("full machine unexpectedly spilled")
	}
	if fa.Fn != fn {
		t.Error("spill-free allocation should alias the input function, not clone it")
	}

	fa, err = regalloc.AllocateFunc(fn, ff, machine.NewConfig(6, 4, 0, 0), &regalloc.Chaitin{}, rewrite.InsertSpills, regalloc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(fa.SlotOf) == 0 {
		t.Fatal("fixture no longer spills under pressure")
	}
	if fa.Fn == fn {
		t.Error("spilling allocation must work on a clone")
	}
	if fn.String() != before {
		t.Error("input function mutated")
	}
}

// TestPreparedFuncConcurrentAllocations allocates from one shared
// FuncCache on many goroutines at once — the shape of a parallel
// figure sweep. Meaningful chiefly under -race: it proves the frozen
// artifacts really are read without writes. Results must all agree.
func TestPreparedFuncConcurrentAllocations(t *testing.T) {
	fn, ff := prepFixture(t, pressureSrc, "f")
	prep := regalloc.Prepare(fn)
	configs := []machine.Config{machine.NewConfig(6, 4, 0, 0), machine.NewConfig(8, 6, 4, 4)}

	const rounds = 4
	type result struct {
		fa  *regalloc.FuncAlloc
		err error
	}
	results := make([]result, rounds*len(configs))
	done := make(chan struct{})
	for i := range results {
		go func(i int) {
			defer func() { done <- struct{}{} }()
			config := configs[i%len(configs)]
			fa, err := regalloc.AllocatePrepared(prep, ff, config, &regalloc.Chaitin{}, rewrite.InsertSpills, regalloc.DefaultOptions())
			results[i] = result{fa, err}
		}(i)
	}
	for range results {
		<-done
	}
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("goroutine %d: %v", i, r.err)
		}
		ref := results[i%len(configs)]
		if !reflect.DeepEqual(r.fa.Colors, ref.fa.Colors) || r.fa.Rounds != ref.fa.Rounds {
			t.Errorf("goroutine %d: concurrent allocation diverged from its twin", i)
		}
	}
	close(done)
}
