package callcost_test

import (
	"fmt"
	"testing"

	"repro"
	"repro/internal/benchprog"
	"repro/internal/freq"
	"repro/internal/pipeline"
	"repro/internal/regalloc"
	"repro/internal/rewrite"
)

// legacyAllocate builds a whole-program allocation through
// regalloc.AllocateLegacy — the pre-pipeline driver kept as the
// differential reference — with a fresh per-function prepare (the old
// cold path).
func legacyAllocate(t *testing.T, prog *callcost.Program, strat callcost.Strategy,
	config callcost.Config, pf *freq.ProgramFreq) *callcost.Allocation {
	t.Helper()
	a := &callcost.Allocation{
		Program:  prog,
		Config:   config,
		Strategy: strat.Name(),
		Plans:    make(map[string]*rewrite.FuncPlan, len(prog.IR.Funcs)),
	}
	opts := callcost.DefaultAllocOptions()
	for _, fn := range prog.IR.Funcs {
		fa, err := regalloc.AllocateLegacy(regalloc.Prepare(fn), pf.ByFunc[fn.Name],
			config, strat, rewrite.InsertSpills, opts)
		if err != nil {
			t.Fatalf("legacy %s on %s: %v", strat.Name(), fn.Name, err)
		}
		if err := rewrite.Validate(fa); err != nil {
			t.Fatalf("legacy %s on %s: invalid allocation: %v", strat.Name(), fn.Name, err)
		}
		a.Plans[fn.Name] = rewrite.BuildPlan(fa)
	}
	return a
}

// TestPipelineMatchesLegacy is the refactor's acceptance gate: the
// pass-pipeline driver must be byte-identical — colors, spill slots,
// round counts, callee-save usage, assembly — to the retired monolithic
// driver, for every benchmark program, all four strategy families, a
// spilling and a non-spilling configuration, with the prep cache cold
// and warm, sequentially and in parallel. Run under -race this also
// proves pipeline state never leaks across concurrent allocations.
func TestPipelineMatchesLegacy(t *testing.T) {
	configs := []callcost.Config{
		callcost.NewConfig(6, 4, 0, 0), // minimum: forces spill rounds
		callcost.NewConfig(8, 6, 4, 4), // default machine
	}
	strategies := []callcost.Strategy{
		callcost.Chaitin(),
		callcost.ImprovedAll(),
		callcost.Priority(callcost.PrioritySorting),
		callcost.CBH(),
	}
	for _, name := range benchprog.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			src := benchprog.ByName(name).Source
			// Separate compiles so the legacy reference and the pipeline
			// runs never share IR or caches.
			legacyProg, err := callcost.Compile(src)
			if err != nil {
				t.Fatal(err)
			}
			pipeProg, err := callcost.Compile(src)
			if err != nil {
				t.Fatal(err)
			}
			pfLegacy := legacyProg.StaticFreq()
			pfPipe := pipeProg.StaticFreq()
			for _, strat := range strategies {
				for _, config := range configs {
					tag := fmt.Sprintf("%s %s at %s", name, strat.Name(), config)
					want := legacyAllocate(t, legacyProg, strat, config, pfLegacy)

					cold := callcost.DefaultAllocOptions()
					cold.NoPrepCache = true
					cold.Parallel = 1
					got, err := pipeProg.AllocateWithOptions(strat, config, pfPipe, cold)
					if err != nil {
						t.Fatalf("%s (cold): %v", tag, err)
					}
					comparePlans(t, tag+" cold", want, got)

					warm := callcost.DefaultAllocOptions()
					warm.Parallel = 1
					// First cached run may populate the prep cache, the
					// second consumes it warm; both must match.
					for _, phase := range []string{"first-cached", "warm"} {
						got, err := pipeProg.AllocateWithOptions(strat, config, pfPipe, warm)
						if err != nil {
							t.Fatalf("%s (%s): %v", tag, phase, err)
						}
						comparePlans(t, tag+" "+phase, want, got)
					}

					par := callcost.DefaultAllocOptions()
					par.Parallel = 8
					got, err = pipeProg.AllocateWithOptions(strat, config, pfPipe, par)
					if err != nil {
						t.Fatalf("%s (parallel): %v", tag, err)
					}
					comparePlans(t, tag+" parallel", want, got)
				}
			}
		})
	}
}

// BenchmarkDriverOverhead isolates the pass-pipeline runner's overhead
// from allocation work: the same warm per-function allocations of li,
// through the legacy monolithic driver and through the pipeline.
func BenchmarkDriverOverhead(b *testing.B) {
	prog, err := callcost.Compile(benchprog.ByName("li").Source)
	if err != nil {
		b.Fatal(err)
	}
	pf := prog.StaticFreq()
	config := callcost.NewConfig(8, 6, 4, 4)
	strat := callcost.ImprovedAll()
	opts := callcost.DefaultAllocOptions()
	preps := make([]*pipeline.FuncCache, len(prog.IR.Funcs))
	for i, fn := range prog.IR.Funcs {
		preps[i] = regalloc.Prepare(fn)
	}
	run := func(b *testing.B, alloc func(*pipeline.FuncCache, *freq.FuncFreq) error) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j, fn := range prog.IR.Funcs {
				if err := alloc(preps[j], pf.ByFunc[fn.Name]); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("legacy", func(b *testing.B) {
		run(b, func(p *pipeline.FuncCache, ff *freq.FuncFreq) error {
			_, err := regalloc.AllocateLegacy(p, ff, config, strat, rewrite.InsertSpills, opts)
			return err
		})
	})
	b.Run("pipeline", func(b *testing.B) {
		run(b, func(p *pipeline.FuncCache, ff *freq.FuncFreq) error {
			_, err := regalloc.AllocatePrepared(p, ff, config, strat, rewrite.InsertSpills, opts)
			return err
		})
	})
}
