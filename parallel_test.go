package callcost_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro"
	"repro/internal/benchprog"
	"repro/internal/ir"
	"repro/internal/randprog"
)

// slotNameMap projects a spill-slot map to its stable content (slot
// symbols are freshly allocated pointers every run).
func slotNameMap(slots map[ir.Reg]*ir.Symbol) map[ir.Reg]string {
	out := make(map[ir.Reg]string, len(slots))
	for r, s := range slots {
		out[r] = s.Name
	}
	return out
}

// comparePlans asserts two whole-program allocations agree on every
// observable output: colors, spill slots, round counts, callee-save
// usage, and the emitted assembly text.
func comparePlans(t *testing.T, tag string, want, got *callcost.Allocation) {
	t.Helper()
	if len(want.Plans) != len(got.Plans) {
		t.Fatalf("%s: plan counts differ: %d vs %d", tag, len(want.Plans), len(got.Plans))
	}
	for name, pw := range want.Plans {
		pg := got.Plans[name]
		if pg == nil {
			t.Fatalf("%s: %s missing from the second allocation", tag, name)
		}
		if !reflect.DeepEqual(pw.Alloc.Colors, pg.Alloc.Colors) {
			t.Fatalf("%s: %s colors diverge", tag, name)
		}
		if !reflect.DeepEqual(slotNameMap(pw.Alloc.SlotOf), slotNameMap(pg.Alloc.SlotOf)) {
			t.Fatalf("%s: %s spill slots diverge", tag, name)
		}
		if pw.Alloc.Rounds != pg.Alloc.Rounds {
			t.Fatalf("%s: %s rounds %d vs %d", tag, name, pw.Alloc.Rounds, pg.Alloc.Rounds)
		}
		if !reflect.DeepEqual(pw.CalleeUsed, pg.CalleeUsed) {
			t.Fatalf("%s: %s callee-save usage diverges", tag, name)
		}
	}
	if wa, ga := want.Assembly(), got.Assembly(); wa != ga {
		t.Fatalf("%s: assembly output diverges", tag)
	}
}

// TestParallelAllocationMatchesSequential is the determinism contract
// of per-function parallel allocation: across the fuzz corpus and every
// benchmark program, for all four strategy families, a parallel
// Allocate (worker pool, shared prep cache) must be byte-identical —
// colors, spill slots, rounds, assembly — to the sequential path with
// the prep cache disabled, first with the cache cold and again warm.
// Run under -race this also proves the shared prepared artifacts are
// never written; the warm rerun catches a strategy that writes them
// anyway.
func TestParallelAllocationMatchesSequential(t *testing.T) {
	configs := []callcost.Config{
		callcost.NewConfig(6, 4, 0, 0),
		callcost.NewConfig(8, 6, 4, 4),
	}
	strategies := []callcost.Strategy{
		callcost.Chaitin(),
		callcost.ImprovedAll(),
		callcost.Priority(callcost.PrioritySorting),
		callcost.CBH(),
	}
	type source struct{ name, src string }
	var sources []source
	for seed := int64(0); seed < 10; seed++ {
		sources = append(sources, source{fmt.Sprintf("seed %d", seed), randprog.Generate(seed, randprog.DefaultOptions())})
	}
	for _, bp := range benchprog.All() {
		sources = append(sources, source{bp.Name, bp.Source})
	}
	for _, s := range sources {
		seqProg, err := callcost.Compile(s.src)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		parProg, err := callcost.Compile(s.src)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		pfSeq := seqProg.StaticFreq()
		pfPar := parProg.StaticFreq()
		for _, strat := range strategies {
			for _, config := range configs {
				tag := fmt.Sprintf("%s %s at %s", s.name, strat.Name(), config)
				seqOpts := callcost.DefaultAllocOptions()
				seqOpts.Parallel = 1
				seqOpts.NoPrepCache = true
				want, err := seqProg.AllocateWithOptions(strat, config, pfSeq, seqOpts)
				if err != nil {
					t.Fatalf("%s: sequential: %v", tag, err)
				}

				parOpts := callcost.DefaultAllocOptions()
				parOpts.Parallel = 8
				got, err := parProg.AllocateWithOptions(strat, config, pfPar, parOpts)
				if err != nil {
					t.Fatalf("%s: parallel: %v", tag, err)
				}
				comparePlans(t, tag, want, got)

				// Rerun on the warm prep cache: byte-identical again.
				again, err := parProg.AllocateWithOptions(strat, config, pfPar, parOpts)
				if err != nil {
					t.Fatalf("%s: warm rerun: %v", tag, err)
				}
				comparePlans(t, tag+" warm", got, again)
			}
		}
	}
}
