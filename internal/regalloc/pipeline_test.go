package regalloc_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/pipeline"
	"repro/internal/regalloc"
	"repro/internal/rewrite"
)

// TestRoundBudgetExhausted pins the named-budget contract: when the
// round loop hits MaxRounds without a spill-free coloring, the error is
// descriptive (strategy + function) and matchable via errors.Is.
func TestRoundBudgetExhausted(t *testing.T) {
	fn, ff := prepFixture(t, pressureSrc, "f")
	config := machine.NewConfig(6, 4, 0, 0)
	opts := regalloc.DefaultOptions()
	opts.MaxRounds = 1 // the pressure fixture needs at least two rounds

	_, err := regalloc.AllocatePrepared(regalloc.Prepare(fn), ff, config,
		&regalloc.Chaitin{}, rewrite.InsertSpills, opts)
	if err == nil {
		t.Fatal("1-round budget on a spilling function succeeded")
	}
	if !errors.Is(err, pipeline.ErrRoundLimit) {
		t.Errorf("err = %v, not matchable as ErrRoundLimit", err)
	}
	for _, want := range []string{"chaitin", "f", "1 rounds"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}

	// The same allocation under the named default budget converges.
	opts.MaxRounds = 0 // 0 selects pipeline.DefaultMaxRounds
	alloc, err := regalloc.AllocatePrepared(regalloc.Prepare(fn), ff, config,
		&regalloc.Chaitin{}, rewrite.InsertSpills, opts)
	if err != nil {
		t.Fatalf("default budget: %v", err)
	}
	if alloc.Rounds < 2 || alloc.Rounds > pipeline.DefaultMaxRounds {
		t.Errorf("rounds = %d, want within (1, %d]", alloc.Rounds, pipeline.DefaultMaxRounds)
	}
}

// TestFreeColorsScratchReuse pins the documented ownership contract:
// the slice FreeColors returns is ctx-owned scratch, overwritten by the
// next call — retaining it across calls observes the new answer.
func TestFreeColorsScratchReuse(t *testing.T) {
	ctx := context(t, pressureSrc, "f", machine.NewConfig(6, 4, 0, 0), ir.ClassInt)

	// Pick a node with at least one neighbor so coloring it changes the
	// free set.
	var rep, nb ir.Reg
	found := false
	for _, r := range ctx.Nodes() {
		ctx.Graph.Neighbors(r, func(n ir.Reg) {
			if !found {
				rep, nb, found = r, n, true
			}
		})
		if found {
			break
		}
	}
	if !found {
		t.Fatal("fixture graph has no edges")
	}

	res := regalloc.NewClassResult()
	first := ctx.FreeColors(res, rep)
	if len(first) != ctx.N() {
		t.Fatalf("with nothing colored, free = %d, want the full bank %d", len(first), ctx.N())
	}

	ctx.Assign(res, nb, 0)
	second := ctx.FreeColors(res, rep)
	if len(second) != ctx.N()-1 || second[0] != 1 {
		t.Fatalf("with neighbor on color 0, free = %v", second)
	}
	if &first[0] != &second[0] {
		t.Error("second call did not reuse the scratch backing array")
	}
	if first[0] != second[0] {
		t.Error("retained slice kept its old contents; the contract says it is clobbered")
	}
}

// TestSplitFreeScratchReuse pins the same contract for SplitFree: both
// returned slices are ctx-owned scratch.
func TestSplitFreeScratchReuse(t *testing.T) {
	// Two callee-save registers per bank so both partitions are non-empty.
	config := machine.NewConfig(6, 4, 2, 2)
	ctx := context(t, pressureSrc, "f", config, ir.ClassInt)

	free := make([]machine.PhysReg, ctx.N())
	for i := range free {
		free[i] = machine.PhysReg(i)
	}
	caller1, callee1 := ctx.SplitFree(free)
	if len(caller1)+len(callee1) != len(free) {
		t.Fatalf("partition lost registers: %d + %d != %d", len(caller1), len(callee1), len(free))
	}
	if len(caller1) == 0 || len(callee1) == 0 {
		t.Fatalf("config %v should yield both partitions, got caller=%v callee=%v", config, caller1, callee1)
	}
	for _, r := range caller1 {
		if !ctx.Config.IsCallerSave(ctx.Class, r) {
			t.Errorf("caller partition holds callee-save r%d", r)
		}
	}
	for _, r := range callee1 {
		if ctx.Config.IsCallerSave(ctx.Class, r) {
			t.Errorf("callee partition holds caller-save r%d", r)
		}
	}

	caller2, callee2 := ctx.SplitFree(free)
	if &caller1[0] != &caller2[0] || &callee1[0] != &callee2[0] {
		t.Error("second call did not reuse the scratch backing arrays")
	}
}

// TestColorStackReusesBacking pins that a drained stack's capacity is
// reused: steady-state push/pop cycles allocate nothing.
func TestColorStackReusesBacking(t *testing.T) {
	var s regalloc.ColorStack
	cycle := func() {
		for r := ir.Reg(0); r < 64; r++ {
			s.Push(r)
		}
		for {
			if _, ok := s.Pop(); !ok {
				break
			}
		}
	}
	cycle() // grow the backing array once
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Errorf("steady-state push/pop allocates %.0f times per cycle, want 0", allocs)
	}
}
