package linscan_test

import (
	"strings"
	"testing"

	"repro/internal/cfg"
	"repro/internal/compile"
	"repro/internal/freq"
	"repro/internal/interference"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/linscan"
	"repro/internal/liveness"
	"repro/internal/liverange"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/regalloc"
	"repro/internal/rewrite"
)

const pressureSrc = `
int f(int a, int b, int c) {
	int d = a + b;
	int e = b + c;
	int g = a + c;
	int h = d + e;
	int i = e + g;
	int j = d + g;
	return h + i + j + a + b + c + d + e + g;
}
int main() { return f(1, 2, 3); }`

const callSrc = `
int g(int x) { return x + 1; }
int f(int a) {
	g(7);
	return a;
}
int main() { return f(5); }`

// alloc compiles src and allocates fn with strat, returning the result.
func alloc(t *testing.T, src, fn string, strat regalloc.Strategy, config machine.Config, opts regalloc.Options) *regalloc.FuncAlloc {
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
	fa, err := regalloc.AllocatePrepared(regalloc.Prepare(prog.FuncByName[fn]), pf.ByFunc[fn], config, strat, rewrite.InsertSpills, opts)
	if err != nil {
		t.Fatalf("allocate: %v", err)
	}
	if err := rewrite.Validate(fa); err != nil {
		t.Fatalf("invalid allocation: %v", err)
	}
	return fa
}

func TestScanPipelineShape(t *testing.T) {
	pl := regalloc.BuildPipeline(&linscan.Scan{}, rewrite.InsertSpills)
	if got, want := strings.Join(pl.Names(), " "), "liveness scan spill-rewrite"; got != want {
		t.Fatalf("scan pipeline = %q, want %q", got, want)
	}
	pl = regalloc.BuildPipeline(&linscan.Hybrid{}, rewrite.InsertSpills)
	want := []string{obs.PhaseLiveness, obs.PhaseScan, obs.PhaseBuild, obs.PhaseCoalesce,
		obs.PhaseRanges, obs.PhaseColor, obs.PhaseRewrite}
	if got := pl.Names(); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("hybrid pipeline = %v, want %v", got, want)
	}
}

func TestScanCleanAllocation(t *testing.T) {
	fa := alloc(t, pressureSrc, "f", &linscan.Scan{}, machine.NewConfig(14, 8, 12, 8), regalloc.DefaultOptions())
	if len(fa.SlotOf) != 0 {
		t.Fatalf("spilled %d ranges with a full machine", len(fa.SlotOf))
	}
	if fa.Rounds != 1 {
		t.Fatalf("clean scan took %d rounds, want 1", fa.Rounds)
	}
	if fa.Escalated {
		t.Fatal("single-tier scan reported Escalated")
	}
}

func TestScanSpillsUnderPressure(t *testing.T) {
	fa := alloc(t, pressureSrc, "f", &linscan.Scan{}, machine.NewConfig(6, 4, 0, 0), regalloc.DefaultOptions())
	if len(fa.SlotOf) == 0 {
		t.Fatal("expected spills at 6 integer registers")
	}
	if fa.Rounds < 2 {
		t.Fatalf("spilling allocation converged in %d rounds", fa.Rounds)
	}
}

func TestScanSpillByChoice(t *testing.T) {
	// In f, a is live across the call to g but barely used: spillCost 1
	// (one use) < callerCost 2 and < 2×entry, so both benefits are
	// negative and the scan spills it by choice even with registers free.
	stats := obs.NewStats()
	opts := regalloc.DefaultOptions()
	opts.Tracer = stats
	fa := alloc(t, callSrc, "f", &linscan.Scan{}, machine.NewConfig(8, 6, 4, 4), opts)
	if len(fa.SlotOf) != 1 {
		t.Fatalf("SlotOf = %v, want exactly the across-call range spilled", fa.SlotOf)
	}
	if stats.Count(obs.KindSpillChoice) == 0 {
		t.Fatal("no spill-choice event emitted")
	}
}

func TestScanParamHint(t *testing.T) {
	// With no calls and no pressure, parameter a should keep its
	// incoming argument register: PhysReg 0 of the caller-save bank.
	fa := alloc(t, `int f(int a, int b) { return a; } int main() { return f(1, 2); }`,
		"f", &linscan.Scan{}, machine.NewConfig(8, 6, 4, 4), regalloc.DefaultOptions())
	p := fa.Fn.Params[0]
	if got := fa.Colors[p]; got != machine.PhysReg(0) {
		t.Fatalf("param colored %v, want hinted register 0", got)
	}
}

func TestHybridEscalatesOnSpill(t *testing.T) {
	stats := obs.NewStats()
	opts := regalloc.DefaultOptions()
	opts.Tracer = stats
	h := &linscan.Hybrid{Escalate: &regalloc.Chaitin{}}
	fa := alloc(t, pressureSrc, "f", h, machine.NewConfig(6, 4, 0, 0), opts)
	if !fa.Escalated {
		t.Fatal("pressure function did not escalate to coloring")
	}
	if stats.Count(obs.KindEscalate) != 1 {
		t.Fatalf("escalate events = %d, want 1", stats.Count(obs.KindEscalate))
	}
}

func TestHybridStaysInScanTier(t *testing.T) {
	stats := obs.NewStats()
	opts := regalloc.DefaultOptions()
	opts.Tracer = stats
	h := &linscan.Hybrid{Escalate: &regalloc.Chaitin{}}
	fa := alloc(t, pressureSrc, "f", h, machine.NewConfig(14, 8, 12, 8), opts)
	if fa.Escalated {
		t.Fatal("spill-free function escalated")
	}
	if fa.Rounds != 1 {
		t.Fatalf("scan-tier allocation took %d rounds, want 1", fa.Rounds)
	}
	if stats.Count(obs.KindEscalate) != 0 {
		t.Fatal("unexpected escalate event")
	}
}

func TestHybridOverheadBudget(t *testing.T) {
	// A spill-free allocation that still pays save/restore traffic (s
	// and a are live across the call and worth keeping): with an
	// absurdly small overhead budget the hybrid must escalate anyway.
	src := `
int g(int x) { return x + 1; }
int f(int a) {
	int s = a + a;
	g(1);
	s = s + a;
	return s;
}
int main() { return f(5); }`
	h := &linscan.Hybrid{Escalate: &regalloc.Chaitin{}, MaxScanOverhead: 1e-9}
	fa := alloc(t, src, "f", h, machine.NewConfig(8, 6, 4, 4), regalloc.DefaultOptions())
	if !fa.Escalated {
		t.Fatal("overhead budget did not force escalation")
	}
	// The same function under no budget stays in the scan tier.
	h = &linscan.Hybrid{Escalate: &regalloc.Chaitin{}}
	fa = alloc(t, src, "f", h, machine.NewConfig(8, 6, 4, 4), regalloc.DefaultOptions())
	if fa.Escalated {
		t.Fatal("escalated without a budget or spills")
	}
}

// TestScanFallbackAllocate drives Scan.Allocate through a standard
// coloring pipeline (the non-native path) and checks the coloring it
// produces respects interference.
func TestScanFallbackAllocate(t *testing.T) {
	prog, err := compile.Source(pressureSrc)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res, err := interp.Run(prog, interp.Options{Profile: true})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	pf := freq.FromProfile(prog, res.Profile)
	f := prog.FuncByName["f"]
	config := machine.NewConfig(8, 6, 4, 4)
	live := liveness.Compute(f, cfg.New(f))
	var graphs [ir.NumClasses]*interference.Graph
	for c := ir.Class(0); c < ir.NumClasses; c++ {
		graphs[c] = interference.Build(f, live, c)
		graphs[c].Coalesce(false, config.Total(c))
	}
	ranges := liverange.Analyze(f, live, &graphs, pf.ByFunc["f"], nil)
	ctx := &regalloc.ClassContext{
		Fn:     f,
		Class:  ir.ClassInt,
		Graph:  graphs[ir.ClassInt],
		Ranges: ranges,
		Config: config,
	}
	out := (&linscan.Scan{}).Allocate(ctx)
	spilled := make(map[ir.Reg]bool, len(out.Spilled))
	for _, r := range out.Spilled {
		spilled[r] = true
	}
	for _, rep := range ctx.Nodes() {
		col, colored := out.Colors[rep]
		if !colored && !spilled[rep] {
			t.Fatalf("node %v neither colored nor spilled", rep)
		}
		if !colored {
			continue
		}
		if col < 0 || int(col) >= config.Total(ir.ClassInt) {
			t.Fatalf("node %v got out-of-bank color %v", rep, col)
		}
		ctx.Graph.Neighbors(rep, func(nb ir.Reg) {
			if nc, ok := out.Colors[nb]; ok && nc == col {
				t.Fatalf("neighbors %v and %v share color %v", rep, nb, col)
			}
		})
	}
}
