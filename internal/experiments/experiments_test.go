package experiments_test

import (
	"io"
	"strings"
	"testing"

	"repro"
	"repro/internal/experiments"
)

// env is shared across tests: compiling and profiling the suite once.
var env = experiments.NewEnv()

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"ablation-callee", "ablation-coalesce", "ablation-key",
		"ablation-priority", "ablation-spillheur",
		"fig10", "fig11", "fig2", "fig6", "fig7", "fig9",
		"interproc", "pareto", "pareto-smoke", "tab2", "tab3", "tab4",
	}
	all := experiments.All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Errorf("experiment %d = %s, want %s", i, e.ID, want[i])
		}
		if e.Title == "" || e.Run == nil {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
	if experiments.ByID("fig2") == nil || experiments.ByID("nope") != nil {
		t.Error("ByID broken")
	}
}

// TestFigure2Shape pins the headline observation: the base allocator's
// spill cost falls to (near) zero as registers are added while its
// call cost persists — and for eqntott MORE registers INCREASE total
// overhead.
func TestFigure2Shape(t *testing.T) {
	rows, err := experiments.CostDecomposition(env, "eqntott", callcost.Chaitin())
	if err != nil {
		t.Fatal(err)
	}
	first, last := rows[0], rows[len(rows)-1]
	if first.Config.String() != "(6,4,0,0)" {
		t.Fatalf("sweep starts at %s", first.Config)
	}
	if first.Cost.Spill == 0 {
		t.Error("expected spilling at the minimum configuration")
	}
	if last.Cost.Spill > first.Cost.Spill/10 {
		t.Errorf("spill did not collapse: %0.f -> %.0f", first.Cost.Spill, last.Cost.Spill)
	}
	if first.Cost.Caller == 0 {
		t.Error("caller-save cost should dominate at (6,4,0,0)")
	}
	if last.Cost.Total() <= first.Cost.Total() {
		t.Errorf("eqntott base should get WORSE with more registers: %.0f -> %.0f",
			first.Cost.Total(), last.Cost.Total())
	}
}

// TestFigure7Headline pins the paper's headline factor: improved
// Chaitin removes a large multiple of the base allocator's overhead on
// ear and eqntott (the paper reports 45x and 66x).
func TestFigure7Headline(t *testing.T) {
	for _, prog := range []string{"ear", "eqntott"} {
		base, err := experiments.CostDecomposition(env, prog, callcost.Chaitin())
		if err != nil {
			t.Fatal(err)
		}
		impr, err := experiments.CostDecomposition(env, prog, callcost.ImprovedAll())
		if err != nil {
			t.Fatal(err)
		}
		last := len(base) - 1
		ratio := callcost.Ratio(base[last].Cost.Total(), impr[last].Cost.Total())
		if ratio < 10 {
			t.Errorf("%s: full-machine base/improved = %.1f, want a large multiple", prog, ratio)
		}
		// Improved never worse than base anywhere on the sweep.
		for i := range base {
			if impr[i].Cost.Total() > base[i].Cost.Total()*1.02+1 {
				t.Errorf("%s at %s: improved %.0f exceeds base %.0f", prog,
					base[i].Config, impr[i].Cost.Total(), base[i].Cost.Total())
			}
		}
	}
}

// TestFigure6Classes pins the four program classes of §7.
func TestFigure6Classes(t *testing.T) {
	get := func(prog string) []experiments.Fig6Row {
		rows, err := experiments.ImprovementRatios(env, prog, true)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	maxRatio := func(rows []experiments.Fig6Row, col int) float64 {
		m := 0.0
		for _, r := range rows {
			if r.Ratio[col] > m {
				m = r.Ratio[col]
			}
		}
		return m
	}
	// Column indices per Fig6Combos: 0=SC 1=SC+PR 2=SC+BS 3=SC+BS+PR.
	// Class 4: tomcatv — one call-free function, everything flat at 1.
	for _, r := range get("tomcatv") {
		for _, v := range r.Ratio {
			if v < 0.99 || v > 1.01 {
				t.Errorf("tomcatv should be flat, got %v at %s", v, r.Config)
			}
		}
	}
	// Class 2: sc and li — storage-class analysis alone is a clear win.
	for _, prog := range []string{"sc", "li"} {
		if m := maxRatio(get(prog), 0); m < 1.2 {
			t.Errorf("%s: SC alone tops out at %.2f, expected a dramatic improvement", prog, m)
		}
	}
	// Class 1: ear and nasa7 — the combination keeps adding.
	for _, prog := range []string{"ear", "nasa7"} {
		rows := get(prog)
		if m := maxRatio(rows, 3); m <= maxRatio(rows, 0) {
			t.Errorf("%s: SC+BS+PR (%.2f) should beat SC alone (%.2f) somewhere",
				prog, m, maxRatio(rows, 0))
		}
	}
	// All ratios are >= ~1: the improvements never hurt.
	for _, prog := range experiments.Fig6Programs {
		for _, r := range get(prog) {
			for ci, v := range r.Ratio {
				if v < 0.9 {
					t.Errorf("%s %s combo %d: ratio %.2f < 1 (improvement hurt)", prog, r.Config, ci, v)
				}
			}
		}
	}
}

// TestOptimisticTables pins Tables 2-3: optimistic coloring barely
// moves the needle for most programs (entries 1.00) and matters most
// for fpppp.
func TestOptimisticTables(t *testing.T) {
	cfg := callcost.NewConfig(6, 4, 2, 2)
	ones := 0
	progs := []string{"alvinn", "compress", "ear", "li", "tomcatv", "gcc", "sc", "spice"}
	for _, prog := range progs {
		r, err := experiments.OptimisticRatio(env, prog, cfg, true)
		if err != nil {
			t.Fatal(err)
		}
		if r > 0.99 && r < 1.01 {
			ones++
		}
	}
	if ones < len(progs)/2 {
		t.Errorf("optimistic changed most programs (%d/%d unchanged); the paper finds it mostly neutral",
			ones, len(progs))
	}
	// fpppp, static, mid-size: the one place optimistic shines.
	shines := false
	for _, cfg := range []callcost.Config{
		callcost.NewConfig(6, 4, 4, 4), callcost.NewConfig(8, 6, 6, 6), callcost.FullMachine(),
	} {
		r, err := experiments.OptimisticRatio(env, "fpppp", cfg, false)
		if err != nil {
			t.Fatal(err)
		}
		if r > 1.02 {
			shines = true
		}
	}
	if !shines {
		t.Error("optimistic coloring should visibly help fpppp somewhere (the paper's 36% case)")
	}
}

// TestFigure10Shape: improved Chaitin at least matches priority-based
// coloring across the suite, and clearly beats it on the class the
// paper calls out (ear, sc, nasa7).
func TestFigure10Shape(t *testing.T) {
	for _, prog := range []string{"ear", "sc", "nasa7"} {
		rows, err := experiments.PriorityComparison(env, prog, true)
		if err != nil {
			t.Fatal(err)
		}
		beats := false
		for _, r := range rows {
			if r.Improved > r.Priority*1.05 {
				beats = true
			}
			if r.Priority > r.Improved*1.5+0.5 {
				t.Errorf("%s at %s: priority (%.2f) far ahead of improved (%.2f)",
					prog, r.Config, r.Priority, r.Improved)
			}
		}
		if !beats {
			t.Errorf("%s: improved never clearly beats priority-based", prog)
		}
	}
}

// TestFigure11Shape: the CBH model trails improved Chaitin and even
// falls below the BASE model somewhere (ratio < 1), the paper's
// central criticism of CBH.
func TestFigure11Shape(t *testing.T) {
	sawBelowBase := false
	for _, prog := range []string{"ear", "li", "eqntott"} {
		rows, err := experiments.CBHComparison(env, prog, true)
		if err != nil {
			t.Fatal(err)
		}
		trails := false
		for _, r := range rows {
			if r.CBH < r.Improved*0.95 {
				trails = true
			}
			if r.CBH < 0.999 {
				sawBelowBase = true
			}
		}
		if !trails {
			t.Errorf("%s: CBH never trails improved Chaitin", prog)
		}
	}
	if !sawBelowBase {
		t.Error("CBH should fall below the base model somewhere (over-constrained coloring)")
	}
}

// TestTable4Speedups: improved Chaitin is at least as fast as
// optimistic coloring on every Table 4 program at the full machine.
func TestTable4Speedups(t *testing.T) {
	rows, err := experiments.Speedups(env, experiments.Tab4Programs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	positive := 0
	for _, r := range rows {
		if r.SpeedupPercent < -0.5 {
			t.Errorf("%s: improved slower than optimistic by %.1f%%", r.Program, -r.SpeedupPercent)
		}
		if r.SpeedupPercent > 0.5 {
			positive++
		}
	}
	if positive < 3 {
		t.Errorf("only %d programs sped up; the paper reports speedups on all five", positive)
	}
}

// TestAblations: the paper's preferred choices win (or tie) on average.
func TestAblations(t *testing.T) {
	calleeRows, err := experiments.CalleeModelAblation(env)
	if err != nil {
		t.Fatal(err)
	}
	sum, n := 0.0, 0
	for _, r := range calleeRows {
		for _, v := range r.Ratio {
			sum += v
			n++
		}
	}
	if avg := sum / float64(n); avg < 0.98 {
		t.Errorf("shared callee model loses on average (%.3f); the paper finds it never worse", avg)
	}

	// Key strategies: compare aggregate overhead (weighting by
	// magnitude) — per-program ratios on near-zero overheads are noise.
	keyRows, err := experiments.KeyStrategyAblation(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(keyRows) == 0 {
		t.Fatal("no key ablation rows")
	}
	var s1, s2 float64
	for _, r := range keyRows {
		p, err := env.Get(r.Program)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []callcost.Config{callcost.NewConfig(6, 4, 1, 1), callcost.NewConfig(6, 4, 3, 3), callcost.NewConfig(8, 6, 4, 4), callcost.FullMachine()} {
			delta := callcost.ImprovedAll()
			maxk := callcost.ImprovedAll()
			maxk.Key = 1 // core.KeyMax
			od, err := p.Overhead(delta, cfg, p.Dynamic)
			if err != nil {
				t.Fatal(err)
			}
			om, err := p.Overhead(maxk, cfg, p.Dynamic)
			if err != nil {
				t.Fatal(err)
			}
			s2 += od.Total()
			s1 += om.Total()
		}
	}
	if s2 > s1*1.02 {
		t.Errorf("key strategy 2 loses in aggregate: delta=%.0f max=%.0f", s2, s1)
	}

	prioRows, err := experiments.PriorityOrderingAblation(env)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range prioRows {
		if r.Sorting < 0 || r.Removing < 0 || r.SortUnc < 0 {
			t.Error("negative overhead")
		}
	}
}

// TestOptimisticIntegration pins the paper's §8 finding: incorporating
// optimistic coloring into the improved allocator leaves the results
// almost identical to improved alone under dynamic weights (the
// storage-class spilling undoes optimistic's recoveries).
func TestOptimisticIntegration(t *testing.T) {
	cfg := callcost.NewConfig(8, 6, 4, 4)
	for _, prog := range []string{"ear", "li", "sc", "eqntott", "compress", "tomcatv"} {
		p, err := env.Get(prog)
		if err != nil {
			t.Fatal(err)
		}
		impr, err := p.Overhead(callcost.ImprovedAll(), cfg, p.Dynamic)
		if err != nil {
			t.Fatal(err)
		}
		both, err := p.Overhead(callcost.ImprovedOptimistic(), cfg, p.Dynamic)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := impr.Total()*0.9-1, impr.Total()*1.1+1
		if both.Total() < lo || both.Total() > hi {
			t.Errorf("%s: improved+optimistic %.0f diverges from improved %.0f", prog, both.Total(), impr.Total())
		}
	}
}

// TestEveryExperimentRuns smoke-tests the printing path of each
// experiment.
func TestInterprocSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	rows, err := experiments.InterprocSweep(env, callcost.NewConfig(8, 6, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	improved := 0
	hits := 0
	for _, r := range rows {
		if len(r.Static) != len(experiments.InterprocStrategies) ||
			len(r.Interproc) != len(experiments.InterprocStrategies) {
			t.Fatalf("%s: row has %d/%d entries", r.Program, len(r.Static), len(r.Interproc))
		}
		if r.Interproc[0] < r.Static[0] {
			improved++
		}
		hits += r.SummaryHits
	}
	if improved < 3 {
		t.Errorf("interprocedural costs improved only %d programs, want at least 3", improved)
	}
	if hits == 0 {
		t.Error("no call site ever consumed a callee summary")
	}
}

func TestEveryExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	for _, e := range experiments.All() {
		var sb strings.Builder
		if err := e.Run(env, &sb); err != nil {
			t.Errorf("%s: %v", e.ID, err)
			continue
		}
		if len(sb.String()) < 100 {
			t.Errorf("%s produced almost no output", e.ID)
		}
	}
}

// TestUnknownBenchmark covers the error path.
func TestUnknownBenchmark(t *testing.T) {
	if _, err := env.Get("not-a-benchmark"); err == nil {
		t.Error("expected error for unknown benchmark")
	}
	_ = io.Discard
}
