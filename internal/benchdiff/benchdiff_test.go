package benchdiff

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestFlattenLeavesAndMeans(t *testing.T) {
	var doc any
	raw := `{
		"pr": 5,
		"note": "ignored",
		"spill_round": {
			"round1_plus_us_per_op": {
				"fpppp/twoel": {"update": [291.5, 303.1], "seed": [410.6, 407.0]}
			},
			"speedup_update_vs_seed": {"fpppp/twoel": 1.37}
		},
		"mixed": [1, "two", 3]
	}`
	if err := json.Unmarshal([]byte(raw), &doc); err != nil {
		t.Fatal(err)
	}
	flat := Flatten(doc)
	if got := flat["spill_round.round1_plus_us_per_op.fpppp/twoel.update"]; got != 297.3 {
		t.Fatalf("two-run array mean = %g, want 297.3", got)
	}
	if got := flat["spill_round.speedup_update_vs_seed.fpppp/twoel"]; got != 1.37 {
		t.Fatalf("scalar leaf = %g", got)
	}
	if got := flat["pr"]; got != 5 {
		t.Fatalf("pr = %g", got)
	}
	if _, ok := flat["note"]; ok {
		t.Fatal("strings must not flatten")
	}
	// A mixed array indexes its numeric members instead of averaging.
	if flat["mixed.0"] != 1 || flat["mixed.2"] != 3 {
		t.Fatalf("mixed array: %v", flat)
	}
}

func TestDirectionOf(t *testing.T) {
	cases := []struct {
		path string
		want Direction
	}{
		{"spill_round.round1_plus_us_per_op.fpppp/twoel.update", LowerIsBetter},
		{"liveness_solver.sparse_ns_op", LowerIsBetter},
		{"spill_round.speedup_update_vs_seed.fpppp/twoel", HigherIsBetter},
		{"pareto.overhead.li.linscan", LowerIsBetter},
		{"pareto.escalated.li.hybrid", LowerIsBetter},
		{"pr", Neutral},
		// Benchmark paths, as ParseBenchOutput keys them.
		{"SpillRound.fpppp_twoel.rebuild.ns/op", LowerIsBetter},
		{"SpillRound.fpppp_twoel.rebuild.round1+_us/op", LowerIsBetter},
		{"AllocateStrategy.li.linscan.overhead", LowerIsBetter},
		{"AllocateStrategy.li.hybrid.escalated", LowerIsBetter},
		{"BatchAllocate.calldag.dag.sched_speedup_x4", HigherIsBetter},
		{"BatchAllocate.calldag.dag.ns/op", LowerIsBetter},
		{"BatchAllocate.calldag.dag.ready_peak", Neutral},
	}
	for _, c := range cases {
		if got := DirectionOf(c.path); got != c.want {
			t.Errorf("DirectionOf(%s) = %d, want %d", c.path, got, c.want)
		}
	}
}

// TestCompareFlagsInjectedRegression is the acceptance test: a wall
// time pushed 30% past the baseline must fail the gate (nonzero exit),
// the same value inside the noise band must pass.
func TestCompareFlagsInjectedRegression(t *testing.T) {
	base := map[string]float64{
		"spill_round.round1_plus_us_per_op.fpppp/twoel.update": 300,
		"spill_round.speedup_update_vs_seed.fpppp/twoel":       1.4,
		"pr": 5,
	}
	cur := map[string]float64{
		"spill_round.round1_plus_us_per_op.fpppp/twoel.update": 390, // +30% wall time
		"spill_round.speedup_update_vs_seed.fpppp/twoel":       1.4,
		"pr": 6,
	}
	rep := Compare(base, cur, 0.10)
	regs := rep.Regressions()
	if len(regs) != 1 || regs[0].Path != "spill_round.round1_plus_us_per_op.fpppp/twoel.update" {
		t.Fatalf("regressions = %+v, want exactly the slowed metric", regs)
	}
	if rep.ExitCode() != 1 {
		t.Fatalf("exit code = %d, want 1 on regression", rep.ExitCode())
	}
	// The neutral "pr" delta must never flag.
	for _, d := range rep.Deltas {
		if d.Path == "pr" && d.Regression {
			t.Fatal("neutral metric flagged as regression")
		}
	}

	// Inside the noise band the same direction of change is fine.
	cur["spill_round.round1_plus_us_per_op.fpppp/twoel.update"] = 320 // +6.7%
	rep = Compare(base, cur, 0.10)
	if rep.ExitCode() != 0 {
		t.Fatalf("noise-band delta flagged: %+v", rep.Regressions())
	}
}

func TestCompareFlagsSpeedupDrop(t *testing.T) {
	base := map[string]float64{"speedup": 1.4}
	cur := map[string]float64{"speedup": 1.0}
	if rep := Compare(base, cur, 0.10); len(rep.Regressions()) != 1 {
		t.Fatal("a speedup drop must regress")
	}
	cur["speedup"] = 1.6
	if rep := Compare(base, cur, 0.10); len(rep.Regressions()) != 0 {
		t.Fatal("a speedup gain must not regress")
	}
}

func TestCompareTracksOneSidedMetrics(t *testing.T) {
	rep := Compare(map[string]float64{"a_ns": 1, "gone_ns": 2},
		map[string]float64{"a_ns": 1, "new_ns": 3}, 0.1)
	if len(rep.BaseOnly) != 1 || rep.BaseOnly[0] != "gone_ns" {
		t.Fatalf("BaseOnly = %v", rep.BaseOnly)
	}
	if len(rep.CurOnly) != 1 || rep.CurOnly[0] != "new_ns" {
		t.Fatalf("CurOnly = %v", rep.CurOnly)
	}
}

func TestParseBenchOutput(t *testing.T) {
	out := `goos: linux
goarch: amd64
pkg: repro
BenchmarkSpillRound/fpppp_twoel/rebuild-8        	    2000	    612803 ns/op	       295.1 round1+_us/op
BenchmarkSpillRound/fpppp_twoel/rebuild-8        	    2000	    612805 ns/op	       296.9 round1+_us/op
BenchmarkSpillRound/tomcatv_main/rebuild-8       	    2000	    901234 ns/op	       470.0 round1+_us/op
BenchmarkAllocateProgram/prep-cache-8            	     100	  11939553 ns/op	 4567 B/op	      12 allocs/op
BenchmarkAllocateStrategy/li/hybrid-8            	     100	    454784 ns/op	         1.000 escalated	     26468 overhead
BenchmarkBatchAllocate/calldag/dag               	     100	   3860876 ns/op	        20.00 ready_peak	         3.249 sched_speedup_x4
PASS
`
	got, err := ParseBenchOutput(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"SpillRound.fpppp_twoel.rebuild.ns/op":          612804, // repeat runs average
		"SpillRound.fpppp_twoel.rebuild.round1+_us/op":  296,
		"SpillRound.tomcatv_main.rebuild.ns/op":         901234,
		"SpillRound.tomcatv_main.rebuild.round1+_us/op": 470,
		"AllocateProgram.prep-cache.ns/op":              11939553,
		"AllocateProgram.prep-cache.B/op":               4567,
		"AllocateProgram.prep-cache.allocs/op":          12,
		"AllocateStrategy.li.hybrid.ns/op":              454784,
		"AllocateStrategy.li.hybrid.escalated":          1,
		"AllocateStrategy.li.hybrid.overhead":           26468,
		// Without a -cpu suffix (GOMAXPROCS=1) the name is kept whole.
		"BatchAllocate.calldag.dag.ns/op":            3860876,
		"BatchAllocate.calldag.dag.ready_peak":       20,
		"BatchAllocate.calldag.dag.sched_speedup_x4": 3.249,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %g, want %g", k, got[k], v)
		}
	}
	if len(got) != len(want) {
		t.Errorf("got %d metrics, want %d: %v", len(got), len(want), got)
	}
}

// TestBenchPattern: a baseline's top-level names pick the benchmarks
// -bench mode runs. The checked-in baseline must name exactly the
// benchmarks CI gates, and the pattern must not run a benchmark whose
// name merely starts with one of them.
func TestBenchPattern(t *testing.T) {
	base, err := LoadFlat(filepath.Join("..", "..", "BENCH_10.json"))
	if err != nil {
		t.Fatal(err)
	}
	pat := BenchPattern(base)
	if want := "^Benchmark(AllocateProgram|AllocateStrategy|BatchAllocate|ServerAllocate|SpillRound)$"; pat != want {
		t.Fatalf("BenchPattern = %q, want %q", pat, want)
	}
	re := regexp.MustCompile(pat)
	for name, want := range map[string]bool{
		"BenchmarkSpillRound":      true,
		"BenchmarkBatchAllocate":   true,
		"BenchmarkSpillRoundX":     false,
		"BenchmarkAllocateProgram": true,
		"BenchmarkAllocate":        false,
	} {
		if re.MatchString(name) != want {
			t.Errorf("%s matches %q: %v, want %v", name, pat, !want, want)
		}
	}
}

// TestRunExitCodeFailsOnMissingMetric: in -bench mode the baseline
// chose which benchmarks ran, so a baseline metric the run lacks (a
// renamed sub-benchmark or unit) fails the gate even with no
// regression; two-file mode only lists it.
func TestRunExitCodeFailsOnMissingMetric(t *testing.T) {
	base := map[string]float64{
		"SpillRound.fpppp_twoel.rebuild.ns/op":         600000,
		"SpillRound.fpppp_twoel.rebuild.round1+_us/op": 300,
	}
	cur := map[string]float64{
		"SpillRound.fpppp_twoel.rebuild.ns/op":        600000,
		"SpillRound.fpppp_twoel.rebuild.round1+_us/o": 300, // renamed unit
	}
	rep := Compare(base, cur, 0.5)
	if rep.ExitCode() != 0 {
		t.Fatalf("ExitCode = %d, want 0: no metric regressed", rep.ExitCode())
	}
	if rep.RunExitCode() != 1 {
		t.Fatal("RunExitCode must fail when the run lacks a baseline metric")
	}
	cur["SpillRound.fpppp_twoel.rebuild.round1+_us/op"] = 300
	if rep := Compare(base, cur, 0.5); rep.RunExitCode() != 0 {
		t.Fatalf("RunExitCode = %d with every baseline metric present", rep.RunExitCode())
	}
}

// TestDiffAgainstCheckedInBaseline exercises the exact CI shape: the
// repo's BENCH_10.json baseline vs. a fresh SpillRound run as `-o`
// writes it (ParseBenchOutput's keys, flat), via files.
func TestDiffAgainstCheckedInBaseline(t *testing.T) {
	baseline := filepath.Join("..", "..", "BENCH_10.json")
	flat, err := LoadFlat(baseline)
	if err != nil {
		t.Fatal(err)
	}
	// About 3x the baseline on both units: grossly regressed.
	run, err := ParseBenchOutput(strings.NewReader(
		"BenchmarkSpillRound/fpppp_twoel/rebuild-2   100   1640000 ns/op   1036 round1+_us/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	for key := range run {
		if _, ok := flat[key]; !ok {
			t.Fatalf("baseline lacks the parsed key %s", key)
		}
	}

	curFile := filepath.Join(t.TempDir(), "cur.json")
	raw, _ := json.Marshal(run)
	if err := os.WriteFile(curFile, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := DiffFiles(baseline, curFile, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Deltas) != len(run) || len(rep.Regressions()) != len(run) {
		t.Fatalf("%d of %d parsed metrics compared, %d regressed; want all", len(rep.Deltas), len(run), len(rep.Regressions()))
	}
	if rep.ExitCode() != 1 {
		t.Fatal("3x slowdown over baseline must exit nonzero")
	}
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "REGRESSION") {
		t.Fatalf("report text lacks the REGRESSION marker:\n%s", buf.String())
	}
}

func TestZeroBaselineDelta(t *testing.T) {
	rep := Compare(map[string]float64{"x_ns": 0}, map[string]float64{"x_ns": 5}, 0.1)
	if !math.IsInf(rep.Deltas[0].Pct, 1) || !rep.Deltas[0].Regression {
		t.Fatalf("zero baseline growing must regress: %+v", rep.Deltas[0])
	}
}
