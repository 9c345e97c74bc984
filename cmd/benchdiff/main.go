// benchdiff is the benchmark regression gate: it compares two
// measurement files (or a fresh benchmark run against a checked-in
// baseline) and exits nonzero when a metric moved the wrong way past
// the noise threshold. CI runs it as a smoke step against BENCH_9.json.
//
// Two-file mode diffs every numeric leaf the files share:
//
//	benchdiff -threshold 0.2 BENCH_6.json BENCH_7.json
//
// Run mode executes `go test -bench` itself, canonicalizes the
// SpillRound, AllocateProgram, AllocateStrategy, ServerAllocate, and
// BatchAllocate metrics — including AllocateStrategy's custom
// "overhead" and "escalated" units, which gate the pareto sweep's
// quality axes, and BatchAllocate's "sched_speedup_x4", which gates
// the call-graph schedule's available parallelism — to the baseline's
// paths, and diffs those. Metrics the baseline does not
// carry are printed as explicit WARNINGs instead of passing silently:
//
//	benchdiff -bench -baseline BENCH_9.json -benchtime 200x -threshold 0.5 -o current.json
//
// The threshold is relative (0.5 = 50%); run mode wants a generous one,
// since short -benchtime runs on shared CI hardware are noisy.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"

	"repro/internal/benchdiff"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		bench     = flag.Bool("bench", false, "run `go test -bench` and diff against -baseline instead of diffing two files")
		baseline  = flag.String("baseline", "", "baseline JSON file for -bench mode")
		pattern   = flag.String("pattern", "BenchmarkSpillRound$|BenchmarkAllocateProgram$|BenchmarkAllocateStrategy$|BenchmarkServerAllocate$|BenchmarkBatchAllocate$", "benchmark regexp for -bench mode")
		benchtime = flag.String("benchtime", "200x", "go test -benchtime for -bench mode")
		pkg       = flag.String("pkg", ".", "package to benchmark in -bench mode")
		out       = flag.String("o", "", "write the current measurements as flat JSON to this file")
		threshold = flag.Float64("threshold", 0.2, "relative noise band; larger deltas against the metric direction regress")
	)
	flag.Parse()

	var rep *benchdiff.Report
	var err error
	if *bench {
		rep, err = runBenchMode(*baseline, *pattern, *benchtime, *pkg, *out, *threshold)
	} else {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchdiff [flags] baseline.json current.json  (or -bench -baseline file)")
			flag.PrintDefaults()
			return 2
		}
		rep, err = benchdiff.DiffFiles(flag.Arg(0), flag.Arg(1), *threshold)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		return 2
	}
	if err := rep.WriteText(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		return 2
	}
	return rep.ExitCode()
}

func runBenchMode(baseline, pattern, benchtime, pkg, out string, threshold float64) (*benchdiff.Report, error) {
	if baseline == "" {
		return nil, fmt.Errorf("-bench mode needs -baseline")
	}
	cmd := exec.Command("go", "test", "-run", "^$", "-bench", pattern, "-benchtime", benchtime, pkg)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go test -bench: %w", err)
	}
	os.Stdout.Write(raw)
	parsed, err := benchdiff.ParseBenchOutput(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	cur := benchdiff.Canonicalize(parsed)
	if out != "" {
		doc, err := json.MarshalIndent(cur, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(out, append(doc, '\n'), 0o644); err != nil {
			return nil, err
		}
	}
	base, err := benchdiff.LoadFlat(baseline)
	if err != nil {
		return nil, err
	}
	// Only the sections the fresh run re-measures can gate; everything
	// else in the baseline would show up as baseline-only noise.
	base = benchdiff.Restrict(base,
		"spill_round.round1_plus_us_per_op.",
		"spill_round.ns_per_op.",
		"allocate_program.ns_per_op.",
		"allocate_strategy.ns_per_op.",
		"pareto.overhead.",
		"pareto.escalated.",
		"server_allocate.ns_per_op.",
		"batch.ns_per_op.",
		"batch.sched_speedup_x4.",
		"batch.ready_peak.")
	return benchdiff.Compare(base, cur, threshold), nil
}
