// benchdiff is the benchmark regression gate: it compares two
// measurement files (or a fresh benchmark run against a checked-in
// baseline) and exits nonzero when a metric moved the wrong way past
// the noise threshold. CI runs it as a smoke step against BENCH_10.json.
//
// Two-file mode diffs every numeric leaf the files share:
//
//	benchdiff -threshold 0.2 BENCH_6.json BENCH_7.json
//
// Run mode executes `go test -bench` itself on the benchmarks the
// baseline names at its top level, keys every reported metric by the
// benchmark's own path (benchmark, sub-benchmarks, unit: see
// benchdiff.ParseBenchOutput) and diffs those against the baseline's
// numbers at the same paths. Custom units gate like wall times, such
// as AllocateStrategy's "overhead" and "escalated" (the pareto sweep's
// quality axes) and BatchAllocate's "sched_speedup_x4" (the call-graph
// schedule's available parallelism). A metric the run reports but the
// baseline lacks is printed as a WARNING; a baseline metric the run
// did not report fails the run, since only a renamed or dropped
// sub-benchmark or unit can cause it:
//
//	benchdiff -bench -baseline BENCH_10.json -benchtime 200x -threshold 0.5 -o current.json
//
// The -o file holds the run's metrics under those same paths, so
// `benchdiff BENCH_10.json current.json` diffs it again later. The
// threshold is relative (0.5 = 50%); run mode wants a generous one,
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
		bench     = flag.Bool("bench", false, "run `go test -bench` on the baseline's benchmarks and diff against -baseline instead of diffing two files")
		baseline  = flag.String("baseline", "", "baseline JSON file for -bench mode")
		benchtime = flag.String("benchtime", "200x", "go test -benchtime for -bench mode")
		out       = flag.String("o", "", "write the current measurements as flat JSON to this file")
		threshold = flag.Float64("threshold", 0.2, "relative noise band; larger deltas against the metric direction regress")
	)
	flag.Parse()

	var rep *benchdiff.Report
	var err error
	if *bench {
		rep, err = runBenchMode(*baseline, *benchtime, *out, *threshold)
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
	if *bench {
		return rep.RunExitCode()
	}
	return rep.ExitCode()
}

func runBenchMode(baseline, benchtime, out string, threshold float64) (*benchdiff.Report, error) {
	if baseline == "" {
		return nil, fmt.Errorf("-bench mode needs -baseline")
	}
	base, err := benchdiff.LoadFlat(baseline)
	if err != nil {
		return nil, err
	}
	if len(base) == 0 {
		return nil, fmt.Errorf("%s: no numeric metrics to gate", baseline)
	}
	cmd := exec.Command("go", "test", "-run", "^$", "-bench", benchdiff.BenchPattern(base), "-benchtime", benchtime, ".")
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go test -bench: %w", err)
	}
	os.Stdout.Write(raw)
	cur, err := benchdiff.ParseBenchOutput(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	if out != "" {
		doc, err := json.MarshalIndent(cur, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(out, append(doc, '\n'), 0o644); err != nil {
			return nil, err
		}
	}
	return benchdiff.Compare(base, cur, threshold), nil
}
