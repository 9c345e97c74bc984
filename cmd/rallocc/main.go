// Command rallocc is the compiler driver of the reproduction: it
// compiles an MC source file, register-allocates it with a selectable
// strategy on a selectable register configuration, and reports the
// register-allocation overhead.
//
// Usage:
//
//	rallocc [flags] file.mc
//
//	-strategy  chaitin | optimistic | improved | sc | sc+bs | priority | cbh | linscan | hybrid
//	-config    Ri,Rf,Ei,Ef   (default 8,6,4,4)
//	-static    use estimated frequencies instead of a profiling run
//	-run       execute the allocated program and verify the result
//	-ir        print the IR after allocation (with spill code)
//	-S         emit MIPS-flavored assembly
//	-explain   print the allocation narrative (every decision and why)
//	-trace     write the allocator's JSONL event log to a file
//	-stats     print phase timings, decision counters, and the overhead breakdown
//	-sweep     report overhead across the paper's register sweep
//	-parallel  allocation workers (0 = all cores, 1 = sequential); a task is
//	           one function, or one call-graph component under -interproc
//	-interproc whole-program batch allocation: callees first over the call
//	           graph, callers consume realized callee-save summaries
//	-noprepcache  rebuild round-0 artifacts per allocation instead of sharing them
//	-passes    print the resolved allocation pass pipeline and exit
//	-metrics   enable telemetry and print the metrics registry after the run
//	-listen    serve /metrics, /spans, and pprof on this address during the run
//
// -explain, -trace, and -stats are three views of the same event
// stream (package obs): the narrative is the human rendering, the
// JSONL log the machine one, and -stats the aggregation — they can
// never disagree, because they observe identical events.
//
// -metrics and -listen tap the telemetry layer instead (package
// telemetry): cheap always-on counters and histograms fed by the
// allocator's instrumentation sites, plus the span tree derived from
// the event stream. With -listen the process stays alive after the
// run (Ctrl-C to exit) so the endpoints can be inspected.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"

	"repro"
	"repro/internal/freq"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/telemetry"
)

func main() {
	strategy := flag.String("strategy", "improved", "allocation strategy")
	config := flag.String("config", "8,6,4,4", "register configuration Ri,Rf,Ei,Ef")
	static := flag.Bool("static", false, "use static frequency estimates")
	run := flag.Bool("run", false, "execute the allocated program")
	printIR := flag.Bool("ir", false, "print the allocated IR")
	printAsm := flag.Bool("S", false, "emit MIPS-flavored assembly")
	explain := flag.Bool("explain", false, "print the allocation narrative")
	traceFile := flag.String("trace", "", "write the JSONL allocator event log to `file`")
	stats := flag.Bool("stats", false, "print phase timings and decision counters")
	sweep := flag.Bool("sweep", false, "report overhead across the register sweep")
	parallel := flag.Int("parallel", 0, "allocation workers, one task per function or per call-graph component under -interproc (0 = all cores, 1 = sequential); output is identical either way")
	interproc := flag.Bool("interproc", false, "whole-program batch allocation with interprocedural callee-save costs (callees first over the call graph)")
	noPrepCache := flag.Bool("noprepcache", false, "disable the shared round-0 prep cache, for A/B timing")
	passes := flag.Bool("passes", false, "print the resolved allocation pass pipeline and exit")
	metricsDump := flag.Bool("metrics", false, "enable telemetry and print the metrics registry (JSON) after the run")
	listen := flag.String("listen", "", "serve /metrics, /spans, and /debug/pprof on `addr` (e.g. localhost:6060); stays alive after the run")
	flag.Parse()

	if *passes {
		if err := printPasses(*strategy); err != nil {
			fmt.Fprintf(os.Stderr, "rallocc: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: rallocc [flags] file.mc")
		flag.Usage()
		os.Exit(2)
	}
	opts := options{
		strategy: *strategy, config: *config, static: *static, run: *run,
		printIR: *printIR, printAsm: *printAsm, explain: *explain,
		traceFile: *traceFile, stats: *stats, sweep: *sweep,
		parallel: *parallel, noPrepCache: *noPrepCache,
		interproc: *interproc,
		metrics:   *metricsDump, listen: *listen,
	}
	if opts.metrics || opts.listen != "" {
		telemetry.Enable(nil)
	}
	if opts.listen != "" {
		opts.spans = telemetry.NewSpanRecorder(0)
		srv, err := telemetry.Serve(opts.listen, nil, opts.spans)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rallocc: -listen: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "rallocc: telemetry on http://%s (/metrics, /spans, /debug/pprof)\n", srv.Addr)
	}
	if err := mainErr(flag.Arg(0), opts); err != nil {
		fmt.Fprintf(os.Stderr, "rallocc: %v\n", err)
		os.Exit(1)
	}
	if opts.spans != nil {
		opts.spans.Flush()
	}
	if opts.metrics {
		fmt.Println("\ntelemetry metrics:")
		if b := telemetry.B(); b != nil {
			b.Reg.Snapshot().WriteJSON(os.Stdout) //nolint:errcheck // best-effort dump
		}
	}
	if opts.listen != "" {
		fmt.Fprintln(os.Stderr, "rallocc: run finished; telemetry still serving — Ctrl-C to exit")
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt)
		<-ch
	}
}

type options struct {
	strategy, config, traceFile    string
	static, run, printIR, printAsm bool
	explain, stats, sweep          bool
	parallel                       int
	noPrepCache                    bool
	interproc                      bool
	metrics                        bool
	listen                         string
	spans                          *telemetry.SpanRecorder
}

func parseStrategy(name string) (callcost.Strategy, error) {
	switch name {
	case "chaitin", "base":
		return callcost.Chaitin(), nil
	case "optimistic":
		return callcost.Optimistic(), nil
	case "improved", "sc+bs+pr":
		return callcost.ImprovedAll(), nil
	case "sc":
		return callcost.Improved(true, false, false), nil
	case "sc+bs":
		return callcost.Improved(true, true, false), nil
	case "priority":
		return callcost.Priority(callcost.PrioritySorting), nil
	case "cbh":
		return callcost.CBH(), nil
	case "linscan":
		return callcost.LinearScan(), nil
	case "hybrid":
		return callcost.HybridTiered(), nil
	}
	return nil, fmt.Errorf("unknown strategy %q", name)
}

// printPasses renders the pass pipeline the chosen strategy would run
// under the default options: every stage in order, with the analyses
// each one preserves (what the runner keeps valid after the pass; the
// spill rewrite preserves nothing, which is why a spilling round forces
// recomputation).
func printPasses(strategy string) error {
	strat, err := parseStrategy(strategy)
	if err != nil {
		return err
	}
	pl := callcost.PipelineFor(strat, callcost.DefaultAllocOptions())
	fmt.Printf("allocation pipeline for strategy %s:\n", strat.Name())
	for i, p := range pl.Passes() {
		fmt.Printf("  %d. %-14s preserves %s\n", i+1, p.Name(), p.Preserves())
	}
	fmt.Printf("\n%s\n", pl)
	fmt.Println("\nthe runner repeats the pipeline until the color pass spills nothing;")
	fmt.Println("a skipped pass (spill-rewrite on a converged round) emits no phase events.")
	return nil
}

func parseConfig(s string) (callcost.Config, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 4 {
		return callcost.Config{}, fmt.Errorf("config must be Ri,Rf,Ei,Ef, got %q", s)
	}
	var v [4]int
	for i, p := range parts {
		if _, err := fmt.Sscanf(strings.TrimSpace(p), "%d", &v[i]); err != nil {
			return callcost.Config{}, fmt.Errorf("bad config element %q", p)
		}
	}
	return callcost.NewConfig(v[0], v[1], v[2], v[3]), nil
}

// sinks bundles the tracing sinks requested on the command line.
type sinks struct {
	narrative *bytes.Buffer // -explain
	traceOut  *os.File      // -trace
	stats     *callcost.StatsSink
	tracer    callcost.Tracer
}

func buildSinks(o options) (*sinks, error) {
	s := &sinks{}
	var ts []callcost.Tracer
	if o.explain {
		s.narrative = &bytes.Buffer{}
		ts = append(ts, callcost.NewNarrativeSink(s.narrative))
	}
	if o.traceFile != "" {
		f, err := os.Create(o.traceFile)
		if err != nil {
			return nil, err
		}
		s.traceOut = f
		ts = append(ts, callcost.NewJSONLSink(f))
	}
	if o.stats {
		s.stats = callcost.NewStatsSink()
		ts = append(ts, s.stats)
	}
	if o.spans != nil {
		ts = append(ts, o.spans)
	}
	if len(ts) > 0 {
		s.tracer = callcost.MultiSink(ts...)
	}
	return s, nil
}

func (s *sinks) close() error {
	if s.traceOut != nil {
		return s.traceOut.Close()
	}
	return nil
}

func mainErr(path string, o options) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	prog, err := callcost.Compile(string(src))
	if err != nil {
		return err
	}
	strat, err := parseStrategy(o.strategy)
	if err != nil {
		return err
	}

	var pf *freq.ProgramFreq
	if o.static {
		pf = prog.StaticFreq()
	} else {
		var err error
		pf, _, err = prog.Profile()
		if err != nil {
			return fmt.Errorf("profiling run: %w", err)
		}
	}

	sk, err := buildSinks(o)
	if err != nil {
		return err
	}
	defer sk.close()
	allocOpts := callcost.WithTracer(callcost.DefaultAllocOptions(), sk.tracer)
	allocOpts.NoPrepCache = o.noPrepCache
	// The span recorder is order-independent (state keyed by run and
	// function), so when it is the only sink attached, keep the
	// parallel pool instead of letting the tracer force the sequential
	// path. The ordered sinks (-explain, -trace, -stats) still force
	// sequential.
	allocOpts.TraceParallel = o.spans != nil && !o.explain && o.traceFile == "" && !o.stats

	var batchStats callcost.BatchStats
	allocate := func(cfg callcost.Config) (*callcost.Allocation, error) {
		a, bs, err := prog.AllocateProgramBatch(strat, cfg, pf, allocOpts,
			callcost.BatchOptions{Interproc: o.interproc, Workers: o.parallel})
		batchStats = bs
		return a, err
	}

	if o.sweep {
		fmt.Printf("%-14s %12s %12s %12s %12s %12s\n",
			"(Ri,Rf,Ei,Ef)", "spill", "caller-save", "callee-save", "shuffle", "total")
		for _, cfg := range machine.Sweep() {
			alloc, err := allocate(cfg)
			if err != nil {
				return err
			}
			ov := alloc.Overhead(pf)
			fmt.Printf("%-14s %12.0f %12.0f %12.0f %12.0f %12.0f\n",
				cfg, ov.Spill, ov.Caller, ov.Callee, ov.Shuffle, ov.Total())
		}
		printSinks(sk, callcost.Overhead{})
		return nil
	}

	cfg, err := parseConfig(o.config)
	if err != nil {
		return err
	}
	alloc, err := allocate(cfg)
	if err != nil {
		return err
	}

	if o.printAsm {
		fmt.Print(alloc.Assembly())
		return nil
	}

	fmt.Printf("strategy %s, configuration %s\n\n", strat.Name(), cfg)
	names := make([]string, 0, len(alloc.Plans))
	for name := range alloc.Plans {
		names = append(names, name)
	}
	sort.Strings(names)
	var total callcost.Overhead
	for _, name := range names {
		plan := alloc.Plans[name]
		ov := metrics.Analytic(plan, pf.ByFunc[name])
		total = total.Add(ov)
		fmt.Printf("%-20s %s  (rounds=%d)\n", name, ov, plan.Alloc.Rounds)
		if o.printIR {
			fmt.Println(plan.Alloc.Fn.String())
		}
	}
	fmt.Printf("%-20s %s\n", "program", total)
	if o.interproc {
		fmt.Printf("\nbatch schedule: %d components (%d recursive), %d waves, ready peak %d; "+
			"summaries consumed at %d/%d call sites\n",
			batchStats.SCCs, batchStats.Recursive, batchStats.Waves, batchStats.ReadyPeak,
			batchStats.SummaryHits, batchStats.SummaryHits+batchStats.SummaryMisses)
	}
	printSinks(sk, total)

	if o.run {
		res, err := alloc.Execute()
		if err != nil {
			return err
		}
		ref, err := prog.Run()
		if err != nil {
			return err
		}
		status := "MATCHES reference"
		if res.RetInt != ref.RetInt {
			status = fmt.Sprintf("MISMATCH (reference %d)", ref.RetInt)
		}
		fmt.Printf("\nexecuted: result=%d %s\n", res.RetInt, status)
		fmt.Printf("steps=%d cycles=%.0f measured-overhead=%.0f\n",
			res.Counts.Steps, res.Counts.Cycles, res.Counts.OverheadOps())
	}
	return nil
}

// printSinks replays the narrative and renders the stats tables after
// the summary. The narrative is the event stream verbatim, so its
// numbers always agree with -trace output for the same run.
func printSinks(sk *sinks, total callcost.Overhead) {
	if sk.narrative != nil {
		fmt.Printf("\nallocation narrative:\n%s", sk.narrative.String())
	}
	if sk.stats != nil {
		fmt.Printf("\nallocation statistics (%d events):\n", sk.stats.TotalEvents())
		metrics.WritePhaseTable(os.Stdout, sk.stats)
		fmt.Printf("\n%-20s %8s %8s %8s %8s %8s %8s\n",
			"function", "rounds", "merges", "pops", "assigns", "spills", "rewrites")
		for _, fs := range sk.stats.Funcs() {
			fmt.Printf("%-20s %8d %8d %8d %8d %8d %8d\n",
				fs.Fn, fs.Rounds,
				fs.Counts[obs.KindCoalesceMerge], fs.Counts[obs.KindSimplifyPop],
				fs.Counts[obs.KindColorAssign], fs.Counts[obs.KindSpillChoice],
				fs.Counts[obs.KindRewriteInsert])
		}
		if total.Total() > 0 {
			b := total.Breakdown()
			fmt.Printf("\noverhead breakdown: spill=%.1f%% caller=%.1f%% callee=%.1f%% shuffle=%.1f%%\n",
				b.Spill, b.Caller, b.Callee, b.Shuffle)
		}
	}
}
