// Command perfbench is the repository benchmark. It runs one workload
// for a fixed time from a seed, checks every output it measures, and
// prints one JSON result line:
//
//	perfbench -workload serve-hot -seed 1 -seconds 20 -trace 0 -rallocd path/to/rallocd
//
// serve-hot and serve-cold drive a stock rallocd daemon over HTTP;
// suite-batch runs the in-process whole-program batch allocator. With
// -trace 1 the run reports per-layer metrics instead of end-to-end
// ones. See README.md for the workloads and metrics, and run.py for
// the entry point that builds the binaries first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	rallocd  string
	out      string
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// deadline bounds a whole run, which must end within 180 s.
const deadline = 170 * time.Second

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "serve-hot, serve-cold or suite-batch")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.StringVar(&o.rallocd, "rallocd", "", "rallocd binary (serve workloads)")
	flag.StringVar(&o.out, "out", ".", "directory for span traces")
	flag.Parse()
	o.trace = trace == 1

	var run func(*options) (*result, error)
	switch o.workload {
	case "serve-hot", "serve-cold":
		run = runServe
		if o.rallocd == "" {
			fmt.Fprintln(os.Stderr, "perfbench: serve workloads need -rallocd")
			os.Exit(2)
		}
	case "suite-batch":
		run = runSuite
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", o.workload)
		os.Exit(2)
	}
	if o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}

	// A run that overstays is a failed run; the daemon child dies with
	// this process.
	watchdog := time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", deadline)
		os.Exit(3)
	})
	res, err := run(&o)
	watchdog.Stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// endToEndUnits lists every end-to-end metric with its unit. An untraced
// run reports all of them on every workload.
var endToEndUnits = map[string]string{
	"p50_ms":         "ms",
	"throughput_rps": "1/s",
	"alloc_fps":      "1/cpu-s",
	"overhead_gm":    "ops",
	"cycles_gm":      "cycles",
	"code_insns":     "count",
	"ok_ratio":       "ratio",
	"rss_peak_mb":    "MiB",
	"setup_s":        "s",
}

func endToEndNames() []string {
	names := make([]string, 0, len(endToEndUnits))
	for name := range endToEndUnits {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// endToEndMetrics attaches units to a complete set of end-to-end values.
func endToEndMetrics(values map[string]float64) map[string]metric {
	if len(values) != len(endToEndUnits) {
		panic(fmt.Sprintf("end-to-end metrics %v do not match %v", values, endToEndNames()))
	}
	out := make(map[string]metric, len(values))
	for name, v := range values {
		unit, ok := endToEndUnits[name]
		if !ok {
			panic("unknown end-to-end metric " + name)
		}
		// A latency that failed requests made infinite prints as the
		// largest float, which JSON can carry.
		out[name] = metric{Value: math.Max(-math.MaxFloat64, math.Min(v, math.MaxFloat64)), Unit: unit}
	}
	return out
}

// layerUnits lists every per-layer metric with its unit. A traced run
// reports all of them; a layer a workload does not reach reads 0.
var layerUnits = map[string]string{
	"server.decode_us":             "us/op",
	"server.resolve_us":            "us/op",
	"server.render_us":             "us/op",
	"server.encode_us":             "us/op",
	"server.edge_us":               "us/op",
	"compile.self_us":              "us/op",
	"compile.ir_instrs":            "count/op",
	"ir.decode_us":                 "us/op",
	"freq.static_us":               "us/op",
	"freq.profile_ms":              "ms/prog",
	"resultcache.key_us":           "us/op",
	"resultcache.lookup_us":        "us/op",
	"resultcache.hit_ratio":        "ratio",
	"resultcache.daemon_hit_ratio": "ratio",
	"resultcache.evictions":        "count/op",
	"pipeline.liveness_us":         "us/op",
	"pipeline.build-graph_us":      "us/op",
	"pipeline.coalesce_us":         "us/op",
	"pipeline.liverange_us":        "us/op",
	"pipeline.color_us":            "us/op",
	"pipeline.scan_us":             "us/op",
	"pipeline.spill-rewrite_us":    "us/op",
	"pipeline.liveness_runs":       "count/op",
	"pipeline.build-graph_runs":    "count/op",
	"pipeline.coalesce_runs":       "count/op",
	"pipeline.liverange_runs":      "count/op",
	"pipeline.color_runs":          "count/op",
	"pipeline.scan_runs":           "count/op",
	"pipeline.spill-rewrite_runs":  "count/op",
	"pipeline.daemon_ratio":        "ratio",
	"regalloc.driver_us":           "us/op",
	"regalloc.rounds":              "count/func",
	"regalloc.spilled_regs":        "count/op",
	"linscan.escalations":          "count/op",
	"rewrite.validate_us":          "us/op",
	"rewrite.plan_us":              "us/op",
	"codegen.asm_us":               "us/op",
	"metrics.analytic_us":          "us/op",
	"par.busy_ratio":               "ratio",
	"par.queue_depth":              "count",
	"loadgen.late_p99_ms":          "ms",
	"latency.p99_ms":               "ms",
	"latency.tail_pct":             "%",
	"latency.samples":              "count",
	"callgraph.build_us":           "us/op",
	"batch.sccs":                   "count/op",
	"batch.ready_peak":             "count/op",
	"batch.dag_speedup":            "x",
	"batch.driver_us":              "us/op",
	"interproc.hit_ratio":          "ratio",
	"overhead.spill_ops":           "count/op",
	"overhead.caller_ops":          "count/op",
	"overhead.callee_ops":          "count/op",
	"overhead.shuffle_ops":         "count/op",
	"minterp.cycles":               "cycles/op",
	"minterp.exec_ms":              "ms/op",
	"runtime.alloc_kb_per_op":      "kB/op",
	"runtime.gc_cycles":            "count/op",
	"trace.request_us":             "us/op",
	"trace.unattributed_us":        "us/op",
	"trace.overhead_pct":           "%",
	"trace.replayed":               "count",
}

// layerMetrics turns measured layer values into the full per-layer
// metric set, reading 0 for layers the workload does not reach.
func layerMetrics(values map[string]float64) map[string]metric {
	var unknown []string
	out := make(map[string]metric, len(layerUnits))
	for name, unit := range layerUnits {
		v := values[name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[name] = metric{Value: v, Unit: unit}
	}
	for name := range values {
		if _, ok := layerUnits[name]; !ok {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		panic(fmt.Sprintf("per-layer metrics missing from layerUnits: %v", unknown))
	}
	return out
}
