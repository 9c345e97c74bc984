package benchdiff

import (
	"bufio"
	"io"
	"strconv"
	"strings"
)

// ParseBenchOutput reads `go test -bench` output and returns one entry
// per reported metric, keyed "bench.<name>.<unit>" with the -cpu
// suffix stripped from the name:
//
//	BenchmarkSpillRound/fpppp_twoel/update-8   2000   612803 ns/op   295.1 round1+_us/op
//
// becomes bench.SpillRound/fpppp_twoel/update.ns/op = 612803 and
// bench.SpillRound/fpppp_twoel/update.round1+_us/op = 295.1. A
// benchmark that ran more than once keeps the mean of its runs.
func ParseBenchOutput(r io.Reader) (map[string]float64, error) {
	sums := make(map[string]float64)
	counts := make(map[string]int)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		// fields[1] is the iteration count; value/unit pairs follow.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			key := "bench." + name + "." + fields[i+1]
			sums[key] += v
			counts[key]++
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(sums))
	for k, sum := range sums {
		out[k] = sum / float64(counts[k])
	}
	return out, nil
}

// CanonicalizeSpillRound re-keys parsed BenchmarkSpillRound metrics to
// the paths the checked-in BENCH_*.json baselines use (CI gates against
// BENCH_9.json), so a fresh short-form run can be compared against one:
//
//	bench.SpillRound/fpppp_twoel/update.round1+_us/op
//	  → spill_round.round1_plus_us_per_op.fpppp/twoel.update
//
// (the sub-benchmark name joins program and function with "_" because
// "/" would open another sub-benchmark level; the baseline spells it
// "fpppp/twoel"). Entries that are not SpillRound round1+ metrics pass
// through unchanged.
func CanonicalizeSpillRound(metrics map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(metrics))
	for key, v := range metrics {
		rest, ok := strings.CutPrefix(key, "bench.SpillRound/")
		if !ok || !strings.HasSuffix(rest, ".round1+_us/op") {
			out[key] = v
			continue
		}
		rest = strings.TrimSuffix(rest, ".round1+_us/op")
		progFn, mode, ok := strings.Cut(rest, "/")
		if !ok {
			out[key] = v
			continue
		}
		progFn = strings.Replace(progFn, "_", "/", 1)
		out["spill_round.round1_plus_us_per_op."+progFn+"."+mode] = v
	}
	return out
}

// Canonicalize re-keys every parsed benchmark metric that has a
// checked-in baseline section to that section's paths, so one fresh
// run can gate against all of them at once. It applies the SpillRound
// rule (see CanonicalizeSpillRound) plus:
//
//	bench.SpillRound/<prog>_<fn>/<mode>.ns/op
//	  → spill_round.ns_per_op.<prog>/<fn>.<mode>
//	bench.AllocateProgram/<mode>.ns/op
//	  → allocate_program.ns_per_op.<mode>
//	bench.AllocateStrategy/<prog>/<strat>.ns/op
//	  → allocate_strategy.ns_per_op.<prog>.<strat>
//	bench.AllocateStrategy/<prog>/<strat>.overhead
//	  → pareto.overhead.<prog>.<strat>
//	bench.AllocateStrategy/<prog>/<strat>.escalated
//	  → pareto.escalated.<prog>.<strat>
//	bench.ServerAllocate/<prog>/<mode>.ns/op
//	  → server_allocate.ns_per_op.<prog>.<mode>
//	bench.BatchAllocate/<prog>/<mode>.ns/op
//	  → batch.ns_per_op.<prog>.<mode>
//	bench.BatchAllocate/<prog>/dag.sched_speedup_x4
//	  → batch.sched_speedup_x4.<prog>
//	bench.BatchAllocate/<prog>/dag.ready_peak
//	  → batch.ready_peak.<prog>
//
// The pareto pair are the sweep's quality axes (analytic total
// overhead; hybrid escalation count), reported by the benchmark as
// custom units so the quality side of the frontier is gated, not just
// the wall time; ServerAllocate is the rallocd request cost through
// the whole HTTP/pool/cache stack, cold and warm. Entries matching no
// rule pass through unchanged.
func Canonicalize(metrics map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(metrics))
	for key, v := range CanonicalizeSpillRound(metrics) {
		if rest, ok := strings.CutPrefix(key, "bench.SpillRound/"); ok {
			if rest, ok := strings.CutSuffix(rest, ".ns/op"); ok {
				if progFn, mode, ok := strings.Cut(rest, "/"); ok && !strings.Contains(mode, "/") {
					out["spill_round.ns_per_op."+strings.Replace(progFn, "_", "/", 1)+"."+mode] = v
					continue
				}
			}
		}
		if rest, ok := strings.CutPrefix(key, "bench.AllocateProgram/"); ok {
			if mode, ok := strings.CutSuffix(rest, ".ns/op"); ok && !strings.Contains(mode, "/") {
				out["allocate_program.ns_per_op."+mode] = v
				continue
			}
		}
		if rest, ok := strings.CutPrefix(key, "bench.AllocateStrategy/"); ok {
			if rest, ok := strings.CutSuffix(rest, ".ns/op"); ok {
				if prog, strat, ok := strings.Cut(rest, "/"); ok && !strings.Contains(strat, "/") {
					out["allocate_strategy.ns_per_op."+prog+"."+strat] = v
					continue
				}
			}
			if canonicalizeParetoUnit(out, rest, ".overhead", "pareto.overhead.", v) ||
				canonicalizeParetoUnit(out, rest, ".escalated", "pareto.escalated.", v) {
				continue
			}
		}
		if rest, ok := strings.CutPrefix(key, "bench.ServerAllocate/"); ok {
			if rest, ok := strings.CutSuffix(rest, ".ns/op"); ok {
				if prog, mode, ok := strings.Cut(rest, "/"); ok && !strings.Contains(mode, "/") {
					out["server_allocate.ns_per_op."+prog+"."+mode] = v
					continue
				}
			}
		}
		if rest, ok := strings.CutPrefix(key, "bench.BatchAllocate/"); ok {
			if rest, ok := strings.CutSuffix(rest, ".ns/op"); ok {
				if prog, mode, ok := strings.Cut(rest, "/"); ok && !strings.Contains(mode, "/") {
					out["batch.ns_per_op."+prog+"."+mode] = v
					continue
				}
			}
			if rest, ok := strings.CutSuffix(rest, ".sched_speedup_x4"); ok {
				if prog, mode, ok := strings.Cut(rest, "/"); ok && mode == "dag" {
					out["batch.sched_speedup_x4."+prog] = v
					continue
				}
			}
			if rest, ok := strings.CutSuffix(rest, ".ready_peak"); ok {
				if prog, mode, ok := strings.Cut(rest, "/"); ok && mode == "dag" {
					out["batch.ready_peak."+prog] = v
					continue
				}
			}
		}
		out[key] = v
	}
	return out
}

// canonicalizeParetoUnit re-keys one AllocateStrategy quality metric
// ("<prog>/<strat>.<unit>" with the prefix already cut) under the
// pareto section, reporting whether it matched.
func canonicalizeParetoUnit(out map[string]float64, rest, suffix, section string, v float64) bool {
	rest, ok := strings.CutSuffix(rest, suffix)
	if !ok {
		return false
	}
	prog, strat, ok := strings.Cut(rest, "/")
	if !ok || strings.Contains(strat, "/") {
		return false
	}
	out[section+prog+"."+strat] = v
	return true
}

// Restrict returns the entries of m whose path starts with any of the
// given prefixes. cmd/benchdiff uses it to compare a fresh bench run
// against only the baseline section that run re-measures.
func Restrict(m map[string]float64, prefixes ...string) map[string]float64 {
	out := make(map[string]float64)
	for k, v := range m {
		for _, p := range prefixes {
			if strings.HasPrefix(k, p) {
				out[k] = v
				break
			}
		}
	}
	return out
}
