// Package benchdiff compares two sets of benchmark measurements and
// decides — mechanically, with a noise threshold — whether the second
// one regressed. It is the library behind cmd/benchdiff, which CI runs
// as a smoke gate against the checked-in BENCH_*.json baselines.
//
// Measurements come from two sources, both keyed by dot-joined paths:
//
//   - The BENCH_*.json files each PR checks in, which are free-form
//     JSON documents. Flatten walks one and keeps every numeric leaf
//     under its path; an array of numbers collapses to its mean, so
//     the two-run convention ([291.5, 303.1]) just works.
//   - Raw `go test -bench` output, parsed by ParseBenchOutput into one
//     entry per reported metric under the benchmark's own path:
//     benchmark, sub-benchmarks, then the unit as the leaf
//     ("SpillRound.fpppp_twoel.rebuild.round1+_us/op").
//
// A baseline that nests its numbers along those same paths gates a
// fresh run with no per-benchmark rules: BenchPattern picks the
// benchmarks to run from the baseline's top-level names, and every
// parsed metric lands on the baseline path it is compared against.
//
// Whether a delta is a regression depends on the metric's direction:
// wall times regress upward, speedups downward. DirectionOf infers the
// direction from the path's tokens (ns/us/op → lower is better;
// speedup/ratio → higher is better); unknown metrics are neutral and
// reported but never flagged.
package benchdiff

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// Direction says which way a metric improves.
type Direction int

const (
	// Neutral metrics (metadata like "pr") are compared but never
	// flagged as regressions.
	Neutral Direction = 0
	// LowerIsBetter: wall times, byte counts, miss counts.
	LowerIsBetter Direction = -1
	// HigherIsBetter: speedups, ratios, hit counts, throughput.
	HigherIsBetter Direction = 1
)

// lowerTokens and higherTokens classify a metric path by the tokens of
// its last segments. Lower wins ties (a "speedup_ns" metric would be
// nonsense anyway).
var (
	lowerTokens = map[string]bool{
		"ns": true, "us": true, "ms": true, "op": true, "time": true,
		"bytes": true, "b": true, "allocs": true, "misses": true,
		"depth": true, "rounds": true, "spills": true,
		"overhead": true, "escalated": true,
	}
	higherTokens = map[string]bool{
		"speedup": true, "speedups": true, "ratio": true, "rate": true,
		"hits": true, "throughput": true, "ops": true,
	}
)

// DirectionOf infers how the metric at path improves from its name
// tokens (split on the path and word separators).
func DirectionOf(path string) Direction {
	tokens := strings.FieldsFunc(strings.ToLower(path), func(r rune) bool {
		switch r {
		case '.', '/', '_', '-', '+':
			return true
		}
		return false
	})
	dir := Neutral
	for _, tok := range tokens {
		if lowerTokens[tok] {
			return LowerIsBetter
		}
		if higherTokens[tok] {
			dir = HigherIsBetter
		}
	}
	return dir
}

// Flatten extracts every numeric leaf of a decoded JSON document into
// path → value. Object keys join with "."; arrays whose elements are
// all numbers collapse to their mean (the repo's N-runs convention),
// other arrays index as path.0, path.1, …; strings and booleans are
// dropped.
func Flatten(doc any) map[string]float64 {
	out := make(map[string]float64)
	flattenInto(out, "", doc)
	return out
}

func flattenInto(out map[string]float64, prefix string, v any) {
	join := func(k string) string {
		if prefix == "" {
			return k
		}
		return prefix + "." + k
	}
	switch x := v.(type) {
	case float64:
		out[prefix] = x
	case json.Number:
		if f, err := x.Float64(); err == nil {
			out[prefix] = f
		}
	case map[string]any:
		for k, e := range x {
			flattenInto(out, join(k), e)
		}
	case []any:
		if mean, ok := numericMean(x); ok {
			out[prefix] = mean
			return
		}
		for i, e := range x {
			flattenInto(out, join(fmt.Sprint(i)), e)
		}
	}
}

// numericMean returns the mean of a when every element is a number.
func numericMean(a []any) (float64, bool) {
	if len(a) == 0 {
		return 0, false
	}
	sum := 0.0
	for _, e := range a {
		f, ok := e.(float64)
		if !ok {
			return 0, false
		}
		sum += f
	}
	return sum / float64(len(a)), true
}

// Delta is one metric's baseline-to-current comparison.
type Delta struct {
	Path      string
	Direction Direction
	Base, Cur float64
	// Pct is the relative change (Cur-Base)/|Base|; +Inf when the
	// baseline is zero and the current value is not.
	Pct float64
	// Regression marks a change against the metric's direction beyond
	// the report's threshold.
	Regression bool
}

// Report is the outcome of one Compare call.
type Report struct {
	// Threshold is the relative noise band: |Pct| <= Threshold is
	// never a regression.
	Threshold float64
	// Deltas holds every metric present in both sets, sorted by path.
	Deltas []Delta
	// BaseOnly and CurOnly list metrics present in exactly one set —
	// surfaced so a renamed benchmark cannot silently drop coverage.
	BaseOnly, CurOnly []string
}

// Compare diffs current against base with the given relative noise
// threshold (0.10 = 10%). Only metrics present in both maps produce
// deltas; the one-sided remainders are recorded on the report.
func Compare(base, cur map[string]float64, threshold float64) *Report {
	rep := &Report{Threshold: threshold}
	for path, bv := range base {
		cv, ok := cur[path]
		if !ok {
			rep.BaseOnly = append(rep.BaseOnly, path)
			continue
		}
		d := Delta{Path: path, Direction: DirectionOf(path), Base: bv, Cur: cv}
		switch {
		case bv != 0:
			d.Pct = (cv - bv) / math.Abs(bv)
		case cv != 0:
			d.Pct = math.Inf(1)
		}
		worse := float64(d.Direction) * d.Pct
		d.Regression = d.Direction != Neutral && worse < 0 && math.Abs(d.Pct) > threshold
		rep.Deltas = append(rep.Deltas, d)
	}
	for path := range cur {
		if _, ok := base[path]; !ok {
			rep.CurOnly = append(rep.CurOnly, path)
		}
	}
	sort.Slice(rep.Deltas, func(i, j int) bool { return rep.Deltas[i].Path < rep.Deltas[j].Path })
	sort.Strings(rep.BaseOnly)
	sort.Strings(rep.CurOnly)
	return rep
}

// Regressions returns the flagged deltas.
func (r *Report) Regressions() []Delta {
	var out []Delta
	for _, d := range r.Deltas {
		if d.Regression {
			out = append(out, d)
		}
	}
	return out
}

// ExitCode is the process exit status cmd/benchdiff reports: 0 when no
// metric regressed, 1 otherwise.
func (r *Report) ExitCode() int {
	if len(r.Regressions()) > 0 {
		return 1
	}
	return 0
}

// RunExitCode is the exit status of a fresh run of BenchPattern(base)
// against base: ExitCode, except that a baseline-only metric fails too.
// The baseline picked which benchmarks ran, so a metric it holds that
// the run did not report can only be a renamed or dropped
// sub-benchmark or unit, and the gate would otherwise lose it silently.
func (r *Report) RunExitCode() int {
	if len(r.BaseOnly) > 0 {
		return 1
	}
	return r.ExitCode()
}

// WriteText renders the report as an aligned table, regressions marked
// with "REGRESSION", followed by the one-sided metric lists.
func (r *Report) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%-60s %14s %14s %9s\n", "metric", "base", "current", "delta"); err != nil {
		return err
	}
	for _, d := range r.Deltas {
		mark := ""
		if d.Regression {
			mark = "  REGRESSION"
		}
		arrow := ""
		switch d.Direction {
		case LowerIsBetter:
			arrow = " (lower=better)"
		case HigherIsBetter:
			arrow = " (higher=better)"
		}
		if _, err := fmt.Fprintf(w, "%-60s %14.4g %14.4g %+8.1f%%%s%s\n",
			d.Path, d.Base, d.Cur, 100*d.Pct, arrow, mark); err != nil {
			return err
		}
	}
	for _, p := range r.BaseOnly {
		if _, err := fmt.Fprintf(w, "baseline-only: %s\n", p); err != nil {
			return err
		}
	}
	// A current-only metric means the run measured something the
	// baseline cannot gate — typically a benchmark added without
	// refreshing the baseline. Warn loudly so it gets a baseline entry
	// instead of passing silently forever.
	for _, p := range r.CurOnly {
		if _, err := fmt.Fprintf(w, "WARNING: current-only (ungated, add to baseline): %s\n", p); err != nil {
			return err
		}
	}
	n := len(r.Regressions())
	_, err := fmt.Fprintf(w, "%d metrics compared, %d regressions, %d baseline-only, %d ungated current-only (threshold %.0f%%)\n",
		len(r.Deltas), n, len(r.BaseOnly), len(r.CurOnly), 100*r.Threshold)
	return err
}

// LoadFlat reads a JSON file and flattens it.
func LoadFlat(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc any
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return Flatten(doc), nil
}

// DiffFiles flattens and compares two JSON measurement files.
func DiffFiles(basePath, curPath string, threshold float64) (*Report, error) {
	base, err := LoadFlat(basePath)
	if err != nil {
		return nil, err
	}
	cur, err := LoadFlat(curPath)
	if err != nil {
		return nil, err
	}
	return Compare(base, cur, threshold), nil
}
