package benchdiff

import (
	"bufio"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// ParseBenchOutput reads `go test -bench` output and returns one entry
// per reported metric, keyed by the benchmark's own path: its name
// without the "Benchmark" prefix and the -cpu suffix, "/" turned into
// ".", and the unit as the leaf.
//
//	BenchmarkSpillRound/fpppp_twoel/rebuild-8   2000   612803 ns/op   295.1 round1+_us/op
//
// becomes SpillRound.fpppp_twoel.rebuild.ns/op = 612803 and
// SpillRound.fpppp_twoel.rebuild.round1+_us/op = 295.1, the paths under
// which a baseline file nests the same numbers. A benchmark that ran
// more than once keeps the mean of its runs.
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
		name = strings.ReplaceAll(name, "/", ".")
		// fields[1] is the iteration count; value/unit pairs follow.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			key := name + "." + fields[i+1]
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

// BenchPattern returns the `go test -bench` regexp that runs exactly
// the benchmarks a baseline gates: ^Benchmark(A|B|…)$ over the
// top-level names of its paths, sorted.
func BenchPattern(base map[string]float64) string {
	seen := make(map[string]bool)
	var names []string
	for path := range base {
		name, _, _ := strings.Cut(path, ".")
		if !seen[name] {
			seen[name] = true
			names = append(names, regexp.QuoteMeta(name))
		}
	}
	sort.Strings(names)
	return "^Benchmark(" + strings.Join(names, "|") + ")$"
}
