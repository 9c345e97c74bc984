package main

import (
	"math"
	"math/rand"
	"sort"
	"strings"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: a percentile with fewer samples beyond it is one outlier
// away from a different value.
const minBeyond = 10

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the median of xs; a failed request enters as +Inf, so
// more than half failures make the median +Inf.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	case math.IsInf(s[n/2], 1):
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tail returns the 99th percentile of xs by nearest rank or, when fewer
// than minBeyond samples lie above that rank, the highest percentile
// that still leaves minBeyond samples above it; pct is the percentile
// reported. With minBeyond samples or fewer it returns the maximum and
// 100.
func tail(xs []float64) (v, pct float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), 0
	}
	if n <= minBeyond {
		return s[n-1], 100
	}
	k := int(math.Ceil(0.99 * float64(n))) // 1-based rank of p99
	if n-k < minBeyond {
		k = n - minBeyond
	}
	return s[k-1], 100 * float64(k) / float64(n)
}

// geomean is the geometric mean of xs, each clamped to at least 1 so a
// cell with zero overhead operations enters as 1 instead of zeroing the
// product.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(math.Max(x, 1))
	}
	return math.Exp(sum / float64(len(xs)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// bodyMedian is the median latency of a request drawn from a
// workload's traffic. lat[i] is the latency of a request that sent
// distinct body key[i]; each body's latency is the median of its
// samples, and the body latencies are combined in a median weighted by
// weight[body]. With key nil every sample is a body of its own, and
// with weight nil every body weighs the same. Bodies without samples
// are left out.
func bodyMedian(lat []float64, key []int, weight []float64) float64 {
	byKey := make(map[int][]float64)
	for i, x := range lat {
		k := i
		if key != nil {
			k = key[i]
		}
		byKey[k] = append(byKey[k], x)
	}
	vals := make([]float64, 0, len(byKey))
	wts := make([]float64, 0, len(byKey))
	for k, xs := range byKey {
		w := 1.0
		if weight != nil {
			w = weight[k]
		}
		vals = append(vals, median(xs))
		wts = append(wts, w)
	}
	return weightedMedian(vals, wts)
}

// weightedMedian returns the smallest value at which the values'
// cumulative weight, in increasing order, reaches half of the total.
func weightedMedian(vals, wts []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	idx := make([]int, len(vals))
	var total float64
	for i := range idx {
		idx[i] = i
		total += wts[i]
	}
	sort.Slice(idx, func(a, b int) bool { return vals[idx[a]] < vals[idx[b]] })
	var cum float64
	for _, i := range idx {
		if cum += wts[i]; cum >= total/2 {
			return vals[i]
		}
	}
	return vals[idx[len(idx)-1]]
}

// zipfProbs returns the probability of each rank in [0, items) under
// zipfRanks' draw: rank k is proportional to (1+k)^-s.
func zipfProbs(items int, s float64) []float64 {
	p := make([]float64, items)
	var sum float64
	for k := range p {
		p[k] = math.Pow(1+float64(k), -s)
		sum += p[k]
	}
	for k := range p {
		p[k] /= sum
	}
	return p
}

// zipfRanks returns n popularity ranks in [0, items), drawn Zipf(s):
// rank 0 is the most popular. The same seed always yields the same
// sequence.
func zipfRanks(seed int64, items, n int, s float64) []int {
	z := rand.NewZipf(rand.New(rand.NewSource(seed)), s, 1, uint64(items-1))
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

// asmInstructions counts the instruction lines of emitted assembly:
// tab-indented lines that are not directives. Labels and data
// definitions start in column 0.
func asmInstructions(asm string) int {
	n := 0
	for _, line := range strings.Split(asm, "\n") {
		if len(line) > 1 && line[0] == '\t' && line[1] != '.' {
			n++
		}
	}
	return n
}
