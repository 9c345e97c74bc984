package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro"
	"repro/internal/interp"
	"repro/internal/randprog"
)

func TestTailPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n       int
		v, pct  float64
		comment string
	}{
		{2000, 1980, 99, "p99 has 20 samples beyond it"},
		{1000, 990, 99, "p99 has exactly 10 beyond it"},
		{500, 490, 98, "p99 would leave 5 beyond; p98 leaves 10"},
		{11, 1, 100.0 / 11, "only the minimum has 10 beyond it"},
		{10, 10, 100, "too few samples: the maximum"},
	} {
		v, pct := tail(seq(tc.n))
		if v != tc.v || math.Abs(pct-tc.pct) > 1e-9 {
			t.Errorf("n=%d: tail = (%v, p%v), want (%v, p%v): %s", tc.n, v, pct, tc.v, tc.pct, tc.comment)
		}
	}
}

func TestFailuresCountAsInfinite(t *testing.T) {
	var samples []sample
	for i := 0; i < 100; i++ {
		samples = append(samples, sample{due: 0, sent: 0, done: time.Millisecond, ok: i >= 20})
	}
	lat := make([]float64, len(samples))
	for i, s := range samples {
		lat[i] = s.latency()
	}
	if v, _ := tail(lat); !math.IsInf(v, 1) {
		t.Errorf("tail with 20%% failures = %v, want +Inf", v)
	}
	if m := median(lat); m != 1 {
		t.Errorf("median with 20%% failures = %v, want 1", m)
	}
	for i := range lat[:60] {
		lat[i] = math.Inf(1)
	}
	if m := median(lat); !math.IsInf(m, 1) {
		t.Errorf("median with 60%% failures = %v, want +Inf", m)
	}
}

func TestGeomeanClampsZeroCells(t *testing.T) {
	if g := geomean([]float64{0, 4, 16}); math.Abs(g-4) > 1e-12 {
		t.Errorf("geomean(0, 4, 16) = %v, want 4 (the zero cell enters as 1)", g)
	}
	if g := geomean([]float64{0, 0}); g != 1 {
		t.Errorf("geomean of zero cells = %v, want 1", g)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{name: "request", parent: -1, start: 0, end: 100 * ms},
		{name: "a", parent: 0, start: 10 * ms, end: 30 * ms},
		{name: "b", parent: 0, start: 25 * ms, end: 50 * ms}, // overlaps a: counted once
		{name: "c", parent: 2, start: 30 * ms, end: 40 * ms},
		{name: "d", parent: 0, start: 90 * ms, end: 120 * ms}, // clipped to the parent
	}
	got := selfTimes(spans)
	want := []time.Duration{100*ms - 40*ms - 10*ms, 20 * ms, 15 * ms, 10 * ms, 30 * ms}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	self, calls, total := layerTotals(spans)
	if total != 100*ms || calls["a"] != 1 || self["request"] != 50*ms {
		t.Errorf("layerTotals: total %v, calls %v, self %v", total, calls, self)
	}
}

func TestRecorderNestsAndSumsToTotal(t *testing.T) {
	r := newRecorder()
	root := r.begin("request")
	for i := 0; i < 3; i++ {
		id := r.begin("layer")
		inner := r.begin("pass:x")
		time.Sleep(time.Millisecond)
		r.end(inner)
		r.end(id)
	}
	r.end(root)
	if r.spans[1].parent != 0 || r.spans[2].parent != 1 {
		t.Fatalf("parents = %d, %d; want 0, 1", r.spans[1].parent, r.spans[2].parent)
	}
	self, _, total := layerTotals(r.spans)
	var sum time.Duration
	for _, d := range self {
		sum += d
	}
	if sum != total {
		t.Errorf("self times sum to %v, total %v", sum, total)
	}
	var nilRec *recorder
	nilRec.end(nilRec.begin("ignored")) // a nil recorder records nothing
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const interval = 10 * time.Millisecond
	// One sender; request 0 stalls for 50 ms, so requests 1..4 are sent
	// late and their latency includes the wait.
	samples := openLoop(8, interval, 1, func(i int) bool {
		if i == 0 {
			time.Sleep(50 * time.Millisecond)
		}
		return true
	})
	for i, s := range samples {
		if s.due != time.Duration(i)*interval {
			t.Fatalf("request %d due at %v, want %v", i, s.due, time.Duration(i)*interval)
		}
		if s.sent < s.due || s.done < s.sent {
			t.Fatalf("request %d: due %v sent %v done %v out of order", i, s.due, s.sent, s.done)
		}
	}
	if late := samples[1].late(); late < 35 {
		t.Errorf("request 1 late by %.1f ms, want at least 35 ms behind the stall", late)
	}
	if lat := samples[1].latency(); lat < samples[1].late() {
		t.Errorf("request 1 latency %.1f ms is below its lateness %.1f ms", lat, samples[1].late())
	}
	if late := samples[7].late(); late > 5 {
		t.Errorf("request 7 late by %.1f ms; the schedule should have caught up", late)
	}
}

func TestClosedLoopStopsAtLimit(t *testing.T) {
	lat, ok, _ := closedLoop(time.Hour, 50, 2, func(i int) bool { return i%5 != 0 })
	if len(lat) != 50 || ok != 40 {
		t.Errorf("closedLoop = %d issued, %d ok; want 50, 40", len(lat), ok)
	}
	for i, x := range lat {
		if failed := i%5 == 0; failed != math.IsInf(x, 1) || x < 0 {
			t.Errorf("request %d: latency %v", i, x)
		}
	}
}

func TestBodyMedianWeighsBodies(t *testing.T) {
	// Body 0 is sent four times and body 1 twice, but body 1 carries 60%
	// of the weight, so the traffic's median is body 1's median.
	lat := []float64{1, 2, 3, 100, 10, 12}
	key := []int{0, 0, 0, 0, 1, 1}
	if got := bodyMedian(lat, key, []float64{0.4, 0.6}); got != 11 {
		t.Errorf("weighted = %v, want 11", got)
	}
	if got := bodyMedian(lat, key, []float64{0.6, 0.4}); got != 2.5 {
		t.Errorf("weighted the other way = %v, want 2.5", got)
	}
	// Without keys every sample is its own body: the plain lower median.
	if got := bodyMedian([]float64{4, 1, 3, 2}, nil, nil); got != 2 {
		t.Errorf("unkeyed = %v, want 2", got)
	}
	// A body whose requests mostly failed enters as +Inf.
	inf := math.Inf(1)
	if got := bodyMedian([]float64{inf, inf, 1, 5}, []int{0, 0, 0, 1}, []float64{0.7, 0.3}); !math.IsInf(got, 1) {
		t.Errorf("failed body = %v, want +Inf", got)
	}
}

func TestZipfProbsMatchDraw(t *testing.T) {
	const items, n = 78, 200000
	count := make([]float64, items)
	for _, r := range zipfRanks(3, items, n, zipfS) {
		count[r]++
	}
	var sum float64
	for k, p := range zipfProbs(items, zipfS) {
		sum += p
		if got := count[k] / n; math.Abs(got-p) > 0.01 {
			t.Errorf("rank %d drawn %.4f of the time, zipfProbs says %.4f", k, got, p)
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("probabilities sum to %v", sum)
	}
}

func TestZipfRanksSeeded(t *testing.T) {
	a := zipfRanks(7, 78, 5000, zipfS)
	if !reflect.DeepEqual(a, zipfRanks(7, 78, 5000, zipfS)) {
		t.Fatal("same seed gave different draws")
	}
	if reflect.DeepEqual(a, zipfRanks(8, 78, 5000, zipfS)) {
		t.Fatal("different seeds gave the same draws")
	}
	count := make([]int, 78)
	for _, r := range a {
		count[r]++
	}
	if count[0] < count[1] || count[1] < count[10] || count[0] < 500 {
		t.Errorf("rank counts %v are not Zipf-shaped", count[:12])
	}
}

func TestSplitResponse(t *testing.T) {
	raw := []byte(`{"result":{"strategy":"x","funcs":[{"cacheHits":1}]},"cacheHits":3,"cacheMisses":4}` + "\n")
	res, hits, misses, err := splitResponse(raw)
	if err != nil || string(res) != `{"strategy":"x","funcs":[{"cacheHits":1}]}` || hits != 3 || misses != 4 {
		t.Errorf("splitResponse = %s, %d, %d, %v", res, hits, misses, err)
	}
	if _, _, _, err := splitResponse([]byte(`{"error":"x"}`)); err == nil {
		t.Error("splitResponse accepted an error body")
	}
}

func TestAsmInstructions(t *testing.T) {
	asm := "\t.data\nx:\t.word 0\n\n\t.text\n\t.globl f\nf:\n\taddiu $sp, $sp, -8\n\tsw $ra, 0($sp)\t# save\n.Lf_0:\n\tjr $ra\n"
	if n := asmInstructions(asm); n != 3 {
		t.Errorf("asmInstructions = %d, want 3", n)
	}
}

// TestCalldagSeedsFollowRule keeps calldagSeeds equal to what the rule
// documented beside it selects.
func TestCalldagSeedsFollowRule(t *testing.T) {
	var got []int64
	for s := int64(1); len(got) < len(calldagSeeds); s++ {
		p := callcost.MustCompile(randprog.Generate(s, randprog.CallDAGOptions()))
		res, err := interp.Run(p.IR, interp.Options{MaxSteps: calldagMaxSteps})
		if err != nil || res.Steps < calldagMinSteps {
			continue
		}
		got = append(got, s)
	}
	if !reflect.DeepEqual(got, calldagSeeds) {
		t.Errorf("rule selects %v, calldagSeeds = %v", got, calldagSeeds)
	}
}

// TestBenchmarkJSONNamesMatch keeps BENCHMARK.json's metric lists equal
// to what the harness prints.
func TestBenchmarkJSONNamesMatch(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var e2e []string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	sort.Strings(e2e)
	if want := endToEndNames(); !reflect.DeepEqual(e2e, want) {
		t.Errorf("end_to_end names %v, harness prints %v", e2e, want)
	}
	for _, m := range spec.PerLayer {
		if unit, ok := layerUnits[m.Name]; !ok || unit != m.Unit {
			t.Errorf("per_layer %s (%s): harness unit %q", m.Name, m.Unit, unit)
		}
	}
	if len(spec.PerLayer) != len(layerUnits) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, harness prints %d", len(spec.PerLayer), len(layerUnits))
	}
	for _, w := range spec.Workloads {
		switch w.Name {
		case "serve-hot", "serve-cold", "suite-batch":
		default:
			t.Errorf("workload %q unknown to the harness", w.Name)
		}
	}
}
