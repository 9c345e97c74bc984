package callcost_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro"
	"repro/internal/benchprog"
	"repro/internal/obs/obstest"
	"repro/internal/randprog"
	"repro/internal/telemetry"
)

// batchStrategies are the strategies the batch differential gate runs:
// the headline graph-coloring allocator plus both linear-scan tiers,
// covering every pipeline family the driver can schedule.
func batchStrategies() map[string]callcost.Strategy {
	return map[string]callcost.Strategy{
		"improved": callcost.ImprovedAll(),
		"linscan":  callcost.LinearScan(),
		"hybrid":   callcost.HybridTiered(),
	}
}

// TestBatchInterprocOffByteIdentical is the differential gate of the
// batch driver: with interprocedural costs disabled, the call-graph
// scheduled AllocateProgramBatch must be byte-identical — colors, spill
// slots, rounds, callee-save usage, assembly, overhead — to the plain
// AllocateWithOptions path, for every benchmark program and strategy.
// Run under -race this also proves the DAG tasks share no mutable
// state.
func TestBatchInterprocOffByteIdentical(t *testing.T) {
	config := callcost.NewConfig(8, 6, 4, 4)
	for _, bp := range benchprog.All() {
		prog := callcost.MustCompile(bp.Source)
		pf := prog.StaticFreq()
		for name, strat := range batchStrategies() {
			tag := fmt.Sprintf("%s/%s", bp.Name, name)
			want, err := prog.AllocateWithOptions(strat, config, pf, callcost.DefaultAllocOptions())
			if err != nil {
				t.Fatalf("%s: reference: %v", tag, err)
			}
			got, bs, err := prog.AllocateProgramBatch(strat, config, pf,
				callcost.DefaultAllocOptions(), callcost.BatchOptions{Workers: 4})
			if err != nil {
				t.Fatalf("%s: batch: %v", tag, err)
			}
			comparePlans(t, tag, want, got)
			if wo, go_ := want.Overhead(pf).Total(), got.Overhead(pf).Total(); wo != go_ {
				t.Fatalf("%s: overhead diverges: %v vs %v", tag, wo, go_)
			}
			if bs.SummaryHits != 0 {
				t.Fatalf("%s: interproc off but %d summary hits", tag, bs.SummaryHits)
			}
			if bs.SCCs == 0 || bs.Waves == 0 {
				t.Fatalf("%s: degenerate schedule stats %+v", tag, bs)
			}
		}
	}
}

// TestBatchInterprocScheduleIndependent asserts the determinism
// contract with interprocedural costs ON: the output depends only on
// the call-graph order, not the worker schedule — 1 worker and 8
// workers must produce identical allocations, cold and warm.
func TestBatchInterprocScheduleIndependent(t *testing.T) {
	config := callcost.NewConfig(8, 6, 4, 4)
	opts := randprog.DefaultOptions()
	for seed := int64(0); seed < 6; seed++ {
		src := randprog.Generate(seed, opts)
		prog := callcost.MustCompile(src)
		pf := prog.StaticFreq()
		for name, strat := range batchStrategies() {
			tag := fmt.Sprintf("seed %d %s", seed, name)
			seq, _, err := prog.AllocateProgramBatch(strat, config, pf,
				callcost.DefaultAllocOptions(), callcost.BatchOptions{Interproc: true, Workers: 1})
			if err != nil {
				t.Fatalf("%s: sequential: %v", tag, err)
			}
			par, _, err := prog.AllocateProgramBatch(strat, config, pf,
				callcost.DefaultAllocOptions(), callcost.BatchOptions{Interproc: true, Workers: 8})
			if err != nil {
				t.Fatalf("%s: parallel: %v", tag, err)
			}
			comparePlans(t, tag, seq, par)
			again, _, err := prog.AllocateProgramBatch(strat, config, pf,
				callcost.DefaultAllocOptions(), callcost.BatchOptions{Interproc: true, Workers: 8})
			if err != nil {
				t.Fatalf("%s: warm rerun: %v", tag, err)
			}
			comparePlans(t, tag+" warm", par, again)
		}
	}
}

// TestBatchInterprocExecutes runs every interprocedurally allocated
// benchmark on the machine-level interpreter and checks the computed
// result against the reference interpreter: pruned caller-save sets
// must never drop a register the callee actually writes.
func TestBatchInterprocExecutes(t *testing.T) {
	config := callcost.NewConfig(8, 6, 4, 4)
	improvedTotal, staticTotal := 0.0, 0.0
	improvedCount := 0
	for _, bp := range benchprog.All() {
		prog := callcost.MustCompile(bp.Source)
		pf, ref, err := prog.Profile()
		if err != nil {
			t.Fatalf("%s: profile: %v", bp.Name, err)
		}
		base, err := prog.AllocateWithOptions(callcost.ImprovedAll(), config, pf, callcost.DefaultAllocOptions())
		if err != nil {
			t.Fatalf("%s: static allocation: %v", bp.Name, err)
		}
		inter, bs, err := prog.AllocateProgramBatch(callcost.ImprovedAll(), config, pf,
			callcost.DefaultAllocOptions(), callcost.BatchOptions{Interproc: true, Workers: 4})
		if err != nil {
			t.Fatalf("%s: interproc allocation: %v", bp.Name, err)
		}
		res, err := inter.Execute()
		if err != nil {
			t.Fatalf("%s: execute interproc allocation: %v", bp.Name, err)
		}
		if res.RetInt != ref.RetInt {
			t.Fatalf("%s: interproc result %d, reference %d", bp.Name, res.RetInt, ref.RetInt)
		}
		baseOv, _, err := base.MeasuredOverhead()
		if err != nil {
			t.Fatalf("%s: measure static: %v", bp.Name, err)
		}
		interOv, _, err := inter.MeasuredOverhead()
		if err != nil {
			t.Fatalf("%s: measure interproc: %v", bp.Name, err)
		}
		staticTotal += baseOv.Total()
		improvedTotal += interOv.Total()
		if interOv.Total() > baseOv.Total() {
			t.Errorf("%s: interproc overhead %.0f exceeds static %.0f", bp.Name, interOv.Total(), baseOv.Total())
		}
		if interOv.Total() < baseOv.Total() {
			improvedCount++
		}
		if bs.SummaryHits == 0 && bs.SummaryMisses > 0 && bs.SCCs > 1 {
			t.Errorf("%s: multi-component program consumed no summaries (%+v)", bp.Name, bs)
		}
	}
	// The acceptance bar: interprocedural costs must strictly reduce
	// measured overhead on at least 3 of the benchmark programs.
	if improvedCount < 3 {
		t.Errorf("interproc reduced measured overhead on %d programs, want >= 3", improvedCount)
	}
	if improvedTotal > staticTotal {
		t.Errorf("interproc total %.0f exceeds static total %.0f", improvedTotal, staticTotal)
	}
}

// TestBatchExplicitPipelineKeepsInterproc holds interprocedural costs
// to the run, not to the pipeline value: with Interproc on, setting
// AllocOptions.Pipeline to the very pipeline PipelineFor returns must
// allocate byte-identically — colors, spill slots, rounds, callee-save
// usage, assembly — to leaving it nil, on every benchmark program with
// profile frequencies, for the graph-coloring and both scan tiers.
func TestBatchExplicitPipelineKeepsInterproc(t *testing.T) {
	config := callcost.NewConfig(8, 6, 4, 4)
	bopts := callcost.BatchOptions{Interproc: true}
	for _, bp := range benchprog.All() {
		prog := callcost.MustCompile(bp.Source)
		pf, _, err := prog.Profile()
		if err != nil {
			t.Fatalf("%s: profile: %v", bp.Name, err)
		}
		for name, strat := range batchStrategies() {
			tag := fmt.Sprintf("%s/%s", bp.Name, name)
			want, _, err := prog.AllocateProgramBatch(strat, config, pf, callcost.DefaultAllocOptions(), bopts)
			if err != nil {
				t.Fatalf("%s: default pipeline: %v", tag, err)
			}
			opts := callcost.DefaultAllocOptions()
			pl := callcost.PipelineFor(strat, callcost.DefaultAllocOptions())
			opts.Pipeline = &pl
			got, _, err := prog.AllocateProgramBatch(strat, config, pf, opts, bopts)
			if err != nil {
				t.Fatalf("%s: explicit pipeline: %v", tag, err)
			}
			comparePlans(t, tag, want, got)
		}
	}
}

// TestBatchTelemetry asserts the driver feeds the batch instruments:
// wave totals, the DAG ready-peak gauge, and interprocedural summary
// hits all become visible in the registry snapshot.
func TestBatchTelemetry(t *testing.T) {
	b := telemetry.Enable(nil)
	defer telemetry.Disable()
	prog := callcost.MustCompile(benchprog.ByName("li").Source)
	pf := prog.StaticFreq()
	_, bs, err := prog.AllocateProgramBatch(callcost.ImprovedAll(), callcost.NewConfig(8, 6, 4, 4), pf,
		callcost.DefaultAllocOptions(), callcost.BatchOptions{Interproc: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	snap := b.Reg.Snapshot()
	if got := snap.Counters["batch_waves_total"]; got != int64(bs.Waves) {
		t.Errorf("batch_waves_total = %d, want %d", got, bs.Waves)
	}
	if got := snap.Gauges["batch_dag_ready_peak"]; got != int64(bs.ReadyPeak) {
		t.Errorf("batch_dag_ready_peak = %d, want %d", got, bs.ReadyPeak)
	}
	if got := snap.Counters["interproc_summary_hits_total"]; got != int64(bs.SummaryHits) {
		t.Errorf("interproc_summary_hits_total = %d, want %d", got, bs.SummaryHits)
	}
	if bs.SummaryHits == 0 {
		t.Errorf("li consumed no summaries: %+v", bs)
	}
}

// callersFirstSource defines every caller before its callees, so its
// program order (main, mid, leaf) is the reverse of its call-graph
// order.
const callersFirstSource = `
int main() {
	int i; int acc = 0;
	for (i = 0; i < 8; i = i + 1) { acc = acc + mid(i) + leaf(acc); }
	return acc;
}
int mid(int x) { return leaf(x) * 2 + x; }
int leaf(int x) { return x + 1; }
`

// TestTracedDriversFollowProgramOrder pins the driver's task rule for
// traces: with interprocedural costs off, AllocateWithOptions and
// AllocateProgramBatch trace every function in program order, and
// their JSONL streams are identical apart from wall time. The program
// defines callers first, so a driver that scheduled interproc-off runs
// by the call graph would trace leaf first, as an interproc-on run
// does.
func TestTracedDriversFollowProgramOrder(t *testing.T) {
	prog := callcost.MustCompile(callersFirstSource)
	pf := prog.StaticFreq()
	config := callcost.NewConfig(8, 6, 4, 4)
	strat := callcost.ImprovedAll()
	trace := func(run func(opts callcost.AllocOptions) error) (string, []string) {
		t.Helper()
		var buf bytes.Buffer
		opts := callcost.WithTracer(callcost.DefaultAllocOptions(), callcost.NewJSONLSink(&buf))
		opts.Parallel = 1
		opts.NoPrepCache = true // every run starts cold, so prep-cache events agree
		if err := run(opts); err != nil {
			t.Fatal(err)
		}
		var order []string
		for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
			var ev struct{ Fn string }
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				t.Fatal(err)
			}
			if len(order) == 0 || order[len(order)-1] != ev.Fn {
				order = append(order, ev.Fn)
			}
		}
		return obstest.Scrub(t, buf.Bytes()), order
	}
	batch := func(interproc bool) func(opts callcost.AllocOptions) error {
		return func(opts callcost.AllocOptions) error {
			_, _, err := prog.AllocateProgramBatch(strat, config, pf, opts,
				callcost.BatchOptions{Interproc: interproc, Workers: 1})
			return err
		}
	}
	direct, directOrder := trace(func(opts callcost.AllocOptions) error {
		_, err := prog.AllocateWithOptions(strat, config, pf, opts)
		return err
	})
	batched, batchOrder := trace(batch(false))
	_, interprocOrder := trace(batch(true))

	want := []string{"main", "mid", "leaf"}
	if !slices.Equal(directOrder, want) || !slices.Equal(batchOrder, want) {
		t.Fatalf("traced function order: AllocateWithOptions %v, AllocateProgramBatch %v, want %v",
			directOrder, batchOrder, want)
	}
	if direct != batched {
		t.Fatalf("AllocateWithOptions and interproc-off AllocateProgramBatch traces differ:\n%s\nvs\n%s", direct, batched)
	}
	if slices.Equal(interprocOrder, want) {
		t.Fatalf("interproc-on trace order %v follows program order; the program must define callers first", interprocOrder)
	}
}
