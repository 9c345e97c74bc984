package callcost_test

import (
	"sync"
	"testing"

	"repro"
	"repro/internal/benchprog"
	"repro/internal/telemetry"
)

// runCounted register-allocates one benchprog program with a fresh
// telemetry registry and returns the counter snapshot plus the
// allocation. With parallel > 1 the span recorder rides along under
// Options.TraceParallel, so events interleave across workers — the
// shape the -race job has to prove safe.
func runCounted(t *testing.T, src string, parallel int) (map[string]int64, *callcost.Allocation) {
	t.Helper()
	prog, err := callcost.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	b := telemetry.Enable(nil)
	defer telemetry.Disable()

	// Both arms trace through a live span recorder: a traced run takes
	// a different (re-coalescing) round-0 path than an untraced one, so
	// tracing must be equal on both sides for the counters to compare.
	spans := telemetry.NewSpanRecorder(0)
	opts := callcost.WithTracer(callcost.DefaultAllocOptions(), spans)
	opts.Parallel = parallel
	opts.TraceParallel = true
	defer spans.Flush()
	alloc, err := prog.AllocateWithOptions(callcost.ImprovedAll(),
		callcost.NewConfig(6, 4, 0, 0), prog.StaticFreq(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return b.Reg.Snapshot().Counters, alloc
}

// TestTelemetryParallelCountsMatchSequential is the correctness
// contract of the telemetry layer under Options.Parallel: a parallel
// run with a live span recorder and an enabled registry must produce
// the same deterministic counter totals as the sequential run, and the
// allocation itself must stay byte-identical to a run with telemetry
// disabled. Run under -race this doubles as the concurrency stress of
// the registry, the span recorder, and every instrumentation site.
func TestTelemetryParallelCountsMatchSequential(t *testing.T) {
	// Deterministic counters: identical work happens regardless of
	// scheduling. sync.Pool recycling (pool_simplifier_news_total) and
	// the utilization gauges are inherently scheduling-dependent and
	// excluded.
	deterministic := []string{
		"alloc_funcs_total", "alloc_rounds_total", "alloc_spilled_regs_total",
		"pass_runs_total", "pool_simplifier_gets_total",
		"prep_live_hits_total", "prep_live_misses_total",
		"prep_graph_hits_total", "prep_graph_misses_total",
		"cow_snapshots_total", "par_tasks_total",
	}
	for _, p := range benchprog.All() {
		t.Run(p.Name, func(t *testing.T) {
			seqCounts, seqAlloc := runCounted(t, p.Source, 1)
			parCounts, parAlloc := runCounted(t, p.Source, 8)

			if seqCounts["alloc_spilled_regs_total"] == 0 {
				t.Errorf("benchprog %s never spills at (6,4,0,0) — stress run too easy", p.Name)
			}
			if seqCounts["par_tasks_total"] == 0 {
				t.Errorf("par_tasks_total = 0: the driver's tasks never reached the par instruments")
			}
			for _, name := range deterministic {
				if seqCounts[name] != parCounts[name] {
					t.Errorf("%s: sequential %d vs parallel %d", name, seqCounts[name], parCounts[name])
				}
			}

			// Telemetry + parallel tracing must not change the output.
			prog, err := callcost.Compile(p.Source)
			if err != nil {
				t.Fatal(err)
			}
			bare, err := prog.AllocateWithOptions(callcost.ImprovedAll(),
				callcost.NewConfig(6, 4, 0, 0), prog.StaticFreq(), callcost.DefaultAllocOptions())
			if err != nil {
				t.Fatal(err)
			}
			comparePlans(t, p.Name+" telemetry-sequential", bare, seqAlloc)
			comparePlans(t, p.Name+" telemetry-parallel", bare, parAlloc)
		})
	}
}

// TestTraceParallelSequencerCoversEveryEvent checks the Seq contract
// under interleaved emission: a concurrency-safe counting sink sees
// every sequence number 1..N exactly once even with 8 workers.
func TestTraceParallelSequencerCoversEveryEvent(t *testing.T) {
	p := benchprog.ByName("fpppp")
	prog, err := callcost.Compile(p.Source)
	if err != nil {
		t.Fatal(err)
	}
	sink := &seqSink{seen: make(map[uint64]int)}
	opts := callcost.WithTracer(callcost.DefaultAllocOptions(), sink)
	opts.Parallel = 8
	opts.TraceParallel = true
	if _, err := prog.AllocateWithOptions(callcost.ImprovedAll(),
		callcost.NewConfig(6, 4, 0, 0), prog.StaticFreq(), opts); err != nil {
		t.Fatal(err)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.seen) == 0 {
		t.Fatal("no events emitted")
	}
	for n := uint64(1); n <= uint64(len(sink.seen)); n++ {
		if sink.seen[n] != 1 {
			t.Fatalf("seq %d emitted %d times, want exactly once (of %d events)",
				n, sink.seen[n], len(sink.seen))
		}
	}
}

type seqSink struct {
	mu   sync.Mutex
	seen map[uint64]int
}

func (s *seqSink) Enabled() bool { return true }
func (s *seqSink) Emit(ev callcost.TraceEvent) {
	s.mu.Lock()
	s.seen[ev.Seq]++
	s.mu.Unlock()
}
