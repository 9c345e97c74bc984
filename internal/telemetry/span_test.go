package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// emitRun feeds r a synthetic two-round allocation of fn.
func emitRun(r *SpanRecorder, fn string, rounds int) {
	for round := 0; round < rounds; round++ {
		for _, phase := range []string{obs.PhaseLiveness, obs.PhaseColor} {
			r.Emit(obs.Event{Kind: obs.KindPhaseStart, Fn: fn, Round: round, Phase: phase})
			r.Emit(obs.Event{Kind: obs.KindPhaseEnd, Fn: fn, Round: round, Phase: phase,
				Dur: time.Millisecond})
		}
	}
}

func TestSpanHierarchy(t *testing.T) {
	r := NewSpanRecorder(0)
	emitRun(r, "f", 2)
	emitRun(r, "g", 1)
	r.Flush()

	spans := r.Spans()
	byKind := map[string][]Span{}
	byID := map[uint64]Span{}
	for _, sp := range spans {
		byKind[sp.Kind] = append(byKind[sp.Kind], sp)
		byID[sp.ID] = sp
	}
	if n := len(byKind[SpanProgram]); n != 1 {
		t.Fatalf("program spans = %d, want 1", n)
	}
	if n := len(byKind[SpanFunction]); n != 2 {
		t.Fatalf("function spans = %d, want 2", n)
	}
	if n := len(byKind[SpanRound]); n != 3 {
		t.Fatalf("round spans = %d, want 3 (2 for f, 1 for g)", n)
	}
	if n := len(byKind[SpanPass]); n != 6 {
		t.Fatalf("pass spans = %d, want 6", n)
	}
	prog := byKind[SpanProgram][0]
	for _, fs := range byKind[SpanFunction] {
		if fs.Parent != prog.ID {
			t.Errorf("function %s parent = %d, want program %d", fs.Name, fs.Parent, prog.ID)
		}
	}
	for _, rs := range byKind[SpanRound] {
		parent, ok := byID[rs.Parent]
		if !ok || parent.Kind != SpanFunction || parent.Fn != rs.Fn {
			t.Errorf("round %q (fn %s) has wrong parent %+v", rs.Name, rs.Fn, parent)
		}
	}
	for _, ps := range byKind[SpanPass] {
		parent, ok := byID[ps.Parent]
		if !ok || parent.Kind != SpanRound || parent.Round != ps.Round {
			t.Errorf("pass %q has wrong parent %+v", ps.Name, parent)
		}
		if ps.Dur != time.Millisecond {
			t.Errorf("pass %q dur = %v, want the emitted 1ms", ps.Name, ps.Dur)
		}
	}
}

// TestSpanRecorderConcurrentFunctions is the parallel-allocation shape:
// many goroutines, one function each, interleaving into one recorder.
// Every function must still get a coherent span tree.
func TestSpanRecorderConcurrentFunctions(t *testing.T) {
	r := NewSpanRecorder(0)
	var wg sync.WaitGroup
	fns := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for _, fn := range fns {
		wg.Add(1)
		go func(fn string) {
			defer wg.Done()
			emitRun(r, fn, 3)
		}(fn)
	}
	wg.Wait()
	r.Flush()
	spans := r.Spans()
	rounds := map[string]int{}
	passes := map[string]int{}
	for _, sp := range spans {
		switch sp.Kind {
		case SpanRound:
			rounds[sp.Fn]++
		case SpanPass:
			passes[sp.Fn]++
		}
	}
	for _, fn := range fns {
		if rounds[fn] != 3 || passes[fn] != 6 {
			t.Errorf("fn %s: rounds=%d passes=%d, want 3/6", fn, rounds[fn], passes[fn])
		}
	}
}

// TestSpanRecorderSeparatesRuns interleaves two runs that allocate a
// function of the same name, as the parallel cells of an experiment
// sweep do: with state keyed by (run, function), each run keeps its own
// open pass instead of closing the other's.
func TestSpanRecorderSeparatesRuns(t *testing.T) {
	r := NewSpanRecorder(0)
	for _, kind := range []obs.Kind{obs.KindPhaseStart, obs.KindPhaseEnd} {
		for run := uint64(1); run <= 2; run++ {
			r.Emit(obs.Event{Kind: kind, Run: run, Fn: "main", Phase: obs.PhaseColor, Dur: time.Millisecond})
		}
	}
	r.Flush()
	count := map[string]int{}
	for _, sp := range r.Spans() {
		count[sp.Kind]++
	}
	if count[SpanFunction] != 2 || count[SpanPass] != 2 {
		t.Fatalf("function/pass spans = %d/%d, want 2/2", count[SpanFunction], count[SpanPass])
	}
}

func TestSpanRingEviction(t *testing.T) {
	r := NewSpanRecorder(4)
	emitRun(r, "f", 3) // 6 pass spans complete during the run
	r.Flush()
	spans := r.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring holds %d spans, want capacity 4", len(spans))
	}
	if r.Total() != 11 { // 6 passes + 3 rounds + 1 fn + 1 program
		t.Fatalf("total = %d, want 11", r.Total())
	}
	// The ring keeps the last spans to COMPLETE. Spans close leaf-first,
	// so the tail of a run is: last pass, last round, function, program.
	want := []string{SpanPass, SpanRound, SpanFunction, SpanProgram}
	for i, k := range want {
		if spans[i].Kind != k {
			t.Fatalf("ring[%d].Kind = %s, want %s (ring: %+v)", i, spans[i].Kind, k, spans)
		}
	}
}

func TestSpanJSONAndFlame(t *testing.T) {
	r := NewSpanRecorder(0)
	emitRun(r, "main", 1)
	r.Flush()

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Total uint64 `json:"total"`
		Spans []struct {
			Kind  string  `json:"kind"`
			Name  string  `json:"name"`
			DurUS float64 `json:"dur_us"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("span JSON invalid: %v\n%s", err, buf.String())
	}
	if doc.Total != 5 || len(doc.Spans) != 5 {
		t.Fatalf("total=%d spans=%d, want 5/5", doc.Total, len(doc.Spans))
	}

	buf.Reset()
	if err := r.WriteFlame(&buf); err != nil {
		t.Fatal(err)
	}
	flame := buf.String()
	for _, want := range []string{"allocation", "main", "round 0", obs.PhaseLiveness, obs.PhaseColor} {
		if !strings.Contains(flame, want) {
			t.Errorf("flame output missing %q:\n%s", want, flame)
		}
	}
	// The pass lines must be indented deeper than the function line.
	if !strings.Contains(flame, "      "+obs.PhaseLiveness) {
		t.Errorf("flame output not nested:\n%s", flame)
	}
}

func TestRecorderReusableAcrossRuns(t *testing.T) {
	r := NewSpanRecorder(0)
	emitRun(r, "f", 1)
	r.Flush()
	emitRun(r, "f", 1)
	r.Flush()
	programs := 0
	for _, sp := range r.Spans() {
		if sp.Kind == SpanProgram {
			programs++
		}
	}
	if programs != 2 {
		t.Fatalf("got %d program spans after two runs, want 2", programs)
	}
}
