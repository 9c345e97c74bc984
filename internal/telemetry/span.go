package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Span kinds, from root to leaf: one program allocation contains
// function spans, a function contains its build→color→spill rounds,
// and a round contains the pipeline pass executions.
const (
	SpanProgram  = "program"
	SpanFunction = "function"
	SpanRound    = "round"
	SpanPass     = "pass"
)

// Span is one node of the hierarchical trace: a program, function,
// round, or pass execution, linked to its parent by ID.
type Span struct {
	ID     uint64
	Parent uint64
	Kind   string
	Name   string // function name, "round N", or pass name
	Fn     string // enclosing function (empty on the program span)
	Round  int
	Seq    uint64 // sequence number of the opening event, if stamped
	Start  time.Time
	Dur    time.Duration
}

// MarshalJSON renders the span with a flat, stable field set (dur_us
// like the obs JSONL stream).
func (s Span) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		ID     uint64  `json:"id"`
		Parent uint64  `json:"parent"`
		Kind   string  `json:"kind"`
		Name   string  `json:"name"`
		Fn     string  `json:"fn,omitempty"`
		Round  int     `json:"round"`
		Seq    uint64  `json:"seq,omitempty"`
		Start  string  `json:"start"`
		DurUS  float64 `json:"dur_us"`
	}{s.ID, s.Parent, s.Kind, s.Name, s.Fn, s.Round, s.Seq,
		s.Start.Format(time.RFC3339Nano), float64(s.Dur.Nanoseconds()) / 1e3})
}

// openFn is the in-flight span state of one function of one run.
// Events of one function are emitted by a single goroutine in pipeline
// order, so this state machine is sequential per function; the
// recorder's mutex makes interleaved functions (Options.TraceParallel)
// and concurrent runs safe.
type openFn struct {
	span      Span
	round     Span
	roundOpen bool
	pass      Span
	passOpen  bool
	last      time.Time
}

// fnKey identifies one function of one allocation run.
type fnKey struct {
	run uint64
	fn  string
}

// DefaultSpanCapacity bounds the completed-span ring buffer of a
// recorder built with NewSpanRecorder(0).
const DefaultSpanCapacity = 4096

// SpanRecorder is an obs.Tracer that derives the span hierarchy from
// the allocator's event stream: phase_start/phase_end events open and
// close pass spans, round and function spans are inferred from the
// event fields, and everything nests under one program span per run.
// Completed spans land in a fixed-capacity ring buffer (the /spans
// endpoint serves it); Flush closes whatever is still open at the end
// of a run.
//
// The recorder is safe for concurrent emission: state is keyed by run
// (obs.Event.Run) and function, and one function's events always come
// from one goroutine, so concurrent runs that allocate functions of the
// same name keep separate spans.
type SpanRecorder struct {
	mu      sync.Mutex
	nextID  uint64
	program Span
	open    bool
	fns     map[fnKey]*openFn
	order   []fnKey // function discovery order, for Flush determinism

	ring  []Span
	head  int
	total uint64
}

// NewSpanRecorder returns a recorder keeping the last capacity
// completed spans (DefaultSpanCapacity when capacity <= 0).
func NewSpanRecorder(capacity int) *SpanRecorder {
	if capacity <= 0 {
		capacity = DefaultSpanCapacity
	}
	return &SpanRecorder{
		fns:  make(map[fnKey]*openFn),
		ring: make([]Span, 0, capacity),
	}
}

// Enabled implements obs.Tracer.
func (r *SpanRecorder) Enabled() bool { return true }

// Emit implements obs.Tracer.
func (r *SpanRecorder) Emit(ev obs.Event) {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.open {
		r.program = Span{ID: r.id(), Kind: SpanProgram, Name: "allocation", Start: now}
		r.open = true
	}
	key := fnKey{ev.Run, ev.Fn}
	f := r.fns[key]
	if f == nil {
		f = &openFn{span: Span{
			ID: r.id(), Parent: r.program.ID, Kind: SpanFunction,
			Name: ev.Fn, Fn: ev.Fn, Seq: ev.Seq, Start: now,
		}}
		r.fns[key] = f
		r.order = append(r.order, key)
	}
	f.last = now
	switch ev.Kind {
	case obs.KindPhaseStart:
		if f.roundOpen && f.round.Round != ev.Round {
			r.finish(f.round, now)
			f.roundOpen = false
		}
		if !f.roundOpen {
			f.round = Span{
				ID: r.id(), Parent: f.span.ID, Kind: SpanRound,
				Name: fmt.Sprintf("round %d", ev.Round), Fn: ev.Fn,
				Round: ev.Round, Seq: ev.Seq, Start: now,
			}
			f.roundOpen = true
		}
		f.pass = Span{
			ID: r.id(), Parent: f.round.ID, Kind: SpanPass,
			Name: ev.Phase, Fn: ev.Fn, Round: ev.Round, Seq: ev.Seq, Start: now,
		}
		f.passOpen = true
	case obs.KindPhaseEnd:
		if f.passOpen {
			sp := f.pass
			sp.Dur = ev.Dur
			if sp.Dur <= 0 {
				sp.Dur = now.Sub(sp.Start)
			}
			r.push(sp)
			f.passOpen = false
		}
	}
}

// Flush closes every open span — passes, rounds, functions, and the
// program — and resets the recorder for the next run. Call it after an
// allocation completes; the completed spans stay in the ring.
func (r *SpanRecorder) Flush() {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, key := range r.order {
		f := r.fns[key]
		if f.passOpen {
			r.finish(f.pass, now)
		}
		if f.roundOpen {
			r.finish(f.round, f.last)
		}
		r.finish(f.span, f.last)
	}
	if r.open {
		r.finish(r.program, now)
	}
	r.fns = make(map[fnKey]*openFn)
	r.order = nil
	r.open = false
}

// Spans returns the completed spans, oldest first.
func (r *SpanRecorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.ring) < cap(r.ring) {
		return append([]Span(nil), r.ring...)
	}
	out := make([]Span, 0, len(r.ring))
	out = append(out, r.ring[r.head:]...)
	return append(out, r.ring[:r.head]...)
}

// Total returns how many spans have completed over the recorder's
// lifetime (including any evicted from the ring).
func (r *SpanRecorder) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// WriteJSON writes the completed spans as one JSON document.
func (r *SpanRecorder) WriteJSON(w io.Writer) error {
	spans := r.Spans()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Total uint64 `json:"total"`
		Spans []Span `json:"spans"`
	}{r.Total(), spans})
}

// WriteFlame renders the completed spans as an indented flame-style
// tree: every span under its parent, with wall time and a bar scaled to
// the enclosing program span. Orphans (parents evicted from the ring)
// render as roots.
func (r *SpanRecorder) WriteFlame(w io.Writer) error {
	spans := r.Spans()
	children := make(map[uint64][]int, len(spans))
	byID := make(map[uint64]bool, len(spans))
	for _, sp := range spans {
		byID[sp.ID] = true
	}
	var roots []int
	for i, sp := range spans {
		if sp.Parent == 0 || !byID[sp.Parent] {
			roots = append(roots, i)
		} else {
			children[sp.Parent] = append(children[sp.Parent], i)
		}
	}
	var render func(i, depth int, scale time.Duration) error
	render = func(i, depth int, scale time.Duration) error {
		sp := spans[i]
		if depth == 0 && sp.Dur > 0 {
			scale = sp.Dur
		}
		bar := ""
		if scale > 0 {
			n := int(40 * sp.Dur / scale)
			if n > 40 {
				n = 40
			}
			bar = strings.Repeat("▇", n)
		}
		label := sp.Name
		if sp.Kind == SpanRound {
			label = fmt.Sprintf("%s (%s)", sp.Name, sp.Fn)
		}
		if _, err := fmt.Fprintf(w, "%s%-*s %10.1fµs  %s\n",
			strings.Repeat("  ", depth), 28-2*depth, label,
			float64(sp.Dur.Nanoseconds())/1e3, bar); err != nil {
			return err
		}
		kids := children[sp.ID]
		sort.SliceStable(kids, func(a, b int) bool {
			return spans[kids[a]].Start.Before(spans[kids[b]].Start)
		})
		for _, k := range kids {
			if err := render(k, depth+1, scale); err != nil {
				return err
			}
		}
		return nil
	}
	for _, root := range roots {
		if err := render(root, 0, spans[root].Dur); err != nil {
			return err
		}
	}
	return nil
}

// id allocates the next span ID (caller holds the mutex).
func (r *SpanRecorder) id() uint64 {
	r.nextID++
	return r.nextID
}

// finish completes sp at end and pushes it to the ring (caller holds
// the mutex).
func (r *SpanRecorder) finish(sp Span, end time.Time) {
	sp.Dur = end.Sub(sp.Start)
	r.push(sp)
}

// push appends one completed span to the ring (caller holds the mutex).
func (r *SpanRecorder) push(sp Span) {
	r.total++
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, sp)
		return
	}
	r.ring[r.head] = sp
	r.head = (r.head + 1) % cap(r.ring)
}
