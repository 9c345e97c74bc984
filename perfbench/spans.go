package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval of a traced replay: a call into one layer.
// Spans of one request share req; parent is the index of the enclosing
// span, -1 for a request's root.
type span struct {
	name       string
	req        int
	parent     int
	start, end time.Duration // since the recorder's epoch
}

func (s span) dur() time.Duration { return s.end - s.start }

// recorder keeps the spans of a single-threaded replay in memory. A nil
// recorder records nothing, so untraced code paths share the traced
// ones.
type recorder struct {
	epoch time.Time
	spans []span
	open  []int
	req   int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span under the innermost open one and returns its id.
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{name: name, req: r.req, parent: parent, start: time.Since(r.epoch)})
	id := len(r.spans) - 1
	r.open = append(r.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].end = time.Since(r.epoch)
	r.open = r.open[:len(r.open)-1]
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover. Overlapping children count once.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ a, b time.Duration }
		ivs := make([]iv, 0, len(children[i]))
		for _, c := range children[i] {
			a, b := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, reach time.Duration
		reach = s.start
		for _, v := range ivs {
			if v.a > reach {
				reach = v.a
			}
			if v.b > reach {
				covered += v.b - reach
				reach = v.b
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// layerTotals sums self time and call count per span name, and the
// duration of all root spans.
func layerTotals(spans []span) (self map[string]time.Duration, calls map[string]int, total time.Duration) {
	st := selfTimes(spans)
	self = make(map[string]time.Duration)
	calls = make(map[string]int)
	for i, s := range spans {
		self[s.name] += st[i]
		calls[s.name]++
		if s.parent < 0 {
			total += s.dur()
		}
	}
	return self, calls, total
}

// saveSpans writes a traced run's spans to
// <out>/traces/<workload>-seed<n>.jsonl.
func saveSpans(o *options, spans []span) error {
	dir := filepath.Join(o.out, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	if err := writeSpans(path, spans); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(spans), path)
	return nil
}

// writeSpans writes the spans as JSON lines, with microsecond times.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	st := selfTimes(spans)
	enc := json.NewEncoder(w)
	for i, s := range spans {
		rec := struct {
			ID      int     `json:"id"`
			Req     int     `json:"req"`
			Parent  int     `json:"parent"`
			Name    string  `json:"name"`
			StartUs float64 `json:"start_us"`
			DurUs   float64 `json:"dur_us"`
			SelfUs  float64 `json:"self_us"`
		}{i, s.req, s.parent, s.name, us(s.start), us(s.dur()), us(st[i])}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
