package obs

import "sync/atomic"

// Sequencer wraps a sink and stamps every event with a monotonic
// per-run sequence number (Event.Seq, starting at 1) at emit time, and
// with the run's process-unique id (Event.Run), so sinks shared by
// concurrent runs can tell their events apart.
//
// The driver installs one Sequencer per program allocation, shared by
// every function of the run. Under sequential allocation the stamped
// stream is identical run to run; under parallel allocation
// (Options.TraceParallel) events from different functions interleave
// nondeterministically in the output, but Seq records the real emission
// order, so a JSONL stream can be sorted into the stable total order
// the sink's serialization alone no longer guarantees.
type Sequencer struct {
	inner Tracer
	run   uint64
	n     atomic.Uint64
}

// runs numbers the Sequencers of the process.
var runs atomic.Uint64

// NewSequencer returns tr wrapped with sequence stamping. A nil or
// disabled tracer is returned unchanged (nothing to stamp). An already
// wrapped tracer is not re-wrapped.
func NewSequencer(tr Tracer) Tracer {
	if tr == nil || !tr.Enabled() {
		return tr
	}
	if _, ok := tr.(*Sequencer); ok {
		return tr
	}
	return &Sequencer{inner: tr, run: runs.Add(1)}
}

// Enabled implements Tracer.
func (s *Sequencer) Enabled() bool { return s.inner.Enabled() }

// Emit implements Tracer: assign the run id and the next sequence
// number, then forward.
func (s *Sequencer) Emit(ev Event) {
	ev.Run = s.run
	ev.Seq = s.n.Add(1)
	s.inner.Emit(ev)
}
