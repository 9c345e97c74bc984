// Package pipeline turns the register-allocation driver into an
// explicit pass pipeline: a typed Pass interface, a Pipeline that can
// be mutated (passes dropped, replaced, inserted) to express ablations
// as pipeline edits instead of boolean option plumbing, a Runner that
// executes one build→color→spill round per sweep and emits per-pass
// obs phase events automatically, and an AnalysisManager that owns the
// analysis artifacts (CFG, liveness, interference graphs, live ranges)
// with validity tracking driven by each pass's preserved set.
//
// The AnalysisManager subsumes the shared round-0 prep cache (FuncCache,
// formerly regalloc.PreparedFunc): while the working function is still
// the prepared original, a "valid" analysis is served as a copy-on-write
// view of the shared frozen artifact; after a spill rewrite invalidates
// it, the analysis is recomputed from scratch on the rewritten body.
//
// The concrete passes of the allocator (liveness, build-graph,
// coalesce, liverange, color, spill-rewrite) live in package regalloc,
// which depends on this package; the framework guarantees — identical
// output at any worker count, shared artifacts never written, phase
// events in program order — are unchanged from the pre-pipeline driver.
// The result digest table, the golden JSONL traces and the
// parallel-vs-sequential differential pin them.
package pipeline

import "strings"

// Analysis identifies one managed analysis artifact.
type Analysis uint8

const (
	// AnalysisCFG is the control-flow graph of the working function.
	AnalysisCFG Analysis = iota
	// AnalysisLiveness is the dataflow liveness solution.
	AnalysisLiveness
	// AnalysisInterference is the per-class base (uncoalesced)
	// interference graphs.
	AnalysisInterference
	// AnalysisLiveRanges is the cost/benefit live-range analysis.
	AnalysisLiveRanges
	// AnalysisBlockMap is the per-register live-or-referenced block map
	// feeding the live-range Size metric (liverange.BlockMap).
	AnalysisBlockMap

	// NumAnalyses is the number of managed analyses.
	NumAnalyses
)

// String names the analysis.
func (a Analysis) String() string {
	switch a {
	case AnalysisCFG:
		return "cfg"
	case AnalysisLiveness:
		return "liveness"
	case AnalysisInterference:
		return "interference"
	case AnalysisLiveRanges:
		return "liveranges"
	case AnalysisBlockMap:
		return "blockmap"
	}
	return "unknown"
}

// AnalysisSet is a bit set of analyses. A pass reports the set it
// preserves; the runner intersects the manager's valid set with it
// after the pass runs.
type AnalysisSet uint32

// The two common preserved sets: pure analysis and query passes
// preserve everything; a pass that rewrites the function (spill-code
// insertion) preserves nothing.
const (
	PreserveNone AnalysisSet = 0
	PreserveAll  AnalysisSet = 1<<NumAnalyses - 1
)

// NewSet builds a set from individual analyses.
func NewSet(as ...Analysis) AnalysisSet {
	var s AnalysisSet
	for _, a := range as {
		s |= 1 << a
	}
	return s
}

// Has reports whether a is in the set.
func (s AnalysisSet) Has(a Analysis) bool { return s&(1<<a) != 0 }

// With returns the set with a added.
func (s AnalysisSet) With(a Analysis) AnalysisSet { return s | 1<<a }

// Without returns the set with a removed.
func (s AnalysisSet) Without(a Analysis) AnalysisSet { return s &^ (1 << a) }

// String renders the set for the -passes listing: "all", "none", or
// the member names joined by "+".
func (s AnalysisSet) String() string {
	switch s {
	case PreserveNone:
		return "none"
	case PreserveAll:
		return "all"
	}
	var names []string
	for a := Analysis(0); a < NumAnalyses; a++ {
		if s.Has(a) {
			names = append(names, a.String())
		}
	}
	return strings.Join(names, "+")
}
