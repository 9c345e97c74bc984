package pipeline_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/compile"
	"repro/internal/interference"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/pipeline"
)

const testSrc = `
int f(int a, int b) { return a + b; }
int main() { return f(1, 2); }`

func testFunc(t *testing.T) *ir.Func {
	t.Helper()
	prog, err := compile.Source(testSrc)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return prog.FuncByName["f"]
}

func TestAnalysisSetOps(t *testing.T) {
	s := pipeline.NewSet(pipeline.AnalysisCFG, pipeline.AnalysisLiveness)
	if !s.Has(pipeline.AnalysisCFG) || !s.Has(pipeline.AnalysisLiveness) {
		t.Error("members missing from NewSet result")
	}
	if s.Has(pipeline.AnalysisInterference) {
		t.Error("non-member reported present")
	}
	s = s.With(pipeline.AnalysisInterference)
	if !s.Has(pipeline.AnalysisInterference) {
		t.Error("With did not add")
	}
	s = s.Without(pipeline.AnalysisCFG)
	if s.Has(pipeline.AnalysisCFG) {
		t.Error("Without did not remove")
	}
	if pipeline.PreserveAll.String() != "all" || pipeline.PreserveNone.String() != "none" {
		t.Errorf("sentinel strings: %q / %q", pipeline.PreserveAll, pipeline.PreserveNone)
	}
	got := pipeline.NewSet(pipeline.AnalysisLiveness, pipeline.AnalysisLiveRanges).String()
	if got != "liveness+liveranges" {
		t.Errorf("set string = %q", got)
	}
	for a := pipeline.Analysis(0); a < pipeline.NumAnalyses; a++ {
		if a.String() == "unknown" {
			t.Errorf("analysis %d has no name", a)
		}
	}
}

// stub is a scriptable Pass for runner tests.
type stub struct {
	name      string
	preserves pipeline.AnalysisSet
	run       func(*pipeline.State) error
	skip      func(*pipeline.State) bool
	post      func(*pipeline.State)
}

func (s stub) Name() string                    { return s.name }
func (s stub) Preserves() pipeline.AnalysisSet { return s.preserves }
func (s stub) Skip(st *pipeline.State) bool    { return s.skip != nil && s.skip(st) }
func (s stub) PostPhase(st *pipeline.State) {
	if s.post != nil {
		s.post(st)
	}
}
func (s stub) Run(st *pipeline.State) error {
	if s.run != nil {
		return s.run(st)
	}
	return nil
}

func TestPipelineEditOps(t *testing.T) {
	a := stub{name: "a", preserves: pipeline.PreserveAll}
	b := stub{name: "b", preserves: pipeline.PreserveAll}
	c := stub{name: "c", preserves: pipeline.PreserveNone}
	pl := pipeline.New(a, b, c)

	if got, want := fmt.Sprint(pl.Names()), "[a b c]"; got != want {
		t.Errorf("Names = %s, want %s", got, want)
	}
	if pl.String() != "a → b → c" {
		t.Errorf("String = %q", pl.String())
	}

	replaced := pl.Replace("b", stub{name: "b2"})
	if got := fmt.Sprint(replaced.Names()); got != "[a b2 c]" {
		t.Errorf("Replace: %s", got)
	}
	dropped := pl.Drop("b")
	if got := fmt.Sprint(dropped.Names()); got != "[a c]" {
		t.Errorf("Drop: %s", got)
	}
	// Value semantics: the original pipeline is untouched by edits.
	if got := fmt.Sprint(pl.Names()); got != "[a b c]" {
		t.Errorf("original mutated by edits: %s", got)
	}
	// Editing a missing name is a no-op, not a panic.
	if got := fmt.Sprint(pl.Replace("zzz", stub{name: "x"}).Names()); got != "[a b c]" {
		t.Errorf("Replace of missing name changed the pipeline: %s", got)
	}
	if got := fmt.Sprint(pl.Drop("zzz").Names()); got != "[a b c]" {
		t.Errorf("Drop of missing name changed the pipeline: %s", got)
	}
}

func newTestState(t *testing.T) *pipeline.State {
	t.Helper()
	cache := pipeline.NewFuncCache(testFunc(t))
	return pipeline.NewState(cache, nil, machine.NewConfig(8, 6, 4, 4), nil)
}

func TestRunnerRoundLimit(t *testing.T) {
	// A pass that spills every round never converges; the runner must
	// stop at the budget with a descriptive, matchable error.
	spin := stub{name: "spin", preserves: pipeline.PreserveAll, run: func(s *pipeline.State) error {
		s.SpillSet = map[ir.Reg]*ir.Symbol{1: nil}
		return nil
	}}
	r := &pipeline.Runner{Passes: []pipeline.Pass{spin}, MaxRounds: 3}
	rounds, err := r.Run(newTestState(t))
	if !errors.Is(err, pipeline.ErrRoundLimit) {
		t.Fatalf("err = %v, want ErrRoundLimit", err)
	}
	if rounds != 3 {
		t.Errorf("rounds = %d, want 3", rounds)
	}
}

func TestRunnerConvergesWhenSpillSetEmpties(t *testing.T) {
	spillOnce := stub{name: "once", preserves: pipeline.PreserveAll, run: func(s *pipeline.State) error {
		if s.Round == 0 {
			s.SpillSet = map[ir.Reg]*ir.Symbol{1: nil}
		}
		return nil
	}}
	r := &pipeline.Runner{Passes: []pipeline.Pass{spillOnce}}
	rounds, err := r.Run(newTestState(t))
	if err != nil {
		t.Fatal(err)
	}
	if rounds != 2 {
		t.Errorf("rounds = %d, want 2", rounds)
	}
}

func TestRunnerPassErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	bad := stub{name: "bad", run: func(*pipeline.State) error { return boom }}
	r := &pipeline.Runner{Passes: []pipeline.Pass{bad}}
	if _, err := r.Run(newTestState(t)); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

func TestRunnerSkipAndHooks(t *testing.T) {
	var ran, posted []string
	mk := func(name string, skip bool) stub {
		return stub{
			name:      name,
			preserves: pipeline.PreserveAll,
			skip:      func(*pipeline.State) bool { return skip },
			run:       func(*pipeline.State) error { ran = append(ran, name); return nil },
			post:      func(*pipeline.State) { posted = append(posted, name) },
		}
	}
	r := &pipeline.Runner{Passes: []pipeline.Pass{mk("a", false), mk("b", true), mk("c", false)}}
	if _, err := r.Run(newTestState(t)); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(ran); got != "[a c]" {
		t.Errorf("ran %s; a skipped pass must not run", got)
	}
	if got := fmt.Sprint(posted); got != "[a c]" {
		t.Errorf("posted %s; a skipped pass must not fire PostPhase", got)
	}
}

func TestRunnerInvalidationFollowsPreserves(t *testing.T) {
	var afterMark, afterKeep, afterWipe pipeline.AnalysisSet
	mark := stub{name: "mark", preserves: pipeline.PreserveAll,
		run: func(s *pipeline.State) error {
			s.AM.MarkValid(pipeline.AnalysisCFG)
			s.AM.MarkValid(pipeline.AnalysisLiveness)
			return nil
		},
		post: func(s *pipeline.State) { afterMark = s.AM.Valid() }}
	keep := stub{name: "keep", preserves: pipeline.NewSet(pipeline.AnalysisCFG),
		post: func(s *pipeline.State) { afterKeep = s.AM.Valid() }}
	wipe := stub{name: "wipe", preserves: pipeline.PreserveNone,
		post: func(s *pipeline.State) { afterWipe = s.AM.Valid() }}
	r := &pipeline.Runner{Passes: []pipeline.Pass{mark, keep, wipe}}
	if _, err := r.Run(newTestState(t)); err != nil {
		t.Fatal(err)
	}
	if !afterMark.Has(pipeline.AnalysisCFG) || !afterMark.Has(pipeline.AnalysisLiveness) {
		t.Errorf("after mark: %v", afterMark)
	}
	if !afterKeep.Has(pipeline.AnalysisCFG) || afterKeep.Has(pipeline.AnalysisLiveness) {
		t.Errorf("after keep: %v — preserved set not applied", afterKeep)
	}
	if afterWipe != pipeline.PreserveNone {
		t.Errorf("after wipe: %v, want none", afterWipe)
	}
}

func TestAnalysisManagerServesCacheViews(t *testing.T) {
	fn := testFunc(t)
	cache := pipeline.NewFuncCache(fn)

	am1 := pipeline.NewAnalysisManager(cache)
	if !am1.FromCache() {
		t.Fatal("fresh manager should be on the cached function")
	}
	live1, hit := am1.Liveness()
	if hit {
		t.Error("first liveness request against a cold cache reported a hit")
	}
	if live1 == cache.Liveness() {
		t.Error("manager handed out the shared liveness Info instead of a fork")
	}

	am2 := pipeline.NewAnalysisManager(cache)
	if _, hit := am2.Liveness(); !hit {
		t.Error("second manager on the same cache missed")
	}

	if hit := am1.Interference(); hit {
		t.Error("first interference request against a cold cache reported a hit")
	}
	for c := ir.Class(0); c < ir.NumClasses; c++ {
		base := am1.Base(c)
		if base == cache.BaseGraph(c) {
			t.Errorf("class %v: manager handed out the shared base graph, not a snapshot", c)
		}
		if !interference.EdgesEqual(base, cache.BaseGraph(c)) {
			t.Errorf("class %v: snapshot view disagrees with the cached graph", c)
		}
	}
	if hit := pipeline.NewAnalysisManager(cache).Interference(); !hit {
		t.Error("warm interference request missed")
	}
}

func TestAnalysisManagerInvalidationAndSetFunc(t *testing.T) {
	fn := testFunc(t)
	am := pipeline.NewAnalysisManager(pipeline.NewFuncCache(fn))
	am.Liveness()
	am.Interference()
	if v := am.Valid(); !v.Has(pipeline.AnalysisLiveness) || !v.Has(pipeline.AnalysisInterference) {
		t.Fatalf("valid = %v after materializing", v)
	}
	am.Invalidate(pipeline.NewSet(pipeline.AnalysisCFG))
	if v := am.Valid(); v.Has(pipeline.AnalysisLiveness) || !v.Has(pipeline.AnalysisCFG) {
		t.Errorf("valid = %v after partial invalidation", v)
	}

	clone := fn.Clone()
	am.SetFunc(clone)
	if am.FromCache() {
		t.Error("manager still claims the cached function after SetFunc")
	}
	if am.Valid() != pipeline.PreserveNone {
		t.Errorf("valid = %v after SetFunc, want none", am.Valid())
	}
	// Recomputation now targets the clone, not the cache.
	live, hit := am.Liveness()
	if hit || live == nil {
		t.Errorf("post-rewrite liveness: hit=%v live=%v", hit, live)
	}
}

func TestStateCloneFnIsLazyAndIdempotent(t *testing.T) {
	s := newTestState(t)
	orig := s.Fn
	s.CloneFn()
	if s.Fn == orig {
		t.Fatal("CloneFn did not clone")
	}
	clone := s.Fn
	s.CloneFn()
	if s.Fn != clone {
		t.Error("second CloneFn cloned again; the clone must be reused")
	}
	if s.Orig != orig {
		t.Error("original pointer lost")
	}
}

func TestStateWorkGraphsFillsMissingEntries(t *testing.T) {
	s := newTestState(t)
	s.AM.Liveness()
	s.AM.Interference()
	graphs := s.WorkGraphs()
	for c := ir.Class(0); c < ir.NumClasses; c++ {
		if graphs[c] == nil {
			t.Fatalf("class %v: WorkGraphs left a nil entry", c)
		}
		if graphs[c] == s.AM.Base(c) {
			t.Errorf("class %v: WorkGraphs handed out the base graph, not a snapshot", c)
		}
	}
}
