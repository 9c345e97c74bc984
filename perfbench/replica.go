package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro"
	"repro/internal/freq"
	"repro/internal/interference"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/pipeline"
	"repro/internal/regalloc"
	"repro/internal/resultcache"
	"repro/internal/rewrite"
	"repro/internal/server"
)

// replica is an in-process copy of the daemon's request core, built
// from the public call of each layer in the order Server.run makes
// them: decode, compile or IR decode, static frequencies, then per
// function key, cache, passes, validate and plan, and finally render
// and encode. With a recorder attached every call is a span, and every
// pass runs inside a timing wrapper.
type replica struct {
	cache *resultcache.Cache
	rec   *recorder

	// Allocation facts of the functions this replica colored.
	rounds, spilled, escalated int
}

func newReplica(rec *recorder) *replica {
	return &replica{cache: resultcache.New(0), rec: rec}
}

// serve processes one /allocate request body and returns the response
// bytes the daemon sends for it, the allocation it rendered, and the
// cache hits and misses of its functions.
func (r *replica) serve(body []byte) (out []byte, a *callcost.Allocation, hits, misses int, err error) {
	rec := r.rec
	root := rec.begin("request")
	defer rec.end(root)

	id := rec.begin("server.decode")
	var req server.Request
	err = json.Unmarshal(body, &req)
	rec.end(id)
	if err != nil {
		return nil, nil, 0, 0, fmt.Errorf("decode request: %w", err)
	}

	var prog *callcost.Program
	if req.Source != "" {
		id = rec.begin("compile")
		prog, err = callcost.Compile(req.Source)
		rec.end(id)
	} else {
		id = rec.begin("ir.decode")
		var p *ir.Program
		p, err = ir.DecodeProgram(req.IR)
		prog = &callcost.Program{IR: p}
		rec.end(id)
	}
	if err != nil {
		return nil, nil, 0, 0, err
	}

	id = rec.begin("server.resolve")
	config := machine.NewConfig(req.Config.RI, req.Config.RF, req.Config.EI, req.Config.EF)
	strat := callcost.Strategies()[req.Strategy]
	if strat == nil {
		rec.end(id)
		return nil, nil, 0, 0, fmt.Errorf("unknown strategy %q", req.Strategy)
	}
	opts := callcost.DefaultAllocOptions()
	pl := callcost.PipelineFor(strat, opts)
	names := pl.Names()
	if rec != nil {
		timed := timedPipeline(pl, rec)
		opts.Pipeline = &timed
	}
	prep := prog.Prepare()
	rec.end(id)

	id = rec.begin("freq.static")
	pf := prog.StaticFreq()
	rec.end(id)

	plans := make(map[string]*rewrite.FuncPlan, len(prog.IR.Funcs))
	for _, fn := range prog.IR.Funcs {
		ff := pf.ByFunc[fn.Name]
		if ff == nil {
			return nil, nil, 0, 0, fmt.Errorf("no frequency info for %s", fn.Name)
		}
		id = rec.begin("resultcache.key")
		key, kerr := resultcache.KeyFor(fn, ff, config, strat.Name(), names)
		rec.end(id)
		if kerr != nil {
			return nil, nil, 0, 0, kerr
		}
		id = rec.begin("resultcache.lookup")
		plan, hit, derr := r.cache.Do(key, func() (*rewrite.FuncPlan, error) {
			return r.allocate(prep.Func(fn.Name), ff, config, strat, opts)
		})
		rec.end(id)
		if derr != nil {
			return nil, nil, 0, 0, derr
		}
		if hit {
			hits++
		} else {
			misses++
		}
		plans[fn.Name] = plan
	}
	a = &callcost.Allocation{Program: prog, Config: config, Strategy: strat.Name(), Plans: plans}

	id = rec.begin("server.render")
	res := server.RenderResult(a, pf)
	rec.end(id)

	id = rec.begin("server.encode")
	var buf bytes.Buffer
	err = json.NewEncoder(&buf).Encode(&server.Response{Result: res, CacheHits: hits, CacheMisses: misses})
	rec.end(id)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	return buf.Bytes(), a, hits, misses, nil
}

// allocate is the compute side of a cache miss, as the daemon runs it:
// the pass pipeline, validation, the save/restore plan, and the same
// stripping of per-round artifacts before the plan is cached.
func (r *replica) allocate(pfn *pipeline.FuncCache, ff *freq.FuncFreq, config machine.Config,
	strat callcost.Strategy, opts callcost.AllocOptions) (*rewrite.FuncPlan, error) {
	rec := r.rec
	id := rec.begin("regalloc.allocate")
	fa, err := regalloc.AllocatePrepared(pfn, ff, config, strat, rewrite.InsertSpills, opts)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	id = rec.begin("rewrite.validate")
	err = rewrite.Validate(fa)
	rec.end(id)
	if err != nil {
		return nil, fmt.Errorf("%s produced an invalid allocation: %w", strat.Name(), err)
	}
	id = rec.begin("rewrite.plan")
	plan := rewrite.BuildPlan(fa)
	plan.Alloc.Ranges = nil
	plan.Alloc.Live = nil
	plan.Alloc.Graphs = [ir.NumClasses]*interference.Graph{}
	rec.end(id)

	r.rounds += fa.Rounds
	r.spilled += len(fa.SlotOf)
	if fa.Escalated {
		r.escalated++
	}
	return plan, nil
}

// timedPass runs a pass inside a span named after it. It keeps the
// pass's name, so cache keys do not change, and forwards the optional
// Skipper and PostPhaser extensions.
type timedPass struct {
	inner pipeline.Pass
	rec   *recorder
}

func (t timedPass) Name() string                    { return t.inner.Name() }
func (t timedPass) Preserves() pipeline.AnalysisSet { return t.inner.Preserves() }

func (t timedPass) Run(s *pipeline.State) error {
	id := t.rec.begin("pass:" + t.inner.Name())
	err := t.inner.Run(s)
	t.rec.end(id)
	return err
}

func (t timedPass) Skip(s *pipeline.State) bool {
	if sk, ok := t.inner.(pipeline.Skipper); ok {
		return sk.Skip(s)
	}
	return false
}

func (t timedPass) PostPhase(s *pipeline.State) {
	if pp, ok := t.inner.(pipeline.PostPhaser); ok {
		pp.PostPhase(s)
	}
}

// timedPipeline wraps every pass of pl in a timedPass.
func timedPipeline(pl callcost.PassPipeline, rec *recorder) callcost.PassPipeline {
	passes := pl.Passes()
	wrapped := make([]pipeline.Pass, len(passes))
	for i, p := range passes {
		wrapped[i] = timedPass{inner: p, rec: rec}
	}
	return pipeline.New(wrapped...)
}
