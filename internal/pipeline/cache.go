package pipeline

import (
	"sync"

	"repro/internal/cfg"
	"repro/internal/freq"
	"repro/internal/interference"
	"repro/internal/ir"
	"repro/internal/liveness"
	"repro/internal/liverange"
)

// FuncCache caches the round-0 artifacts of one function that depend
// only on its IR — never on the strategy or the register configuration:
// the CFG, the liveness Info, and the per-class base interference
// graphs. Every allocation of the same function (a figure sweep runs
// dozens) shares one build; the AnalysisManager consumes the cache
// through copy-on-write interference.Snapshot views and liveness forks,
// so the cached artifacts stay frozen and may be used from many
// goroutines at once.
//
// Two further artifacts are configuration-independent and cached on
// top: the aggressively-coalesced round-0 graphs (the aggressive merge
// loop never reads k) and the round-0 live-range analysis per frequency
// table. They serve the default untraced coalesce configuration; every
// other mode falls back to computing its own from the base snapshots.
//
// The zero value is not usable; construct with NewFuncCache. All
// methods are safe for concurrent use.
type FuncCache struct {
	// Fn is the cached function. It must not be mutated once cached;
	// the allocator works on copy-on-write views and clones it lazily
	// before inserting spill code.
	Fn *ir.Func

	liveOnce sync.Once
	cfg      *cfg.Graph
	live     *liveness.Info

	baseOnce sync.Once
	base     [ir.NumClasses]*interference.Graph

	coalOnce  sync.Once
	coalesced [ir.NumClasses]*interference.Graph

	bmOnce sync.Once
	bm     *liverange.BlockMap

	mu     sync.Mutex
	ranges map[*freq.FuncFreq]*liverange.Set
}

// NewFuncCache wraps fn in an empty cache; artifacts are built lazily
// on first use.
func NewFuncCache(fn *ir.Func) *FuncCache { return &FuncCache{Fn: fn} }

// EnsureLive builds the CFG and liveness once. It reports whether this
// call did the work (i.e. the cache missed).
func (p *FuncCache) EnsureLive() (computed bool) {
	p.liveOnce.Do(func() {
		p.cfg = cfg.New(p.Fn)
		p.live = liveness.Compute(p.Fn, p.cfg)
		computed = true
	})
	return computed
}

// EnsureBase builds the per-class base interference graphs once. It
// reports whether this call did the work.
func (p *FuncCache) EnsureBase() (computed bool) {
	p.baseOnce.Do(func() {
		p.EnsureLive()
		live := p.live.Fork()
		for c := ir.Class(0); c < ir.NumClasses; c++ {
			p.base[c] = interference.Build(p.Fn, live, c)
		}
		computed = true
	})
	return computed
}

// CFG returns the cached control-flow graph.
func (p *FuncCache) CFG() *cfg.Graph {
	p.EnsureLive()
	return p.cfg
}

// Liveness returns the cached liveness result. It is frozen: callers
// that walk it must do so through their own Fork.
func (p *FuncCache) Liveness() *liveness.Info {
	p.EnsureLive()
	return p.live
}

// BaseGraph returns the frozen base interference graph of one bank.
// Callers that mutate must go through Snapshot.
func (p *FuncCache) BaseGraph(c ir.Class) *interference.Graph {
	p.EnsureBase()
	return p.base[c]
}

// Coalesced returns the frozen aggressively-coalesced round-0 graphs,
// building them once from base snapshots. The union-find is fully
// compressed before freezing so snapshot readers resolve Find in one
// hop.
func (p *FuncCache) Coalesced() *[ir.NumClasses]*interference.Graph {
	p.coalOnce.Do(func() {
		p.EnsureBase()
		for c := ir.Class(0); c < ir.NumClasses; c++ {
			g := p.base[c].Snapshot()
			// Aggressive coalescing never reads k, so one merged graph
			// serves every register configuration.
			g.Coalesce(false, 0)
			g.Compress()
			p.coalesced[c] = g
		}
	})
	return &p.coalesced
}

// BlockMap returns the frozen round-0 live-range block map, built once
// from the cached liveness. Like the other shared artifacts it must
// not be mutated.
func (p *FuncCache) BlockMap() *liverange.BlockMap {
	p.bmOnce.Do(func() {
		p.EnsureLive()
		p.bm = liverange.NewBlockMap(p.Fn, p.live.Fork())
	})
	return p.bm
}

// RangesFor returns the round-0 live-range analysis under ff, cached
// per frequency table. Round 0 has no spill temporaries yet, so the
// no-spill predicate is constant false and the result is shared by
// every cell that allocates this function under ff.
func (p *FuncCache) RangesFor(ff *freq.FuncFreq) *liverange.Set {
	cg := p.Coalesced()
	bm := p.BlockMap()
	p.mu.Lock()
	defer p.mu.Unlock()
	if s, ok := p.ranges[ff]; ok {
		return s
	}
	var graphs [ir.NumClasses]*interference.Graph
	for c := range cg {
		graphs[c] = cg[c].Snapshot()
	}
	live := p.live.Fork()
	s := liverange.AnalyzeWith(bm, p.Fn, live, &graphs, ff, func(ir.Reg) bool { return false })
	if p.ranges == nil {
		p.ranges = make(map[*freq.FuncFreq]*liverange.Set)
	}
	p.ranges[ff] = s
	return s
}
