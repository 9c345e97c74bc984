// Package liveness computes per-block live-variable information for IR
// functions with the standard backward dataflow:
//
//	in[b]  = use[b] ∪ (out[b] − def[b])
//	out[b] = ∪ over successors s of in[s]
//
// The solver is a sparse worklist iteration: blocks are seeded in
// postorder (the fast order for a backward problem) and a block's
// predecessors are re-enqueued only when its in[b] set actually
// changes. The union lattice gives the system a unique least fixpoint
// from the empty initialization, so the worklist schedule produces
// sets byte-identical to a dense round-robin sweep — a property the
// differential tests pin, on the original bodies and after spill
// rewrites alike.
//
// It also provides a backward per-instruction walk, which the
// interference builder and the call-crossing analysis share.
package liveness

import (
	"repro/internal/bitset"
	"repro/internal/cfg"
	"repro/internal/ir"
)

// Info holds the liveness sets of one function, indexed by block ID.
type Info struct {
	Fn  *ir.Func
	In  []*bitset.Set
	Out []*bitset.Set

	// Visited counts the block visits of the solve that produced this
	// Info — the sparse solver's work metric, surfaced by the obs
	// `liveness` event (blocks visited vs. len(Fn.Blocks)).
	Visited int

	// Scratch reused across WalkBlock and LiveAcrossCalls calls, so the
	// per-block walks allocate nothing after warm-up. Each walker owns
	// its own sets (WalkBlock inside a LiveAcrossCalls visit is fine),
	// but neither walker may be re-entered from its own visit callback,
	// and an Info must not be walked from two goroutines at once.
	walk     *bitset.Set
	callWalk *bitset.Set
	cross    *bitset.Set
	callIdx  []int
	callLive []*bitset.Set
}

// Fork returns a view of info sharing the immutable In/Out sets but
// owning fresh walk scratch, so several goroutines can walk one
// computed liveness result concurrently — each through its own fork.
// The sets themselves must no longer be mutated once forked.
func (info *Info) Fork() *Info {
	return &Info{Fn: info.Fn, In: info.In, Out: info.Out, Visited: info.Visited}
}

// localSets computes the use/def sets of block b into u and d. A use
// counts only when upward-exposed (not preceded by a def in the same
// block).
func localSets(b *ir.Block, u, d *bitset.Set) {
	for i := range b.Instrs {
		in := &b.Instrs[i]
		for _, a := range in.Args {
			if !d.Has(int(a)) {
				u.Add(int(a))
			}
		}
		if in.HasDst() {
			d.Add(int(in.Dst))
		}
	}
}

// Compute runs the dataflow to fixpoint.
func Compute(fn *ir.Func, g *cfg.Graph) *Info {
	n := len(fn.Blocks)
	nr := fn.NumRegs()
	info := &Info{
		Fn:  fn,
		In:  make([]*bitset.Set, n),
		Out: make([]*bitset.Set, n),
	}
	use := make([]*bitset.Set, n)
	def := make([]*bitset.Set, n)
	for i := 0; i < n; i++ {
		info.In[i] = bitset.New(nr)
		info.Out[i] = bitset.New(nr)
		use[i] = bitset.New(nr)
		def[i] = bitset.New(nr)
	}
	for _, b := range fn.Blocks {
		localSets(b, use[b.ID], def[b.ID])
	}

	// Only reachable blocks participate in the iteration — exactly the
	// blocks a dense sweep over the reverse postorder would visit — so
	// unreachable blocks keep empty In/Out sets.
	reach := make([]bool, n)
	for _, b := range g.RPO {
		reach[b] = true
	}
	inQ := make([]bool, n)
	queue := make([]int, 0, 2*n)
	enqueue := func(b int) {
		if !inQ[b] && reach[b] {
			inQ[b] = true
			queue = append(queue, b)
		}
	}
	// Seed every reachable block in postorder (reverse of RPO) for fast
	// convergence of the backward problem.
	for i := len(g.RPO) - 1; i >= 0; i-- {
		enqueue(g.RPO[i])
	}

	tmp := bitset.New(nr)
	for head := 0; head < len(queue); head++ {
		b := queue[head]
		inQ[b] = false
		info.Visited++
		out := info.Out[b]
		for _, s := range g.Succs[b] {
			out.UnionWith(info.In[s])
		}
		tmp.Copy(out)
		tmp.DiffWith(def[b])
		tmp.UnionWith(use[b])
		if !tmp.Equal(info.In[b]) {
			info.In[b].Copy(tmp)
			for _, p := range g.Preds[b] {
				enqueue(p)
			}
		}
	}
	return info
}

// WalkBlock visits the instructions of block b backwards, calling visit
// with each instruction and the set of registers live immediately after
// it. The set passed to visit is reused between calls; clone it to keep
// it. The walk mutates its own working set only.
func (info *Info) WalkBlock(b *ir.Block, visit func(in *ir.Instr, liveAfter *bitset.Set)) {
	info.WalkBlockIndexed(b, func(_ int, in *ir.Instr, liveAfter *bitset.Set) {
		visit(in, liveAfter)
	})
}

// WalkBlockIndexed is WalkBlock with the instruction's index in the
// block passed to visit, for clients that map instructions to layout
// positions (the linear-scan segment builder). The same reuse contract
// applies: liveAfter is a pooled set, clone it to keep it.
func (info *Info) WalkBlockIndexed(b *ir.Block, visit func(i int, in *ir.Instr, liveAfter *bitset.Set)) {
	if info.walk == nil {
		info.walk = bitset.New(info.Fn.NumRegs())
	}
	live := info.walk
	live.Copy(info.Out[b.ID])
	for i := len(b.Instrs) - 1; i >= 0; i-- {
		in := &b.Instrs[i]
		visit(i, in, live)
		if in.HasDst() {
			live.Remove(int(in.Dst))
		}
		for _, a := range in.Args {
			live.Add(int(a))
		}
	}
}

// LiveAcrossCalls returns, for every call instruction, the set of
// registers that are live across it (live immediately after the call and
// not defined by it): these are the ranges that would need caller-save
// save/restore if kept in caller-save registers. The callback receives
// the block, the instruction index, the call instruction, and the
// crossing set (reused; clone to keep).
func (info *Info) LiveAcrossCalls(visit func(b *ir.Block, idx int, call *ir.Instr, crossing *bitset.Set)) {
	nr := info.Fn.NumRegs()
	if info.cross == nil {
		info.cross = bitset.New(nr)
		info.callWalk = bitset.New(nr)
	}
	cross := info.cross
	for _, b := range info.Fn.Blocks {
		// Gather instruction indices of calls, then a single backward
		// walk computing live-after at each call. The index slice and
		// the per-call live sets are pooled on info.
		calls := info.callIdx[:0]
		live := info.callWalk
		live.Copy(info.Out[b.ID])
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := &b.Instrs[i]
			if in.Op == ir.OpCall {
				if len(calls) == len(info.callLive) {
					info.callLive = append(info.callLive, bitset.New(nr))
				}
				info.callLive[len(calls)].Copy(live)
				calls = append(calls, i)
			}
			if in.HasDst() {
				live.Remove(int(in.Dst))
			}
			for _, a := range in.Args {
				live.Add(int(a))
			}
		}
		info.callIdx = calls
		// Visit in forward order for deterministic iteration.
		for i := len(calls) - 1; i >= 0; i-- {
			idx := calls[i]
			call := &b.Instrs[idx]
			cross.Copy(info.callLive[i])
			if call.HasDst() {
				cross.Remove(int(call.Dst))
			}
			visit(b, idx, call, cross)
		}
	}
}
