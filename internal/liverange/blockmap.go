package liverange

import (
	"repro/internal/bitset"
	"repro/internal/interference"
	"repro/internal/ir"
	"repro/internal/liveness"
)

// BlockMap is the liveness-shaped half of the live-range Size metric:
// for every virtual register, the set of blocks where it is live-in,
// live-out, or referenced. Analyze derives a range's Size by unioning
// the per-register sets of the range's coalesced members and counting —
// exactly the block set the classic per-representative scan touches.
//
// The map depends only on the function and its liveness, so the
// round-0 map is built once per function and shared, frozen, by every
// allocation of it (pipeline.FuncCache).
type BlockMap struct {
	// perReg[r] holds the blocks where register r is live or
	// referenced; sets are sized to the function's block count.
	perReg []*bitset.Set
}

// NewBlockMap scans fn under live and builds the full map.
func NewBlockMap(fn *ir.Func, live *liveness.Info) *BlockMap {
	nb := len(fn.Blocks)
	nr := fn.NumRegs()
	bm := &BlockMap{perReg: make([]*bitset.Set, nr)}
	for r := range bm.perReg {
		bm.perReg[r] = bitset.New(nb)
	}
	col := bitset.New(nr)
	for _, b := range fn.Blocks {
		col.Clear()
		fillColumn(col, fn, live, b)
		id := b.ID
		col.ForEach(func(r int) { bm.perReg[r].Add(id) })
	}
	return bm
}

// fillColumn computes the live-or-referenced register set of block b.
func fillColumn(col *bitset.Set, fn *ir.Func, live *liveness.Info, b *ir.Block) {
	col.UnionWith(live.In[b.ID])
	col.UnionWith(live.Out[b.ID])
	for i := range b.Instrs {
		in := &b.Instrs[i]
		for _, a := range in.Args {
			col.Add(int(a))
		}
		if in.HasDst() {
			col.Add(int(in.Dst))
		}
	}
}

// Of returns the set of blocks where register r is live or referenced.
// The set is shared with the map; callers must treat it as read-only.
// Out of range (a register newer than the map) returns nil, which reads
// as the empty set.
func (bm *BlockMap) Of(r ir.Reg) *bitset.Set {
	if int(r) >= len(bm.perReg) {
		return nil
	}
	return bm.perReg[r]
}

// sizeOfRange counts the blocks where any member of rep's live range
// is live or referenced, accumulating into scratch (sized to the block
// count). It walks the graph's member cycle directly instead of
// materializing the member slice (union is order-insensitive, so the
// unsorted walk gives the same count).
func (bm *BlockMap) sizeOfRange(g *interference.Graph, rep ir.Reg, scratch *bitset.Set) int {
	scratch.Clear()
	g.ForEachMember(rep, func(m ir.Reg) {
		scratch.UnionWith(bm.perReg[m])
	})
	return scratch.Count()
}
