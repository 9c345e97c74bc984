// Package liverange computes the per-live-range costs at the heart of
// the paper's model (§3-§4):
//
//	spill_cost(lr)   — weighted count of the loads/stores spill code
//	                   would execute if lr lived in memory;
//	caller_cost(lr)  — weighted save/restore operations if lr lived in
//	                   a caller-save register: two memory operations
//	                   per execution of every call lr is live across;
//	callee_cost(f)   — two memory operations per invocation of the
//	                   function, the entry/exit save/restore of one
//	                   callee-save register;
//
// and from them the two benefit functions:
//
//	benefit_caller(lr) = spill_cost(lr) − caller_cost(lr)
//	benefit_callee(lr) = spill_cost(lr) − callee_cost(f)
//
// All weights come from a freq.FuncFreq, so the same analysis serves the
// "static" (estimated) and "dynamic" (profiled) experiments.
package liverange

import (
	"sort"

	"repro/internal/bitset"
	"repro/internal/freq"
	"repro/internal/interference"
	"repro/internal/interproc"
	"repro/internal/ir"
	"repro/internal/liveness"
)

// Range aggregates the allocation-relevant facts of one live range
// (one representative node of the interference graph).
type Range struct {
	Rep   ir.Reg
	Class ir.Class

	// SpillCost is the weighted number of memory operations spill code
	// for this range would execute.
	SpillCost float64
	// CallerCost is the weighted number of save/restore operations if
	// the range lives in a caller-save register.
	CallerCost float64
	// CalleeCost is the weighted entry/exit save/restore cost of one
	// callee-save register of the enclosing function.
	CalleeCost float64

	// BenefitCaller = SpillCost - CallerCost (paper §4).
	BenefitCaller float64
	// BenefitCallee = SpillCost - CalleeCost (paper §4).
	BenefitCallee float64

	// Refs counts static occurrences (defs+uses).
	Refs int
	// Size is the number of basic blocks the range is live in or
	// referenced in — the denominator of Chow's priority function.
	Size int
	// CrossesCall reports whether the range is live across any call.
	CrossesCall bool
	// NoSpill marks spill-code temporaries that must stay in registers.
	NoSpill bool
}

// PrefersCallee reports the storage class this range would pick with
// both kinds available (paper §4: callee-save iff benefit_callee >
// benefit_caller).
func (r *Range) PrefersCallee() bool { return r.BenefitCallee > r.BenefitCaller }

// CallSite describes one call instruction and the live ranges crossing
// it, used by the preference-decision pass (paper §6).
type CallSite struct {
	Block *ir.Block
	Index int
	// Freq is the weighted execution frequency of the call.
	Freq float64
	// Crossing lists the representative live ranges live across the
	// call, per register bank, in increasing register order.
	Crossing [ir.NumClasses][]ir.Reg
}

// Set is the result of analyzing one function under one frequency
// model.
type Set struct {
	Fn     *ir.Func
	Ranges map[ir.Reg]*Range
	Calls  []CallSite
	// EntryFreq is the function's invocation count/estimate.
	EntryFreq float64

	// byRep is Ranges as a flat register-indexed slice — the allocator
	// looks ranges up in its hottest loops (simplify keys, spill
	// heuristics), where a map access is measurable.
	byRep []*Range
}

// Of returns the Range of the representative rep (nil if rep is not a
// node).
func (s *Set) Of(rep ir.Reg) *Range {
	if int(rep) < len(s.byRep) {
		return s.byRep[rep]
	}
	return s.Ranges[rep]
}

// Analyze computes the ranges of fn. graphs supplies the per-bank
// interference graphs (used for the representative mapping), ff the
// frequencies, and noSpill the set of spill-temporary registers.
func Analyze(fn *ir.Func, live *liveness.Info, graphs *[ir.NumClasses]*interference.Graph, ff *freq.FuncFreq, noSpill func(ir.Reg) bool) *Set {
	return AnalyzeWith(nil, fn, live, graphs, ff, noSpill)
}

// AnalyzeWith is Analyze consuming a prebuilt BlockMap for the Size
// metric (the shared round-0 map, for instance); bm must cover fn's
// current blocks and registers. A nil bm builds one on the spot, which
// is how Analyze runs — so both paths share every line of the cost
// computation.
func AnalyzeWith(bm *BlockMap, fn *ir.Func, live *liveness.Info, graphs *[ir.NumClasses]*interference.Graph, ff *freq.FuncFreq, noSpill func(ir.Reg) bool) *Set {
	return AnalyzeCosts(bm, fn, live, graphs, ff, noSpill, nil)
}

// AnalyzeCosts is AnalyzeWith under an interprocedural summary table:
// at call sites whose callee has a published summary, the static
// caller_save_cost estimate (2 per crossing) is replaced by the
// callee's measured clobber factor. A factor of 0 — the callee
// provably preserves the whole bank — means the site is not a crossing
// for ranges of that bank at all: no CrossesCall, no CallerCost, no
// entry in the site's Crossing list (so the §6 preference pass ignores
// it too). A nil table reproduces AnalyzeWith bit for bit.
func AnalyzeCosts(bm *BlockMap, fn *ir.Func, live *liveness.Info, graphs *[ir.NumClasses]*interference.Graph, ff *freq.FuncFreq, noSpill func(ir.Reg) bool, cc *interproc.Table) *Set {
	nr := fn.NumRegs()
	s := &Set{
		Fn:        fn,
		Ranges:    make(map[ir.Reg]*Range),
		byRep:     make([]*Range, nr),
		EntryFreq: ff.Entry,
	}
	// The representative of a register is stable for the whole analysis,
	// and the loops below resolve every operand occurrence — memoize the
	// union-find lookups in a flat slice.
	repOf := make([]ir.Reg, nr)
	for i := range repOf {
		repOf[i] = ir.NoReg
	}
	find := func(r ir.Reg) ir.Reg {
		rep := repOf[r]
		if rep == ir.NoReg {
			rep = graphs[fn.RegClass(r)].Find(r)
			repOf[r] = rep
		}
		return rep
	}
	// Range structs are carved from chunked backing arrays (pointers
	// must stay stable once handed out) instead of one heap object per
	// range.
	var chunk []Range
	rangeOf := func(rep ir.Reg) *Range {
		rg := s.byRep[rep]
		if rg == nil {
			if len(chunk) == cap(chunk) {
				chunk = make([]Range, 0, 64)
			}
			chunk = append(chunk, Range{
				Rep:           rep,
				Class:         fn.RegClass(rep),
				CalleeCost:    2 * ff.Entry,
				BenefitCallee: -2 * ff.Entry,
			})
			rg = &chunk[len(chunk)-1]
			s.byRep[rep] = rg
			s.Ranges[rep] = rg
		}
		return rg
	}

	// Reference counts and spill cost: one memory operation per def
	// (store) and per distinct use in an instruction (load), weighted
	// by block frequency. seen dedups an instruction's uses by
	// representative; instructions have a handful of operands, so a
	// linear scan beats a map.
	seen := make([]ir.Reg, 0, 16)
	for _, b := range fn.Blocks {
		w := ff.Block[b.ID]
		for i := range b.Instrs {
			in := &b.Instrs[i]
			seen = seen[:0]
		args:
			for _, a := range in.Args {
				rep := find(a)
				for _, p := range seen {
					if p == rep {
						continue args
					}
				}
				seen = append(seen, rep)
				rg := rangeOf(rep)
				rg.Refs++
				rg.SpillCost += w
				if noSpill != nil && noSpill(a) {
					rg.NoSpill = true
				}
			}
			if in.HasDst() {
				rg := rangeOf(find(in.Dst))
				rg.Refs++
				rg.SpillCost += w
				if noSpill != nil && noSpill(in.Dst) {
					rg.NoSpill = true
				}
			}
		}
	}

	// Size: blocks where the range is live-in, live-out, or referenced.
	// A range's block set is the union of its coalesced members' rows in
	// the block map (every register in a live set or an instruction
	// resolves to its representative through find, so the member union
	// reproduces the classic per-representative scan exactly).
	if bm == nil {
		bm = NewBlockMap(fn, live)
	}
	sizeScratch := bitset.New(len(fn.Blocks))
	for rep, rg := range s.Ranges {
		rg.Size = bm.sizeOfRange(graphs[rg.Class], rep, sizeScratch)
	}

	// Call crossings: caller-save cost is two memory operations per
	// crossed call execution. The per-site representative dedup reuses a
	// flat flag array, reset through the touched list.
	crossFlag := make([]bool, nr)
	touched := make([]ir.Reg, 0, 32)
	live.LiveAcrossCalls(func(b *ir.Block, idx int, call *ir.Instr, crossing *bitset.Set) {
		w := ff.Block[b.ID]
		site := CallSite{Block: b, Index: idx, Freq: w}
		var factor [ir.NumClasses]float64
		for c := range factor {
			factor[c] = 2
		}
		if cc != nil {
			for c := range factor {
				factor[c] = cc.CrossFactor(call.Callee, ir.Class(c))
			}
		}
		for _, r := range touched {
			crossFlag[r] = false
		}
		touched = touched[:0]
		crossing.ForEach(func(i int) {
			rep := find(ir.Reg(i))
			if crossFlag[rep] {
				return
			}
			crossFlag[rep] = true
			touched = append(touched, rep)
			rg := s.byRep[rep]
			if rg == nil {
				// Live range with no references (possible only for
				// unused params); skip.
				return
			}
			if factor[rg.Class] == 0 {
				// The callee preserves this whole bank: the range does
				// not cross this call in any cost-relevant sense.
				return
			}
			rg.CrossesCall = true
			rg.CallerCost += factor[rg.Class] * w
			site.Crossing[rg.Class] = append(site.Crossing[rg.Class], rep)
		})
		for c := range site.Crossing {
			sort.Slice(site.Crossing[c], func(i, j int) bool {
				return site.Crossing[c][i] < site.Crossing[c][j]
			})
		}
		s.Calls = append(s.Calls, site)
	})

	// Benefits.
	for _, rg := range s.Ranges {
		rg.BenefitCaller = rg.SpillCost - rg.CallerCost
		rg.BenefitCallee = rg.SpillCost - rg.CalleeCost
	}

	// Deterministic call ordering: by block, then index.
	sort.Slice(s.Calls, func(i, j int) bool {
		if s.Calls[i].Block.ID != s.Calls[j].Block.ID {
			return s.Calls[i].Block.ID < s.Calls[j].Block.ID
		}
		return s.Calls[i].Index < s.Calls[j].Index
	})
	return s
}
