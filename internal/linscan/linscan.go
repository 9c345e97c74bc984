// Package linscan implements a graph-free linear-scan register
// allocator in the LuaJIT/Mono tradition: blocks are walked backward so
// liveness falls out of the walk, no interference graph is built and no
// simplify stack is kept, and each virtual register is summarized by an
// ordered set of live segments (with holes at def-dead-redef gaps and
// across blocks where it is not live) plus the conservative [start,end]
// hull over them. Scanning the intervals once assigns registers; the
// paper's benefit_caller/benefit_callee split (Lueh & Gross §4) steers
// every choice between a caller-save and a callee-save register, and
// move-affinity plus call-site argument hints place values
// optimistically where a later instruction wants them. When a bank is
// blocked the scan binpacks second-chance style (Traub et al.): a
// register may be assigned into a hole of an already-occupied physical
// register when their segment sets are disjoint, and a conflicting
// resident that blocks the bank is displaced and immediately re-seated
// into another register's holes when one accepts it — the bank
// reshuffles instead of spilling. Ranges that lose their register
// outright get one more pass against the committed assignment before
// they fall to memory.
//
// The allocator plugs into the same pass pipeline as the coloring
// strategies (liveness → scan → spill-rewrite); the Hybrid strategy
// adds a second tier that escalates to full graph coloring for the
// functions the scan would spill.
package linscan

import (
	"math"
	"sort"

	"repro/internal/bitset"
	"repro/internal/freq"
	"repro/internal/interproc"
	"repro/internal/ir"
	"repro/internal/liveness"
	"repro/internal/machine"
)

// funcIntervals is the product of one backward analysis walk: the live
// segments, conservative hull, spill/caller costs, and placement hints
// of every virtual register of one function.
type funcIntervals struct {
	// segs[r] is r's ordered set of disjoint live segments in the
	// doubled slot space (see segments.go).
	segs []segList
	// start/end bound each register's segment hull in slots
	// (start > end means the register never occurs live).
	start, end []int32
	// spillCost is the paper's weighted spill cost: one store per
	// definition plus one load per distinct use per instruction, each
	// weighted by block frequency.
	spillCost []float64
	// callerCost is 2×freq per call site the register is live across.
	callerCost []float64
	// crossesCall marks registers live across at least one call.
	crossesCall []bool
	// affinity links a move's source and destination; taking the
	// partner's register makes the move a no-op shuffle.
	affinity []ir.Reg
	// hint is the optimistic placement wish: call arguments and
	// parameters prefer the caller-save register of their argument
	// position.
	hint []machine.PhysReg
	// entry is the function's entry frequency; the callee-save benefit
	// is spillCost − 2×entry (one save and one restore per invocation).
	entry float64
}

// live reports whether r ever occurs or is live.
func (fi *funcIntervals) live(r int) bool { return fi.start[r] <= fi.end[r] }

// analyze performs the single backward walk. Positions number the
// instructions in block layout order, doubled into read/write slots
// with one extra boundary slot per block covering its live-out set
// (segments.go), so the segments of a register cover every slot where
// it is live or written: a register live at a point is either
// upward-exposed there (its segment reaches the block start), defined
// earlier in the block (the defining write slot opens a segment), or
// live-out (the boundary slot covers the block end). Two
// simultaneously-live registers therefore always have intersecting
// segments — the conservative superset of true interference that makes
// the scan sound without a graph — while registers that are never live
// at once keep disjoint segment sets the scan can pack into one
// physical register.
// cc, when non-nil, replaces the static 2×freq caller-save charge at
// call sites whose callee has a published interprocedural summary with
// the callee's measured clobber factor (0 — the callee preserves the
// bank — means the site is not a crossing for that bank at all).
func analyze(fn *ir.Func, live *liveness.Info, ff *freq.FuncFreq, config machine.Config, sb *segBuilder, cc *interproc.Table) *funcIntervals {
	nr := fn.NumRegs()
	fi := &funcIntervals{
		start:       make([]int32, nr),
		end:         make([]int32, nr),
		spillCost:   make([]float64, nr),
		callerCost:  make([]float64, nr),
		crossesCall: make([]bool, nr),
		affinity:    make([]ir.Reg, nr),
		hint:        make([]machine.PhysReg, nr),
		entry:       ff.Entry,
	}
	for r := 0; r < nr; r++ {
		fi.start[r] = math.MaxInt32
		fi.end[r] = -1
		fi.affinity[r] = ir.NoReg
		fi.hint[r] = machine.NoPhysReg
	}

	// Parameters arrive in order; hint each one at the caller-save
	// register of its position in its bank, so a parameter that dies
	// before the first call tends to stay where it arrived.
	var paramIdx [ir.NumClasses]int
	for _, p := range fn.Params {
		c := fn.RegClass(p)
		if i := paramIdx[c]; i < config.Caller[c] {
			fi.hint[p] = machine.PhysReg(i)
		}
		paramIdx[c]++
	}

	sb.reset(nr)
	pos := int32(0)
	for _, b := range fn.Blocks {
		n := int32(len(b.Instrs))
		boundary := pos + n
		w := ff.Block[b.ID]
		live.Out[b.ID].ForEach(func(r int) { sb.open(ir.Reg(r), boundarySlot(boundary)) })

		live.WalkBlockIndexed(b, func(i int, in *ir.Instr, liveAfter *bitset.Set) {
			ip := pos + int32(i)
			if in.Op == ir.OpCall {
				// liveAfter at a call is exactly the set of registers
				// live across the call site.
				dst := ir.NoReg
				if in.HasDst() {
					dst = in.Dst
				}
				var factor [ir.NumClasses]float64
				for c := range factor {
					factor[c] = 2
				}
				if cc != nil {
					for c := range factor {
						factor[c] = cc.CrossFactor(in.Callee, ir.Class(c))
					}
				}
				liveAfter.ForEach(func(r int) {
					if ir.Reg(r) == dst {
						return
					}
					f := factor[fn.RegClass(ir.Reg(r))]
					if f == 0 {
						return
					}
					fi.callerCost[r] += f * w
					fi.crossesCall[r] = true
				})
				// Arguments are consumed in caller-save registers; hint
				// each at the register of its position so the value is
				// already there when the call needs it.
				var argIdx [ir.NumClasses]int
				for _, a := range in.Args {
					c := fn.RegClass(a)
					j := argIdx[c]
					argIdx[c]++
					if fi.hint[a] == machine.NoPhysReg && j < config.Caller[c] {
						fi.hint[a] = machine.PhysReg(j)
					}
				}
			}
			if in.Op == ir.OpMove {
				fi.affinity[in.Dst] = in.Args[0]
				fi.affinity[in.Args[0]] = in.Dst
			}
			if in.HasDst() {
				fi.spillCost[in.Dst] += w
				sb.close(in.Dst, writeSlot(ip))
			}
			for ai, a := range in.Args {
				sb.open(a, readSlot(ip))
				dup := false
				for _, prev := range in.Args[:ai] {
					if prev == a {
						dup = true
						break
					}
				}
				if !dup {
					fi.spillCost[a] += w
				}
			}
		})
		sb.flushBlock(readSlot(pos))
		pos = boundary + 1
	}

	fi.segs = sb.finalize()

	// The entry receive writes every colored parameter's register,
	// dead-on-entry or not, so every occurring parameter occupies the
	// pre-entry write slot. Without this, a parameter whose incoming
	// value is dead (overwritten before any read) could share a
	// register with a live one, and the receive would clobber it.
	const entrySlot = int32(-1)
	for _, p := range fn.Params {
		s := fi.segs[p]
		if len(s) == 0 || s[0].from <= entrySlot {
			continue
		}
		if s[0].from-entrySlot <= 2 {
			// Adjacent to the first segment: extend it (the merge
			// invariant of finalize — gaps of at most two slots are
			// handoffs, not holes — holds for the entry slot too).
			s[0].from = entrySlot
		} else {
			fi.segs[p] = append(segList{{from: entrySlot, to: entrySlot}}, s...)
		}
	}

	for r := 0; r < nr; r++ {
		if s := fi.segs[r]; len(s) > 0 {
			fi.start[r] = s[0].from
			fi.end[r] = s[len(s)-1].to
		}
	}
	return fi
}

// benefits returns the paper's two benefit functions for register r:
// what keeping it in a caller-save register saves over memory, and the
// same for a callee-save register.
func (fi *funcIntervals) benefits(r int) (benefitCaller, benefitCallee float64) {
	return fi.spillCost[r] - fi.callerCost[r], fi.spillCost[r] - 2*fi.entry
}

// prefersCallee applies the storage-class rule: a register wants
// callee-save exactly when that benefit strictly beats the caller-save
// benefit (only possible for call-crossing ranges).
func (fi *funcIntervals) prefersCallee(r int) bool {
	bcaller, bcallee := fi.benefits(r)
	return fi.crossesCall[r] && bcallee > bcaller
}

// Assignment paths recorded per register, for the obs events and the
// telemetry counters.
const (
	viaScan   uint8 = iota // free register at first chance
	viaHole                // binpacked into a hole of an occupied register
	viaSecond              // assigned by the second-chance pass after losing its first
)

// scanOutcome is the result of scanning one function's intervals: the
// flat coloring, the registers to spill (in decision order, so stack
// slots number deterministically), and the estimated overhead of the
// allocation (the hybrid tier's escalation signal).
type scanOutcome struct {
	colors       []machine.PhysReg
	spilled      []ir.Reg
	spillReasons []string
	// via records each colored register's assignment path.
	via []uint8
	// holeAssigns/secondChance count the binpacking decisions.
	holeAssigns, secondChance int
	// pressureSpills counts the spills forced by register pressure
	// (reasonPressure) as opposed to chosen by the cost model; only
	// these signal that the scan's packing failed.
	pressureSpills int
	// estOverhead approximates the allocation's weighted memory-op
	// overhead: caller-save saves around calls, callee-save entry/exit
	// saves (paid once per callee-save register however many ranges
	// share it), and the spill cost of everything sent to memory.
	estOverhead float64
}

// errUnspillable reports a bank whose pressure from unspillable spill
// temporaries alone exceeds the register file — impossible under the
// machine model's minimum configuration, but reported rather than
// looped on.
type errUnspillable struct {
	fn    string
	class ir.Class
}

func (e errUnspillable) Error() string {
	return "linscan: " + e.fn + ": unspillable " + e.class.String() + " pressure exceeds the register bank"
}

// scanItem is one interval entering the scan, ordered by decreasing
// end position: the scan mirrors the backward walk, sweeping from the
// function's last position toward its entry.
type scanItem struct {
	reg        ir.Reg
	start, end int32
}

// occupant is one register resident in a physical register whose hull
// still overlaps the sweep point.
type occupant struct {
	reg   ir.Reg
	start int32
}

// scan allocates one bank's intervals. noSpill marks registers that
// must never be sent to memory (spill temporaries of earlier rounds).
func (fi *funcIntervals) scan(fn *ir.Func, class ir.Class, config machine.Config, noSpill func(ir.Reg) bool, out *scanOutcome) error {
	n := config.Total(class)
	items := make([]scanItem, 0, 32)
	for r := 0; r < fn.NumRegs(); r++ {
		if fn.RegClass(ir.Reg(r)) != class || !fi.live(r) {
			continue
		}
		items = append(items, scanItem{reg: ir.Reg(r), start: fi.start[r], end: fi.end[r]})
	}
	// Decreasing end, ties by register number: deterministic and in
	// reverse execution order, matching the analysis walk.
	sortItems(items)

	// Per-color occupancy. occ holds the active residents — hulls still
	// overlapping the sweep point, mirroring the classic active list —
	// while assigned keeps every committed resident for the
	// second-chance pass at the end. taken caches len(occ) > 0 for the
	// free-register pick.
	occ := make([][]occupant, n)
	assigned := make([][]ir.Reg, n)
	taken := make([]bool, n)
	var pending []ir.Reg

	spill := func(r ir.Reg, reason string) {
		out.spilled = append(out.spilled, r)
		out.spillReasons = append(out.spillReasons, reason)
		out.estOverhead += fi.spillCost[r]
		if reason == reasonPressure {
			out.pressureSpills++
		}
	}
	place := func(r ir.Reg, col machine.PhysReg, start int32, via uint8) {
		out.colors[r] = col
		out.via[r] = via
		occ[col] = append(occ[col], occupant{reg: r, start: start})
		assigned[col] = append(assigned[col], r)
		taken[col] = true
	}

	for _, it := range items {
		r := int(it.reg)
		// Expire: an active interval starting above the current end can
		// no longer overlap anything, because every remaining interval
		// ends at or below this one.
		for col := range occ {
			o := occ[col]
			for j := 0; j < len(o); {
				if o[j].start > it.end {
					o[j] = o[len(o)-1]
					o = o[:len(o)-1]
				} else {
					j++
				}
			}
			occ[col] = o
			taken[col] = len(o) > 0
		}

		bcaller, bcallee := fi.benefits(r)
		// Spill by choice (§4): a call-crossing range whose residence in
		// either register kind costs more than memory goes to memory.
		if fi.crossesCall[r] && !noSpill(it.reg) && bcaller < 0 && bcallee < 0 {
			spill(it.reg, reasonChoice)
			continue
		}

		preferCallee := fi.prefersCallee(r)
		free := func(col machine.PhysReg) bool { return !taken[col] }
		if col := fi.pickBy(it.reg, class, config, n, out.colors, preferCallee, free); col != machine.NoPhysReg {
			place(it.reg, col, it.start, viaScan)
			continue
		}

		// Every register is occupied. First chance, hole assignment:
		// binpack the range into a register whose residents' segments
		// are all disjoint from its own.
		hole := func(col machine.PhysReg) bool {
			for _, o := range occ[col] {
				if fi.segs[o.reg].intersects(fi.segs[r]) {
					return false
				}
			}
			return true
		}
		if col := fi.pickBy(it.reg, class, config, n, out.colors, preferCallee, hole); col != machine.NoPhysReg {
			place(it.reg, col, it.start, viaHole)
			out.holeAssigns++
			continue
		}

		// Blocked: find the cheapest way to clear one register for the
		// item. A conflicting resident that can re-seat into a hole of
		// another register — checked against the committed assignment of
		// that register, so the move is always valid — displaces for
		// free: the bank reshuffles instead of spilling. A register whose
		// conflicts include an immovable unspillable temporary cannot be
		// cleared. The cheapest clearing is compared against surrendering
		// the item itself.
		reseatTarget := func(vr ir.Reg, exclude machine.PhysReg) machine.PhysReg {
			return fi.pickBy(vr, class, config, n, out.colors, fi.prefersCallee(int(vr)),
				func(col machine.PhysReg) bool {
					if col == exclude {
						return false
					}
					for _, a := range assigned[col] {
						if fi.segs[a].intersects(fi.segs[vr]) {
							return false
						}
					}
					return true
				})
		}
		evictCol, evictCost := machine.NoPhysReg, math.Inf(1)
		for i := 0; i < n; i++ {
			col := machine.PhysReg(i)
			cost, clear := 0.0, true
			for _, o := range occ[col] {
				if !fi.segs[o.reg].intersects(fi.segs[r]) {
					continue
				}
				if reseatTarget(o.reg, col) != machine.NoPhysReg {
					continue
				}
				if noSpill(o.reg) {
					clear = false
					break
				}
				cost += fi.spillCost[o.reg]
			}
			if clear && cost < evictCost {
				evictCol, evictCost = col, cost
			}
		}
		selfCost := math.Inf(1)
		if !noSpill(it.reg) {
			selfCost = fi.spillCost[r]
		}
		if evictCol == machine.NoPhysReg && math.IsInf(selfCost, 1) {
			return errUnspillable{fn: fn.Name, class: class}
		}
		if selfCost <= evictCost {
			// The item is the cheapest loser; it gets a second chance
			// against the committed assignment before going to memory.
			pending = append(pending, it.reg)
			continue
		}
		o := occ[evictCol]
		var displaced []ir.Reg
		for j := 0; j < len(o); {
			vr := o[j].reg
			if !fi.segs[vr].intersects(fi.segs[r]) {
				j++
				continue
			}
			out.colors[vr] = machine.NoPhysReg
			assigned[evictCol] = removeReg(assigned[evictCol], vr)
			displaced = append(displaced, vr)
			o[j] = o[len(o)-1]
			o = o[:len(o)-1]
		}
		occ[evictCol] = o
		place(it.reg, evictCol, it.start, viaScan)
		// Second chance, taken immediately: each displaced range re-seats
		// into a hole of another register if one accepts its whole
		// segment set. The evictor is already committed, so its old
		// register rejects it naturally; displaced residents of one
		// register are pairwise disjoint, so earlier re-seats never block
		// later ones. Whatever cannot re-seat falls back to the pending
		// pass.
		for _, vr := range displaced {
			if col := reseatTarget(vr, machine.NoPhysReg); col != machine.NoPhysReg {
				place(vr, col, fi.start[vr], viaSecond)
				out.secondChance++
				continue
			}
			pending = append(pending, vr)
		}
	}

	// Last call: surrendered ranges (and displaced ones that found no
	// hole at eviction time) get one more pass against the final
	// committed assignment — a later eviction may have cleared exactly
	// the residents that blocked them — before they fall to memory.
	for _, r := range pending {
		fit := func(col machine.PhysReg) bool {
			for _, a := range assigned[col] {
				if fi.segs[a].intersects(fi.segs[int(r)]) {
					return false
				}
			}
			return true
		}
		col := fi.pickBy(r, class, config, n, out.colors, fi.prefersCallee(int(r)), fit)
		if col == machine.NoPhysReg {
			spill(r, reasonPressure)
			continue
		}
		out.colors[r] = col
		out.via[r] = viaSecond
		assigned[col] = append(assigned[col], r)
		out.secondChance++
	}

	// Price the bank's outcome: one save/restore pair per callee-save
	// register used — shared by every range binpacked into it, which is
	// how hole assignment amortizes the 2×entry cost the benefit split
	// charges — plus the caller-save cost of each call-crossing
	// resident. Spill costs were added as the decisions were made.
	calleeUsed := make([]bool, n)
	for _, it := range items {
		col := out.colors[it.reg]
		if col == machine.NoPhysReg {
			continue
		}
		if config.IsCalleeSave(class, col) {
			if !calleeUsed[col] {
				calleeUsed[col] = true
				out.estOverhead += 2 * fi.entry
			}
		} else if fi.crossesCall[int(it.reg)] {
			out.estOverhead += fi.callerCost[it.reg]
		}
	}
	return nil
}

// removeReg deletes the first occurrence of r by swap-removal.
func removeReg(s []ir.Reg, r ir.Reg) []ir.Reg {
	for i, a := range s {
		if a == r {
			s[i] = s[len(s)-1]
			return s[:len(s)-1]
		}
	}
	return s
}

// pickBy chooses a register for r among the ones fits accepts: the
// move partner's register first (a no-op shuffle), then the positional
// hint — both only within the benefit-preferred save kind, because
// optimistic placement must not override the storage-class decision —
// then the first fitting register of the preferred kind, falling back
// to the first fitting register of any kind. NoPhysReg means nothing
// fits.
func (fi *funcIntervals) pickBy(r ir.Reg, class ir.Class, config machine.Config, ncol int, colors []machine.PhysReg, preferCallee bool, fits func(machine.PhysReg) bool) machine.PhysReg {
	usable := func(col machine.PhysReg) bool {
		return col != machine.NoPhysReg && int(col) < ncol &&
			config.IsCalleeSave(class, col) == preferCallee && fits(col)
	}
	if p := fi.affinity[r]; p != ir.NoReg {
		if col := colors[p]; usable(col) {
			return col
		}
	}
	if col := fi.hint[r]; usable(col) {
		return col
	}
	first := machine.NoPhysReg
	for i := 0; i < ncol; i++ {
		col := machine.PhysReg(i)
		if !fits(col) {
			continue
		}
		if first == machine.NoPhysReg {
			first = col
		}
		if config.IsCalleeSave(class, col) == preferCallee {
			return col
		}
	}
	return first
}

// sortItems orders by decreasing end, then increasing register.
func sortItems(items []scanItem) {
	sort.Slice(items, func(i, j int) bool {
		if items[i].end != items[j].end {
			return items[i].end > items[j].end
		}
		return items[i].reg < items[j].reg
	})
}

// Spill reasons carried into the obs SpillChoice events.
const (
	reasonChoice   = "negative-benefit"
	reasonPressure = "blocked"
)
