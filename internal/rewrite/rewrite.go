// Package rewrite implements the framework's last phases: spill-code
// insertion and the materialization of calling-convention overhead
// (caller-save save/restore around calls, callee-save save/restore at
// entry/exit) into an executable plan.
//
// Spill code follows Chaitin's spill-everywhere discipline: every use
// of a spilled live range loads from its stack slot into a fresh
// short-lived temporary just before the instruction, and every
// definition stores from a fresh temporary just after. The temporaries
// are marked unspillable; their live ranges span a couple of
// instructions, so they are unconstrained in any realistic register
// file.
package rewrite

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/cfg"
	"repro/internal/ir"
	"repro/internal/liveness"
	"repro/internal/machine"
	"repro/internal/regalloc"
)

// InsertSpills rewrites fn in place so that the virtual registers in
// spill live in their stack slots. newTemp is called for every
// temporary created, letting the driver mark them unspillable. Spill
// slots are appended to fn.Locals (each distinct slot once). The
// rewrite never changes the block structure (count, IDs, terminator
// targets): it only inserts loads and stores and renames occurrences
// within blocks.
func InsertSpills(fn *ir.Func, spill map[ir.Reg]*ir.Symbol, newTemp func(ir.Reg)) {
	// Register the slots as locals in increasing spilled-register order:
	// map iteration order would randomize the frame layout (and with it
	// the assembly text) between otherwise identical runs.
	regs := make([]ir.Reg, 0, len(spill))
	for r := range spill {
		regs = append(regs, r)
	}
	regalloc.SortRegs(regs)
	added := make(map[*ir.Symbol]bool)
	for _, r := range regs {
		if slot := spill[r]; !added[slot] {
			added[slot] = true
			fn.Locals = append(fn.Locals, slot)
		}
	}

	// Spilled parameters: the incoming value arrives in a register, so
	// the parameter is replaced with an unspillable temporary that is
	// stored to the slot at function entry.
	var entryStores []ir.Instr
	for i, p := range fn.Params {
		slot, ok := spill[p]
		if !ok {
			continue
		}
		t := fn.NewReg(fn.RegClass(p), "")
		newTemp(t)
		fn.Params[i] = t
		entryStores = append(entryStores, ir.Instr{
			Op: ir.OpStore, Dst: ir.NoReg, Sym: slot, Args: []ir.Reg{t},
		})
	}

	// Flat slot lookup: the per-operand probe below is the hottest line
	// of the rewrite, and the map version of it dominated the phase.
	// Temporaries minted during the rewrite index past the end (they are
	// never spilled), hence the bound check in slotOf.
	slots := make([]*ir.Symbol, fn.NumRegs())
	for r, s := range spill {
		slots[r] = s
	}
	slotOf := func(r ir.Reg) *ir.Symbol {
		if int(r) < len(slots) {
			return slots[r]
		}
		return nil
	}

	// Per-instruction load dedup, reused across the whole walk: a
	// handful of operands per instruction, so two parallel slices beat
	// a map.
	loadedRegs := make([]ir.Reg, 0, 8)
	loadedTmps := make([]ir.Reg, 0, 8)
	for _, b := range fn.Blocks {
		// First pass: count the loads and stores this block needs, so
		// untouched blocks are skipped without copying and touched ones
		// get an exactly-sized instruction slice.
		entry := b.ID == 0 && len(entryStores) > 0
		extra := 0
		for i := range b.Instrs {
			in := &b.Instrs[i]
		scan:
			for ai, a := range in.Args {
				if slotOf(a) == nil {
					continue
				}
				for _, p := range in.Args[:ai] {
					if p == a {
						continue scan
					}
				}
				extra++
			}
			if in.HasDst() && slotOf(in.Dst) != nil {
				extra++
			}
		}
		if extra == 0 && !entry {
			continue
		}

		out := make([]ir.Instr, 0, len(b.Instrs)+len(entryStores)+extra)
		if entry {
			out = append(out, entryStores...)
		}
		for i := range b.Instrs {
			in := b.Instrs[i]
			// Loads for spilled uses, one per distinct spilled register
			// per instruction.
			loadedRegs = loadedRegs[:0]
			loadedTmps = loadedTmps[:0]
			for ai, a := range in.Args {
				slot := slotOf(a)
				if slot == nil {
					continue
				}
				t := ir.NoReg
				for li, p := range loadedRegs {
					if p == a {
						t = loadedTmps[li]
						break
					}
				}
				if t == ir.NoReg {
					t = fn.NewReg(fn.RegClass(a), "")
					newTemp(t)
					loadedRegs = append(loadedRegs, a)
					loadedTmps = append(loadedTmps, t)
					out = append(out, ir.Instr{
						Op: ir.OpLoad, Dst: t, Sym: slot, Args: []ir.Reg{}, Pos: in.Pos,
					})
				}
				in.Args[ai] = t
			}
			// Store for a spilled definition.
			if in.HasDst() {
				if slot := slotOf(in.Dst); slot != nil {
					t := fn.NewReg(fn.RegClass(in.Dst), "")
					newTemp(t)
					in.Dst = t
					out = append(out, in)
					out = append(out, ir.Instr{
						Op: ir.OpStore, Dst: ir.NoReg, Sym: slot, Args: []ir.Reg{t}, Pos: in.Pos,
					})
					continue
				}
			}
			out = append(out, in)
		}
		b.Instrs = out
	}
}

// CallSave lists the caller-save physical registers that must be saved
// and restored around one call site because a live range assigned to
// them is live across the call.
type CallSave struct {
	Regs [ir.NumClasses][]machine.PhysReg
}

// Count returns the number of registers saved at the site.
func (cs *CallSave) Count() int {
	n := 0
	for c := range cs.Regs {
		n += len(cs.Regs[c])
	}
	return n
}

// FuncPlan is the executable allocation plan of one function: the
// rewritten body plus everything the machine-level interpreter and the
// analytic cost model need.
type FuncPlan struct {
	Alloc *regalloc.FuncAlloc
	// CallSaves is keyed by {blockID, instruction index} of each call.
	CallSaves map[[2]int]*CallSave
	// CalleeUsed lists the callee-save registers the allocation uses
	// anywhere in the function (these are saved at entry and restored
	// at exit).
	CalleeUsed [ir.NumClasses][]machine.PhysReg
}

// BuildPlan derives the save/restore plan from a finished allocation.
func BuildPlan(fa *regalloc.FuncAlloc) *FuncPlan {
	fn := fa.Fn
	plan := &FuncPlan{
		Alloc:     fa,
		CallSaves: make(map[[2]int]*CallSave),
	}

	// Callee-save registers used anywhere.
	var used [ir.NumClasses]map[machine.PhysReg]bool
	for c := range used {
		used[c] = make(map[machine.PhysReg]bool)
	}
	occurs := occurrence(fn)
	for r := 0; r < fn.NumRegs(); r++ {
		reg := ir.Reg(r)
		if !occurs[r] {
			continue
		}
		col := fa.Colors[r]
		if col == machine.NoPhysReg {
			continue
		}
		c := fn.RegClass(reg)
		if fa.Config.IsCalleeSave(c, col) {
			used[c][col] = true
		}
	}
	for c := range used {
		for col := range used[c] {
			plan.CalleeUsed[c] = append(plan.CalleeUsed[c], col)
		}
		sortPhys(plan.CalleeUsed[c])
	}

	// Caller-save registers live across each call.
	live := allocLiveness(fa)
	live.LiveAcrossCalls(func(b *ir.Block, idx int, call *ir.Instr, crossing *bitset.Set) {
		cs := &CallSave{}
		var seen [ir.NumClasses]map[machine.PhysReg]bool
		for c := range seen {
			seen[c] = make(map[machine.PhysReg]bool)
		}
		crossing.ForEach(func(i int) {
			reg := ir.Reg(i)
			col := fa.Colors[reg]
			if col == machine.NoPhysReg {
				return
			}
			c := fn.RegClass(reg)
			if fa.Config.IsCallerSave(c, col) && !seen[c][col] {
				seen[c][col] = true
				cs.Regs[c] = append(cs.Regs[c], col)
			}
		})
		for c := range cs.Regs {
			sortPhys(cs.Regs[c])
		}
		plan.CallSaves[[2]int{b.ID, idx}] = cs
	})
	return plan
}

func sortPhys(rs []machine.PhysReg) {
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && rs[j] < rs[j-1]; j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}

// allocLiveness returns liveness for fa.Fn, reusing the final-round
// result the allocator recorded (through a private fork, so concurrent
// plan builds never share walk scratch). Only a hand-constructed
// FuncAlloc carries none; for those the result is computed once and
// memoized on fa, so Validate followed by BuildPlan solves the
// dataflow a single time. (Allocator-produced FuncAllocs always carry
// liveness, so the memoizing write only happens on the single-threaded
// hand-built path.)
func allocLiveness(fa *regalloc.FuncAlloc) *liveness.Info {
	if fa.Live == nil || fa.Live.Fn != fa.Fn {
		fa.Live = liveness.Compute(fa.Fn, cfg.New(fa.Fn))
	}
	return fa.Live.Fork()
}

// occurrence reports which virtual registers appear in the function
// body. Parameters are not included: a parameter that is never read
// (dead on arrival) needs no register — its incoming value is simply
// dropped.
func occurrence(fn *ir.Func) []bool {
	occ := make([]bool, fn.NumRegs())
	for _, b := range fn.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.HasDst() {
				occ[in.Dst] = true
			}
			for _, a := range in.Args {
				occ[a] = true
			}
		}
	}
	return occ
}

// Validate checks that the allocation is sound: every occurring
// virtual register has a color in its own bank, and no two
// simultaneously-live registers of the same bank share a color (with
// the standard exception of a move's source and destination, which hold
// the same value). This is the property that makes the rewritten
// program execute correctly on the machine-level interpreter.
func Validate(fa *regalloc.FuncAlloc) error {
	fn := fa.Fn
	live := allocLiveness(fa)

	occurs := occurrence(fn)
	for _, p := range fn.Params {
		// A parameter needs a register exactly when its incoming value
		// is read (live into the entry block).
		if live.In[0].Has(int(p)) {
			occurs[p] = true
		}
	}
	for r := 0; r < fn.NumRegs(); r++ {
		if !occurs[r] {
			continue
		}
		col := fa.Colors[r]
		if col == machine.NoPhysReg {
			return fmt.Errorf("%s: v%d occurs but has no register", fn.Name, r)
		}
		c := fn.RegClass(ir.Reg(r))
		if int(col) >= fa.Config.Total(c) {
			return fmt.Errorf("%s: v%d assigned %d outside bank %s of %s", fn.Name, r, col, c, fa.Config)
		}
	}
	var err error
	check := func(d ir.Reg, liveAfter *bitset.Set, moveSrc ir.Reg) {
		if err != nil {
			return
		}
		dc := fn.RegClass(d)
		dcol := fa.Colors[d]
		liveAfter.ForEach(func(i int) {
			r := ir.Reg(i)
			if r == d || r == moveSrc || fn.RegClass(r) != dc {
				return
			}
			if fa.Colors[r] == dcol && err == nil {
				err = fmt.Errorf("%s: v%d and v%d both in %s register %d while simultaneously live",
					fn.Name, d, r, dc, dcol)
			}
		})
	}
	for _, b := range fn.Blocks {
		live.WalkBlock(b, func(in *ir.Instr, after *bitset.Set) {
			if !in.HasDst() {
				return
			}
			src := ir.NoReg
			if in.Op == ir.OpMove {
				src = in.Args[0]
			}
			check(in.Dst, after, src)
		})
	}
	if err != nil {
		return err
	}
	// Parameters are defined simultaneously at entry.
	for i, p := range fn.Params {
		if !live.In[0].Has(int(p)) {
			continue
		}
		for _, q := range fn.Params[i+1:] {
			if !live.In[0].Has(int(q)) || fn.RegClass(p) != fn.RegClass(q) {
				continue
			}
			if fa.Colors[p] == fa.Colors[q] {
				return fmt.Errorf("%s: parameters v%d and v%d share %s register %d",
					fn.Name, p, q, fn.RegClass(p), fa.Colors[p])
			}
		}
	}
	return nil
}
