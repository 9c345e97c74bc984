package liveness_test

import (
	"fmt"
	"testing"

	"repro/internal/benchprog"
	"repro/internal/bitset"
	"repro/internal/cfg"
	"repro/internal/compile"
	"repro/internal/ir"
	"repro/internal/liveness"
	"repro/internal/rewrite"
)

// denseSolve is the retired dense solver, kept verbatim as the
// differential reference: round-robin sweeps over the reverse postorder
// until a full sweep changes nothing. The union lattice has a unique
// least fixpoint from the empty initialization, so the sparse worklist
// in liveness.Compute must produce byte-identical sets.
func denseSolve(fn *ir.Func, g *cfg.Graph) (in, out []*bitset.Set) {
	n := len(fn.Blocks)
	nr := fn.NumRegs()
	use := make([]*bitset.Set, n)
	def := make([]*bitset.Set, n)
	in = make([]*bitset.Set, n)
	out = make([]*bitset.Set, n)
	for i := 0; i < n; i++ {
		use[i] = bitset.New(nr)
		def[i] = bitset.New(nr)
		in[i] = bitset.New(nr)
		out[i] = bitset.New(nr)
	}
	for _, b := range fn.Blocks {
		for i := range b.Instrs {
			ins := &b.Instrs[i]
			for _, a := range ins.Args {
				if !def[b.ID].Has(int(a)) {
					use[b.ID].Add(int(a))
				}
			}
			if ins.HasDst() {
				def[b.ID].Add(int(ins.Dst))
			}
		}
	}
	tmp := bitset.New(nr)
	for changed := true; changed; {
		changed = false
		for i := len(g.RPO) - 1; i >= 0; i-- {
			b := g.RPO[i]
			for _, s := range g.Succs[b] {
				if out[b].UnionWith(in[s]) {
					changed = true
				}
			}
			tmp.Copy(out[b])
			tmp.DiffWith(def[b])
			tmp.UnionWith(use[b])
			if !tmp.Equal(in[b]) {
				in[b].Copy(tmp)
				changed = true
			}
		}
	}
	return in, out
}

// suiteFuncs compiles every benchmark program and yields each function
// to f, tagged program/function.
func suiteFuncs(t *testing.T, f func(tag string, fn *ir.Func)) {
	t.Helper()
	for _, name := range benchprog.Names() {
		prog, err := compile.Source(benchprog.ByName(name).Source)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, fn := range prog.Funcs {
			f(fmt.Sprintf("%s/%s", name, fn.Name), fn)
		}
	}
}

// checkSparseMatchesDense solves fn with the sparse worklist and with
// the dense reference, over a fresh CFG, and fails on any difference.
func checkSparseMatchesDense(t *testing.T, tag string, fn *ir.Func) {
	t.Helper()
	g := cfg.New(fn)
	info := liveness.Compute(fn, g)
	in, out := denseSolve(fn, g)
	for i := range fn.Blocks {
		if !info.In[i].Equal(in[i]) {
			t.Errorf("%s block %d: sparse In diverges from dense", tag, i)
		}
		if !info.Out[i].Equal(out[i]) {
			t.Errorf("%s block %d: sparse Out diverges from dense", tag, i)
		}
	}
	if info.Visited < len(g.RPO) {
		t.Errorf("%s: visited %d blocks, below the %d reachable", tag, info.Visited, len(g.RPO))
	}
}

// TestSparseMatchesDense pins the tentpole equivalence: the sparse
// worklist solver produces sets byte-identical to the dense
// reverse-postorder sweep on every function of the benchmark suite.
func TestSparseMatchesDense(t *testing.T) {
	suiteFuncs(t, func(tag string, fn *ir.Func) {
		checkSparseMatchesDense(t, tag, fn)
	})
}

// spillThird rewrites fn in place with spill-everywhere code for every
// third occurring register, as a spill round does, and reports whether
// it spilled anything.
func spillThird(fn *ir.Func) bool {
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
	spill := make(map[ir.Reg]*ir.Symbol)
	k := 0
	for r := 0; r < len(occ); r++ {
		if !occ[r] {
			continue
		}
		if k++; k%3 != 0 {
			continue
		}
		reg := ir.Reg(r)
		spill[reg] = &ir.Symbol{
			Name:  fmt.Sprintf("%s.t%d", fn.Name, r),
			Class: fn.RegClass(reg),
			Local: true,
			Spill: true,
		}
	}
	rewrite.InsertSpills(fn, spill, func(ir.Reg) {})
	return len(spill) > 0
}

// TestSparseMatchesDenseAfterSpill pins the solve every spill round
// runs: after a spill-everywhere rewrite, the sparse solver over the
// rewritten body and a fresh CFG matches the dense reference on every
// function of the benchmark suite.
func TestSparseMatchesDenseAfterSpill(t *testing.T) {
	spilled := 0
	suiteFuncs(t, func(tag string, fn *ir.Func) {
		if !spillThird(fn) {
			return
		}
		spilled++
		checkSparseMatchesDense(t, tag+" after spill", fn)
	})
	if spilled == 0 {
		t.Fatal("no function had a register to spill")
	}
}
