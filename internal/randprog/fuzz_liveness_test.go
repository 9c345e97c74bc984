package randprog_test

import (
	"fmt"
	"testing"

	"repro"
	"repro/internal/bitset"
	"repro/internal/cfg"
	"repro/internal/ir"
	"repro/internal/liveness"
	"repro/internal/randprog"
	"repro/internal/rewrite"
)

// denseSolve is an independent dense round-robin reference solver,
// duplicated from the liveness differential tests on purpose: the fuzz
// target should not share code with the implementation under test.
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

// sparseMatchesDense reports the first block whose sparse liveness
// over a fresh CFG differs from the dense reference, or -1.
func sparseMatchesDense(fn *ir.Func) int {
	g := cfg.New(fn)
	info := liveness.Compute(fn, g)
	in, out := denseSolve(fn, g)
	for i := range fn.Blocks {
		if !info.In[i].Equal(in[i]) || !info.Out[i].Equal(out[i]) {
			return i
		}
	}
	return -1
}

// FuzzLivenessDifferential fuzzes the sparse dataflow solver on
// generated programs against an independent dense reference: once on
// the original body, and again after a spill-everywhere rewrite — the
// body every spill round re-solves.
// `go test -fuzz=FuzzLivenessDifferential ./internal/randprog` explores
// seeds indefinitely; the corpus seeds run in normal test mode.
func FuzzLivenessDifferential(f *testing.F) {
	for seed := int64(0); seed < 12; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		src := randprog.Generate(seed, randprog.ForSeed(seed))
		prog, err := callcost.Compile(src)
		if err != nil {
			t.Fatalf("seed %d: generated program does not compile: %v", seed, err)
		}
		for _, fn := range prog.IR.Funcs {
			if b := sparseMatchesDense(fn); b >= 0 {
				t.Fatalf("seed %d %s block %d: sparse solve diverges from dense", seed, fn.Name, b)
			}

			// Spill every third occurring register, seed-independently
			// deterministic, and rewrite.
			occ := make([]bool, fn.NumRegs())
			for _, b := range fn.Blocks {
				for i := range b.Instrs {
					ins := &b.Instrs[i]
					if ins.HasDst() {
						occ[ins.Dst] = true
					}
					for _, a := range ins.Args {
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
			if len(spill) == 0 {
				continue
			}
			rewrite.InsertSpills(fn, spill, func(ir.Reg) {})
			if b := sparseMatchesDense(fn); b >= 0 {
				t.Fatalf("seed %d %s block %d: sparse solve after spill diverges from dense", seed, fn.Name, b)
			}
		}
	})
}
