package interference_test

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro"
	"repro/internal/cfg"
	"repro/internal/compile"
	"repro/internal/interference"
	"repro/internal/ir"
	"repro/internal/liveness"
	"repro/internal/randprog"
	"repro/internal/rewrite"
)

// graphsMatch asserts two bit-matrix graphs agree structurally: node
// set, degrees, sorted neighbor lists, and the pairwise relation.
func graphsMatch(t *testing.T, tag string, a, b *interference.Graph) {
	t.Helper()
	an, bn := a.Nodes(), b.Nodes()
	if !regsEqual(an, bn) {
		t.Fatalf("%s: nodes diverged\na: %v\nb: %v", tag, an, bn)
	}
	for _, r := range an {
		if ad, bd := a.Degree(r), b.Degree(r); ad != bd {
			t.Fatalf("%s: degree(%v) = %d vs %d", tag, r, ad, bd)
		}
		if as, bs := a.NeighborsSorted(r), b.NeighborsSorted(r); !regsEqual(as, bs) {
			t.Fatalf("%s: neighbors(%v) diverged\na: %v\nb: %v", tag, r, as, bs)
		}
	}
	for i, x := range an {
		for _, y := range an[i+1:] {
			if ai, bi := a.Interfere(x, y), b.Interfere(x, y); ai != bi {
				t.Fatalf("%s: Interfere(%v,%v) = %v vs %v", tag, x, y, ai, bi)
			}
		}
	}
}

// TestSnapshotCOWUnderCoalesce runs every coalescing mode on a Snapshot
// and on a Clone of the same base graph over generated programs: the
// merge sequences and resulting graphs must be identical, and the base
// must come out of all of it exactly equal to a fresh Build.
func TestSnapshotCOWUnderCoalesce(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		src := randprog.Generate(seed, randprog.DefaultOptions())
		prog, err := callcost.Compile(src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, fn := range prog.IR.Funcs {
			live := liveness.Compute(fn, cfg.New(fn))
			for c := ir.Class(0); c < ir.NumClasses; c++ {
				tag := fmt.Sprintf("seed %d fn %s class %v", seed, fn.Name, c)
				base := interference.Build(fn, live, c)
				for _, mode := range []struct {
					name         string
					conservative bool
					k            int
				}{
					{"aggressive k=4", false, 4},
					{"briggs k=4", true, 4},
					{"briggs k=8", true, 8},
				} {
					cl := base.Clone()
					sn := base.Snapshot()
					if !sn.Shared() {
						t.Fatalf("%s: fresh snapshot not marked shared", tag)
					}
					var clMerges, snMerges [][2]ir.Reg
					cl.TraceMerge = func(kept, gone ir.Reg) { clMerges = append(clMerges, [2]ir.Reg{kept, gone}) }
					sn.TraceMerge = func(kept, gone ir.Reg) { snMerges = append(snMerges, [2]ir.Reg{kept, gone}) }
					cm := cl.Coalesce(mode.conservative, mode.k)
					sm := sn.Coalesce(mode.conservative, mode.k)
					if cm != sm {
						t.Fatalf("%s %s: clone merged %d, snapshot merged %d", tag, mode.name, cm, sm)
					}
					if !reflect.DeepEqual(clMerges, snMerges) {
						t.Fatalf("%s %s: merge sequences diverged\nclone:    %v\nsnapshot: %v",
							tag, mode.name, clMerges, snMerges)
					}
					if sm > 0 && sn.Shared() {
						t.Fatalf("%s %s: snapshot merged %d moves but never privatized", tag, mode.name, sm)
					}
					graphsMatch(t, tag+" "+mode.name, sn, cl)
				}
				// The base survived every mode untouched.
				fresh := interference.Build(fn, live, c)
				graphsMatch(t, tag+" base-after", base, fresh)
				if !interference.EdgesEqual(base, fresh) {
					t.Fatalf("%s: base edges changed under snapshot coalescing", tag)
				}
			}
		}
	}
}

// TestSnapshotReadsDoNotPrivatize pins the write-free shared read
// paths: reading a snapshot (nodes, degrees, neighbors, membership,
// interference) must return the base's answers without ever triggering
// a copy.
func TestSnapshotReadsDoNotPrivatize(t *testing.T) {
	prog, err := compile.Source(spillSrc)
	if err != nil {
		t.Fatal(err)
	}
	fn := prog.FuncByName["f"]
	live := liveness.Compute(fn, cfg.New(fn))
	base := interference.Build(fn, live, ir.ClassInt)
	base.Coalesce(false, 8) // give the union-find some structure
	sn := base.Snapshot()
	for _, r := range sn.Nodes() {
		if sn.Degree(r) != base.Degree(r) {
			t.Fatalf("degree(%v) differs from base", r)
		}
		if !regsEqual(sn.NeighborsSorted(r), base.NeighborsSorted(r)) {
			t.Fatalf("neighbors(%v) differ from base", r)
		}
		if !regsEqual(members(sn, r), members(base, r)) {
			t.Fatalf("members(%v) differ from base", r)
		}
	}
	if !interference.EdgesEqual(sn, base) {
		t.Fatal("snapshot edge relation differs from base")
	}
	if !sn.Shared() {
		t.Fatal("pure reads privatized the snapshot")
	}
}

// members lists rep's live-range members in increasing register order.
func members(g *interference.Graph, rep ir.Reg) []ir.Reg {
	var out []ir.Reg
	g.ForEachMember(rep, func(m ir.Reg) { out = append(out, m) })
	slices.Sort(out)
	return out
}

// spillSrc keeps several values live across a loop with a call
// in it, so spilling any one of them changes the graph.
const spillSrc = `
int g(int v) { return v + 1; }
int f(int a, int b, int c) {
	int keep = a * 3 + b;
	int more = b * 5 + c;
	int r = 0;
	int i = 0;
	for (i = 0; i < 10; i = i + 1) {
		r = r + g(i) + keep;
	}
	return keep + more + r + a;
}
int main() { return f(1, 2, 3); }`

// TestEdgesEqualDetectsDifferences checks the equality oracle the
// graph tests rely on: two builds of one function are equal, and the
// graph before a spill rewrite differs from the graph after it.
func TestEdgesEqualDetectsDifferences(t *testing.T) {
	prog, err := compile.Source(spillSrc)
	if err != nil {
		t.Fatal(err)
	}
	f := prog.FuncByName["f"].Clone()
	old := interference.Build(f, liveness.Compute(f, cfg.New(f)), ir.ClassInt)
	if !interference.EdgesEqual(old, interference.Build(f, liveness.Compute(f, cfg.New(f)), ir.ClassInt)) {
		t.Fatal("two builds of one function differ")
	}
	keep := regByName(f, "keep")
	if keep == ir.NoReg {
		t.Fatal("fixture register not found")
	}
	spill := map[ir.Reg]*ir.Symbol{keep: {Name: "spill.keep", Class: ir.ClassInt, Local: true, Spill: true}}
	rewrite.InsertSpills(f, spill, func(ir.Reg) {})
	rebuilt := interference.Build(f, liveness.Compute(f, cfg.New(f)), ir.ClassInt)
	if interference.EdgesEqual(old, rebuilt) {
		t.Error("pre- and post-spill graphs should differ")
	}
}

// TestSnapshotConcurrentReaders hammers one frozen base from many
// goroutines, each through its own snapshot — reads plus a private
// coalesce — and relies on -race to prove the shared storage is never
// written.
func TestSnapshotConcurrentReaders(t *testing.T) {
	src := randprog.Generate(3, randprog.DefaultOptions())
	prog, err := callcost.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	fn := prog.IR.Funcs[0]
	live := liveness.Compute(fn, cfg.New(fn))
	base := interference.Build(fn, live, ir.ClassInt)
	want := base.Snapshot().NeighborsSorted(func() ir.Reg {
		nodes := base.Nodes()
		if len(nodes) == 0 {
			t.Skip("no int nodes in generated function")
		}
		return nodes[0]
	}())

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sn := base.Snapshot()
			for _, r := range sn.Nodes() {
				sn.Degree(r)
				sn.Neighbors(r, func(ir.Reg) {})
				sn.ForEachMember(r, func(ir.Reg) {})
			}
			sn.Coalesce(false, 4) // privatizes only this goroutine's view
			_ = sn.Nodes()
		}()
	}
	wg.Wait()
	got := base.Snapshot().NeighborsSorted(base.Nodes()[0])
	if !regsEqual(got, want) {
		t.Error("concurrent snapshot use changed the base graph")
	}
}
