// Package interference builds and maintains the interference graph of a
// function, one graph per register bank. Nodes are live ranges
// (virtual registers merged by coalescing); an edge joins two ranges
// that are simultaneously live somewhere, i.e. that cannot share a
// physical register.
//
// The construction is Chaitin's: walking each block backwards, a
// definition interferes with everything live after it — except, for a
// move, the move's source, which is what makes copy coalescing possible.
// Function parameters are all defined at entry simultaneously, so the
// parameters live into the entry block mutually interfere.
//
// The representation is Chaitin's dual one: a triangular bit matrix
// answers Interfere in O(1), and per-node adjacency vectors drive
// iteration. The matrix is indexed by a dense numbering of the
// registers that occur in the bank, so its size does not grow with
// registers a function declares but never uses. Adjacency vectors are append-only; an entry goes stale
// when its node is merged away by coalescing, and iteration skips (and
// compacts) stale entries by checking that the entry is still a
// union-find representative whose edge bit is set.
// Degrees are maintained incrementally, so Degree is O(1).
//
// The graph embeds a union-find so that coalescing (merging the two
// ends of a copy) updates interference in place; Find maps any virtual
// register to the representative of its live range. Each union-find
// class is additionally threaded on a circular member list, making
// Members O(|class|) instead of a scan over every register.
package interference

import (
	"sort"

	"repro/internal/bitset"
	"repro/internal/ir"
	"repro/internal/liveness"
)

// Graph is the interference graph of one register bank of one function.
type Graph struct {
	Fn    *ir.Func
	Class ir.Class

	parent []ir.Reg
	next   []ir.Reg   // circular member list per union-find class
	adj    [][]ir.Reg // adjacency vectors; may hold stale entries
	deg    []int32    // live distinct-neighbor count per representative
	// matrix holds the edges over dense positions: pos[r] is r's index
	// among the registers of this bank that occur in the code, -1 for
	// one that does not. pos is filled by Build's first pass and never
	// changes after, so snapshots and clones share it.
	matrix *bitset.Triangular
	pos    []int32
	occurs []bool   // vreg appears in the code (def, use, or live param)
	nodes  []ir.Reg // every reg of this bank that ever occurred
	listed []bool   // reg already appended to nodes

	// cow, when non-nil, marks this graph as an unprivatized
	// copy-on-write snapshot of cow: every slice and the bit matrix
	// alias the base's storage. Mutators call privatize first; readers
	// (Find, Neighbors) take write-free paths while cow is set. See
	// Snapshot in snapshot.go.
	cow *Graph

	// briggsOK scratch: epoch-stamped visited marks.
	mark  []uint32
	epoch uint32

	// TraceMerge, when non-nil, observes each coalescing merge: kept is
	// the surviving representative, gone the representative merged into
	// it. Set by the framework when a tracer is attached; never set on
	// the untraced path.
	TraceMerge func(kept, gone ir.Reg)
}

// newGraph returns an empty graph over n registers, with no matrix yet.
func newGraph(fn *ir.Func, class ir.Class, n int) *Graph {
	g := &Graph{
		Fn:     fn,
		Class:  class,
		parent: make([]ir.Reg, n),
		next:   make([]ir.Reg, n),
		adj:    make([][]ir.Reg, n),
		deg:    make([]int32, n),
		occurs: make([]bool, n),
		listed: make([]bool, n),
	}
	for i := range g.parent {
		g.parent[i] = ir.Reg(i)
		g.next[i] = ir.Reg(i)
	}
	return g
}

// setOccurs marks r as occurring and registers it as a node candidate.
func (g *Graph) setOccurs(r ir.Reg) {
	if g.occurs[r] && g.listed[r] {
		return
	}
	g.privatize()
	g.occurs[r] = true
	if !g.listed[r] {
		g.listed[r] = true
		g.nodes = append(g.nodes, r)
	}
}

// Build constructs the graph for the given bank from liveness info.
func Build(fn *ir.Func, live *liveness.Info, class ir.Class) *Graph {
	g := newGraph(fn, class, fn.NumRegs())

	mine := func(r ir.Reg) bool { return fn.RegClass(r) == class }

	for _, b := range fn.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.HasDst() && mine(in.Dst) {
				g.setOccurs(in.Dst)
			}
			for _, a := range in.Args {
				if mine(a) {
					g.setOccurs(a)
				}
			}
		}
	}
	// The matrix is sized by the registers that occur, not by every
	// declared register of both banks.
	g.pos = make([]int32, len(g.parent))
	for i := range g.pos {
		g.pos[i] = -1
	}
	for i, r := range g.nodes {
		g.pos[r] = int32(i)
	}
	g.matrix = bitset.NewTriangular(len(g.nodes))

	for _, b := range fn.Blocks {
		live.WalkBlock(b, func(in *ir.Instr, after *bitset.Set) {
			if !in.HasDst() || !mine(in.Dst) {
				return
			}
			d := in.Dst
			var moveSrc ir.Reg = ir.NoReg
			if in.Op == ir.OpMove {
				moveSrc = in.Args[0]
			}
			after.ForEach(func(i int) {
				r := ir.Reg(i)
				if r == d || r == moveSrc || !mine(r) {
					return
				}
				g.addEdge(d, r)
			})
		})
	}

	// Parameters are defined together at function entry: the receive
	// sequence writes every colored parameter's register, so any two
	// parameters that occur anywhere in the function interfere — even
	// one whose incoming value is dead on arrival. Its register is
	// still written by the receive, which would clobber a neighbor
	// sharing it (the executors and codegen all receive uncondition-
	// ally), so dead-on-entry parameters cannot share with live ones.
	params := make([]ir.Reg, 0, len(fn.Params))
	for _, p := range fn.Params {
		if mine(p) && g.occurs[p] {
			params = append(params, p)
		}
	}
	for i, p := range params {
		for _, q := range params[i+1:] {
			g.addEdge(p, q)
		}
	}
	return g
}

// addEdge records the edge a–b (both must currently be representatives
// or freshly built original registers). O(1): one matrix test, two
// vector appends, two degree bumps.
func (g *Graph) addEdge(a, b ir.Reg) {
	if a == b || g.edge(a, b) {
		return
	}
	g.privatize()
	g.setEdge(a, b, true)
	g.adj[a] = append(g.adj[a], b)
	g.adj[b] = append(g.adj[b], a)
	g.deg[a]++
	g.deg[b]++
}

// Find returns the representative live range of r.
func (g *Graph) Find(r ir.Reg) ir.Reg {
	if g.cow != nil {
		// Shared storage: walk without path halving so concurrent
		// snapshot readers never write.
		for g.parent[r] != r {
			r = g.parent[r]
		}
		return r
	}
	for g.parent[r] != r {
		g.parent[r] = g.parent[g.parent[r]] // path halving
		r = g.parent[r]
	}
	return r
}

// Interfere reports whether the live ranges of a and b conflict.
func (g *Graph) Interfere(a, b ir.Reg) bool {
	ra, rb := g.Find(a), g.Find(b)
	if ra == rb {
		return false
	}
	return g.edge(ra, rb)
}

// edge reports whether the matrix holds the edge a–b. A register that
// does not occur in this bank has no edges.
func (g *Graph) edge(a, b ir.Reg) bool {
	i, j := g.pos[a], g.pos[b]
	return i >= 0 && j >= 0 && g.matrix.Has(int(i), int(j))
}

// setEdge sets or clears the edge a–b; both must occur in this bank.
func (g *Graph) setEdge(a, b ir.Reg, on bool) {
	if on {
		g.matrix.Set(int(g.pos[a]), int(g.pos[b]))
	} else {
		g.matrix.Unset(int(g.pos[a]), int(g.pos[b]))
	}
}

// alive reports whether an adjacency entry x of representative rep is
// still current: x must itself be a representative and the edge bit
// must still be set (merged-away nodes stop being representatives, and
// a union of interfering ranges clears the bit between them).
func (g *Graph) alive(rep, x ir.Reg) bool {
	return g.parent[x] == x && g.edge(rep, x)
}

// Union merges the live range of b into that of a (both are resolved to
// representatives first). The merged range keeps a's representative and
// the union of both adjacency sets. Union of interfering ranges is the
// caller's bug; the graph keeps the edges consistent regardless.
func (g *Graph) Union(a, b ir.Reg) ir.Reg {
	ra, rb := g.Find(a), g.Find(b)
	if ra == rb {
		return ra
	}
	g.privatize()
	// Merge the smaller adjacency set into the larger.
	if g.deg[rb] > g.deg[ra] {
		ra, rb = rb, ra
	}
	g.parent[rb] = ra
	g.next[ra], g.next[rb] = g.next[rb], g.next[ra] // splice member cycles
	if g.occurs[rb] {
		g.setOccurs(ra)
	}
	for _, n := range g.adj[rb] {
		if g.parent[n] != n || !g.edge(rb, n) {
			continue // stale entry
		}
		if n == ra {
			// The (buggy-caller) case of uniting interfering ranges:
			// the ra–rb edge disappears into the merged node.
			g.setEdge(ra, rb, false)
			g.deg[ra]--
			continue
		}
		if g.edge(ra, n) {
			// n was adjacent to both; it loses one distinct neighbor.
			g.deg[n]--
		} else {
			g.setEdge(ra, n, true)
			g.adj[ra] = append(g.adj[ra], n)
			g.adj[n] = append(g.adj[n], ra)
			g.deg[ra]++
			// deg[n] is unchanged: neighbor rb was replaced by ra.
		}
	}
	g.adj[rb] = nil
	g.deg[rb] = 0
	return ra
}

// Degree returns the number of distinct neighboring live ranges of the
// representative r. O(1).
func (g *Graph) Degree(r ir.Reg) int { return int(g.deg[g.Find(r)]) }

// Neighbors calls f for each neighbor of the representative r. Stale
// adjacency entries are compacted away in place as a side effect, so
// repeated iteration after heavy coalescing stays linear in the live
// degree. f must not mutate the graph.
func (g *Graph) Neighbors(r ir.Reg, f func(n ir.Reg)) {
	rep := g.Find(r)
	list := g.adj[rep]
	if g.cow != nil {
		// Shared storage: iterate without compacting.
		for _, n := range list {
			if g.alive(rep, n) {
				f(n)
			}
		}
		return
	}
	w := 0
	for _, n := range list {
		if !g.alive(rep, n) {
			continue
		}
		list[w] = n
		w++
		f(n)
	}
	if w != len(list) {
		g.adj[rep] = list[:w]
	}
}

// NeighborsSorted returns the neighbors in increasing register order,
// for deterministic iteration.
func (g *Graph) NeighborsSorted(r ir.Reg) []ir.Reg {
	ns := make([]ir.Reg, 0, g.Degree(r))
	g.Neighbors(r, func(n ir.Reg) { ns = append(ns, n) })
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	return ns
}

// Nodes returns the representatives of this bank that occur in the code,
// in increasing register order (deterministic). Only registers that
// ever occurred are scanned, not the whole register space.
func (g *Graph) Nodes() []ir.Reg {
	return g.AppendNodes(make([]ir.Reg, 0, len(g.nodes)))
}

// AppendNodes is Nodes into caller-owned storage: the representatives
// are appended to buf (which should arrive empty, typically a reused
// buffer resliced to [:0]) and the grown, sorted slice is returned.
func (g *Graph) AppendNodes(buf []ir.Reg) []ir.Reg {
	for _, r := range g.nodes {
		if g.parent[r] == r && g.occurs[r] {
			buf = append(buf, r)
		}
	}
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	return buf
}

// ForEachMember calls f for every member of rep's live range, rep
// included, in member-cycle order — unsorted and allocation-free. The
// walk follows the class's member cycle, so the cost is O(|members|),
// not a scan over every register.
func (g *Graph) ForEachMember(rep ir.Reg, f func(m ir.Reg)) {
	f(rep)
	for r := g.next[rep]; r != rep; r = g.next[r] {
		f(r)
	}
}

// Coalesce performs aggressive Chaitin-style coalescing: every move
// whose source and destination live ranges do not interfere is merged.
// It returns the number of moves coalesced. Passing conservative=true
// applies the Briggs test instead (merge only when the combined range
// has fewer than k neighbors of significant degree), which never
// increases spilling.
func (g *Graph) Coalesce(conservative bool, k int) int {
	// One pass over the body collects this bank's moves in program
	// order; the fixpoint rounds then rescan only those.
	type move struct{ dst, src ir.Reg }
	var moves []move
	for _, b := range g.Fn.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.OpMove && g.Fn.RegClass(in.Dst) == g.Class {
				moves = append(moves, move{in.Dst, in.Args[0]})
			}
		}
	}
	merged := 0
	for changed := true; changed; {
		changed = false
		for _, mv := range moves {
			d, s := g.Find(mv.dst), g.Find(mv.src)
			if d == s || g.edge(d, s) {
				continue
			}
			if conservative && !g.briggsOK(d, s, k) {
				continue
			}
			kept := g.Union(d, s)
			if g.TraceMerge != nil {
				gone := d
				if kept == d {
					gone = s
				}
				g.TraceMerge(kept, gone)
			}
			merged++
			changed = true
		}
	}
	return merged
}

// briggsOK implements the Briggs conservative-coalescing test. The
// visited set is an epoch-stamped scratch array on the graph, so the
// test allocates nothing after the first call.
func (g *Graph) briggsOK(a, b ir.Reg, k int) bool {
	if g.mark == nil {
		g.mark = make([]uint32, len(g.parent))
	}
	g.epoch++
	high := 0
	count := func(r ir.Reg) {
		g.Neighbors(r, func(n ir.Reg) {
			if g.mark[n] == g.epoch {
				return
			}
			g.mark[n] = g.epoch
			deg := int(g.deg[n])
			// If n neighbors both a and b, its degree in the merged
			// graph drops by one.
			if g.edge(a, n) && g.edge(b, n) {
				deg--
			}
			if deg >= k {
				high++
			}
		})
	}
	count(a)
	count(b)
	return high < k
}

// Clone returns an independent copy of the graph (same nodes, edges,
// and union-find state).
func (g *Graph) Clone() *Graph {
	c := &Graph{
		Fn:     g.Fn,
		Class:  g.Class,
		parent: append([]ir.Reg(nil), g.parent...),
		next:   append([]ir.Reg(nil), g.next...),
		adj:    make([][]ir.Reg, len(g.adj)),
		deg:    append([]int32(nil), g.deg...),
		matrix: g.matrix.Clone(),
		pos:    g.pos,
		occurs: append([]bool(nil), g.occurs...),
		nodes:  append([]ir.Reg(nil), g.nodes...),
		listed: append([]bool(nil), g.listed...),
	}
	for i, l := range g.adj {
		if len(l) > 0 {
			c.adj[i] = append([]ir.Reg(nil), l...)
		}
	}
	return c
}

// EdgesEqual reports whether two graphs have identical node sets and
// edges, resolving union-find representatives on both sides. The
// graph tests use it as their equality oracle.
func EdgesEqual(a, b *Graph) bool {
	na, nb := a.Nodes(), b.Nodes()
	// Node sets must agree up to representative choice: compare the
	// partition of occurring registers and the edge relation over
	// original registers.
	occA := make(map[ir.Reg]bool)
	for _, r := range na {
		occA[r] = true
	}
	occB := make(map[ir.Reg]bool)
	for _, r := range nb {
		occB[r] = true
	}
	max := len(a.parent)
	if len(b.parent) > max {
		max = len(b.parent)
	}
	inA := func(r ir.Reg) bool { return int(r) < len(a.parent) && occA[a.Find(r)] }
	inB := func(r ir.Reg) bool { return int(r) < len(b.parent) && occB[b.Find(r)] }
	for r := 0; r < max; r++ {
		if inA(ir.Reg(r)) != inB(ir.Reg(r)) {
			return false
		}
	}
	for r := 0; r < max; r++ {
		for s := r + 1; s < max; s++ {
			rr, ss := ir.Reg(r), ir.Reg(s)
			if !inA(rr) || !inA(ss) {
				continue
			}
			if a.Interfere(rr, ss) != b.Interfere(rr, ss) {
				return false
			}
		}
	}
	return true
}
