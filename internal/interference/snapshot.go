package interference

import (
	"repro/internal/ir"
	"repro/internal/telemetry"
)

// Snapshot returns a copy-on-write view of g. The view shares every
// storage slice and the bit matrix with the snapshotted base until the
// first mutation (Coalesce or Union), which privatizes the storage;
// until then the view costs one struct copy. While shared, every read
// path is write-free — Find skips path halving and Neighbors skips
// stale-entry compaction — so any number of snapshots of the same
// frozen base may be read concurrently.
//
// Snapshotting a snapshot shares the original base, never a chain.
func (g *Graph) Snapshot() *Graph {
	if b := telemetry.B(); b != nil {
		b.Snapshots.Inc()
	}
	base := g
	if base.cow != nil {
		base = base.cow
	}
	s := new(Graph)
	*s = *g
	s.cow = base
	s.mark = nil // briggsOK scratch must never be shared
	s.epoch = 0
	s.TraceMerge = nil
	return s
}

// Shared reports whether g is an unprivatized snapshot still aliasing
// its base's storage.
func (g *Graph) Shared() bool { return g.cow != nil }

// privatize materializes a private copy of the snapshotted storage.
// Every mutator calls it first; adjacency inner slices are deep-copied
// too, because an append into shared spare capacity would be visible to
// every other snapshot of the same base.
func (g *Graph) privatize() {
	if g.cow == nil {
		return
	}
	if b := telemetry.B(); b != nil {
		b.SnapshotPrivatized.Inc()
	}
	g.cow = nil
	g.parent = append([]ir.Reg(nil), g.parent...)
	g.next = append([]ir.Reg(nil), g.next...)
	adj := make([][]ir.Reg, len(g.adj))
	for i, l := range g.adj {
		if len(l) > 0 {
			adj[i] = append([]ir.Reg(nil), l...)
		}
	}
	g.adj = adj
	g.deg = append([]int32(nil), g.deg...)
	g.matrix = g.matrix.Clone()
	g.occurs = append([]bool(nil), g.occurs...)
	g.nodes = append([]ir.Reg(nil), g.nodes...)
	g.listed = append([]bool(nil), g.listed...)
	g.mark = nil
}

// Compress fully flattens the union-find, so snapshots of a frozen
// graph resolve Find in one hop without needing path-halving writes.
// Called on a graph about to be frozen and shared; a no-op on an
// unprivatized snapshot (its base's parent array is already whatever
// the base froze at).
func (g *Graph) Compress() {
	if g.cow != nil {
		return
	}
	for r := range g.parent {
		root := ir.Reg(r)
		for g.parent[root] != root {
			root = g.parent[root]
		}
		g.parent[r] = root
	}
}
