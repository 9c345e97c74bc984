// Package cfg computes control-flow-graph facts for IR functions:
// predecessors, reverse postorder, dominators, natural loops, and loop
// nesting depth. Loop depth drives the static execution-frequency
// estimates the paper's "static" experiments use.
package cfg

import (
	"repro/internal/ir"
)

// Graph holds the derived CFG facts for one function.
type Graph struct {
	Fn *ir.Func
	// Preds[b] lists the predecessor block IDs of block b.
	Preds [][]int
	// Succs[b] caches the successor block IDs of block b.
	Succs [][]int
	// RPO is a reverse postorder over reachable blocks.
	RPO []int
	// Idom[b] is the immediate dominator of b (-1 for entry and
	// unreachable blocks).
	Idom []int
	// LoopDepth[b] is the number of natural loops containing b.
	LoopDepth []int
	// LoopHead[b] reports whether b is a natural loop header.
	LoopHead []bool
}

// New computes the CFG facts for fn.
func New(fn *ir.Func) *Graph {
	n := len(fn.Blocks)
	g := &Graph{
		Fn:        fn,
		Preds:     make([][]int, n),
		Succs:     make([][]int, n),
		Idom:      make([]int, n),
		LoopDepth: make([]int, n),
		LoopHead:  make([]bool, n),
	}
	for _, b := range fn.Blocks {
		g.Succs[b.ID] = b.Succs()
		for _, s := range g.Succs[b.ID] {
			g.Preds[s] = append(g.Preds[s], b.ID)
		}
	}
	g.computeRPO()
	g.computeDominators()
	g.computeLoops()
	return g
}

func (g *Graph) computeRPO() {
	n := len(g.Fn.Blocks)
	seen := make([]bool, n)
	post := make([]int, 0, n)
	// Iterative DFS with explicit phases to get a true postorder.
	type frame struct {
		id   int
		next int
	}
	stack := []frame{{id: 0}}
	seen[0] = true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(g.Succs[f.id]) {
			s := g.Succs[f.id][f.next]
			f.next++
			if !seen[s] {
				seen[s] = true
				stack = append(stack, frame{id: s})
			}
			continue
		}
		post = append(post, f.id)
		stack = stack[:len(stack)-1]
	}
	g.RPO = make([]int, 0, len(post))
	for i := len(post) - 1; i >= 0; i-- {
		g.RPO = append(g.RPO, post[i])
	}
}

// computeDominators runs the Cooper/Harvey/Kennedy iterative algorithm
// over the reverse postorder.
func (g *Graph) computeDominators() {
	n := len(g.Fn.Blocks)
	rpoNum := make([]int, n)
	for i := range rpoNum {
		rpoNum[i] = -1
	}
	for i, b := range g.RPO {
		rpoNum[b] = i
	}
	for i := range g.Idom {
		g.Idom[i] = -1
	}
	if len(g.RPO) == 0 {
		return
	}
	entry := g.RPO[0]
	g.Idom[entry] = entry
	intersect := func(a, b int) int {
		for a != b {
			for rpoNum[a] > rpoNum[b] {
				a = g.Idom[a]
			}
			for rpoNum[b] > rpoNum[a] {
				b = g.Idom[b]
			}
		}
		return a
	}
	changed := true
	for changed {
		changed = false
		for _, b := range g.RPO[1:] {
			newIdom := -1
			for _, p := range g.Preds[b] {
				if g.Idom[p] == -1 {
					continue // unreachable or not yet processed
				}
				if newIdom == -1 {
					newIdom = p
				} else {
					newIdom = intersect(p, newIdom)
				}
			}
			if newIdom != -1 && g.Idom[b] != newIdom {
				g.Idom[b] = newIdom
				changed = true
			}
		}
	}
	// Entry's idom is conventionally itself during computation; expose
	// it as -1 ("none").
	g.Idom[entry] = -1
}

// Dominates reports whether block a dominates block b. Every block
// dominates itself.
func (g *Graph) Dominates(a, b int) bool {
	for {
		if a == b {
			return true
		}
		next := g.Idom[b]
		if next == -1 || next == b {
			return false
		}
		b = next
	}
}

// computeLoops finds natural loops from back edges (t -> h where h
// dominates t) and assigns loop depth as the number of distinct loop
// headers whose loop body contains the block.
func (g *Graph) computeLoops() {
	n := len(g.Fn.Blocks)
	// Collect the loop body for each header (merging multiple back
	// edges to the same header).
	bodies := make(map[int]map[int]bool)
	for _, b := range g.Fn.Blocks {
		for _, s := range g.Succs[b.ID] {
			if g.Idom[b.ID] == -1 && b.ID != 0 {
				continue // unreachable
			}
			if g.Dominates(s, b.ID) {
				// Back edge b.ID -> s.
				body := bodies[s]
				if body == nil {
					body = map[int]bool{s: true}
					bodies[s] = body
				}
				g.collectLoop(body, b.ID, s)
			}
		}
	}
	for h, body := range bodies {
		g.LoopHead[h] = true
		for b := range body {
			if b >= 0 && b < n {
				g.LoopDepth[b]++
			}
		}
	}
}

// collectLoop adds to body all blocks that can reach tail without
// passing through head (the standard natural-loop construction).
func (g *Graph) collectLoop(body map[int]bool, tail, head int) {
	if body[tail] {
		return
	}
	body[tail] = true
	stack := []int{tail}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range g.Preds[b] {
			if !body[p] {
				body[p] = true
				stack = append(stack, p)
			}
		}
	}
	_ = head
}
