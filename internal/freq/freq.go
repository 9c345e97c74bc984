// Package freq produces execution-frequency information, the weights
// behind every cost in the paper's model: spill cost, caller-save cost,
// and callee-save cost are all reference/call counts weighted by how
// often the referencing block executes.
//
// Two providers mirror the paper's "static" and "dynamic" experiments:
//
//   - Static estimates: branch probabilities of 0.5, back edges taken
//     with probability 0.9 (so a loop multiplies its body by ~10, the
//     classic estimate), composed with an interprocedural call-graph
//     propagation from main.
//   - Profile-based: exact block and entry counts recorded by the IR
//     interpreter.
package freq

import (
	"repro/internal/cfg"
	"repro/internal/interp"
	"repro/internal/ir"
)

// FuncFreq holds absolute frequencies for one function.
type FuncFreq struct {
	// Entry is the (estimated or measured) number of invocations.
	Entry float64
	// Block[b] is the absolute execution count of block b across the
	// whole program run.
	Block []float64
}

// ProgramFreq maps every function to its frequencies.
type ProgramFreq struct {
	ByFunc map[string]*FuncFreq
}

// Of returns the frequencies of fn (never nil for functions of the
// program the ProgramFreq was built from).
func (pf *ProgramFreq) Of(fn *ir.Func) *FuncFreq { return pf.ByFunc[fn.Name] }

// FromProfile converts interpreter profile counts into frequencies.
func FromProfile(p *ir.Program, prof *interp.Profile) *ProgramFreq {
	pf := &ProgramFreq{ByFunc: make(map[string]*FuncFreq, len(p.Funcs))}
	for _, fn := range p.Funcs {
		ff := &FuncFreq{Entry: prof.Entries[fn.Name]}
		counts := prof.Blocks[fn.Name]
		ff.Block = make([]float64, len(fn.Blocks))
		copy(ff.Block, counts)
		pf.ByFunc[fn.Name] = ff
	}
	return pf
}

// Static computes estimated frequencies without running the program.
func Static(p *ir.Program) *ProgramFreq {
	// Per-invocation local block frequencies.
	local := make(map[string][]float64, len(p.Funcs))
	for _, fn := range p.Funcs {
		local[fn.Name] = localFrequencies(fn, cfg.New(fn))
	}

	// Interprocedural entry counts: main runs once; each call site
	// contributes caller-entry x local-site-frequency. Recursive cycles
	// would diverge, so iteration is capped and growth clamped.
	entries := make(map[string]float64, len(p.Funcs))
	const (
		passes  = 25
		maxFreq = 1e12
	)
	for pass := 0; pass < passes; pass++ {
		next := make(map[string]float64, len(p.Funcs))
		if _, ok := p.FuncByName["main"]; ok {
			next["main"] = 1
		}
		for _, fn := range p.Funcs {
			callerEntry := entries[fn.Name]
			if pass == 0 && fn.Name == "main" {
				callerEntry = 1
			}
			if callerEntry == 0 {
				continue
			}
			lf := local[fn.Name]
			for _, b := range fn.Blocks {
				for i := range b.Instrs {
					in := &b.Instrs[i]
					if in.Op != ir.OpCall {
						continue
					}
					next[in.Callee] += callerEntry * lf[b.ID]
				}
			}
		}
		for k, v := range next {
			if v > maxFreq {
				next[k] = maxFreq
			}
		}
		converged := len(next) == len(entries)
		if converged {
			for k, v := range next {
				old := entries[k]
				if diff := v - old; diff > 1e-6*v+1e-9 || diff < -(1e-6*v+1e-9) {
					converged = false
					break
				}
			}
		}
		entries = next
		if converged {
			break
		}
	}

	pf := &ProgramFreq{ByFunc: make(map[string]*FuncFreq, len(p.Funcs))}
	for _, fn := range p.Funcs {
		e := entries[fn.Name]
		lf := local[fn.Name]
		ff := &FuncFreq{Entry: e, Block: make([]float64, len(fn.Blocks))}
		for i, w := range lf {
			ff.Block[i] = e * w
		}
		pf.ByFunc[fn.Name] = ff
	}
	return pf
}

// localFrequencies solves the intra-procedural flow equations by damped
// iteration over reverse postorder: entry has frequency 1; every other
// block receives its predecessors' frequency split by edge probability.
// Back edges carry probability backEdgeProb so a simple loop body runs
// about 1/(1-backEdgeProb) = 10 times per entry.
func localFrequencies(fn *ir.Func, g *cfg.Graph) []float64 {
	const (
		backEdgeProb = 0.9
		iterations   = 200
		tolerance    = 1e-9
	)
	n := len(fn.Blocks)
	w := make([]float64, n)

	// succProb[b][i] is the probability of the edge to g.Succs[b][i].
	succProb := make([][2]float64, n)
	for _, b := range fn.Blocks {
		succs := g.Succs[b.ID]
		switch len(succs) {
		case 0:
		case 1:
			succProb[b.ID][0] = 1
		default:
			s0, s1 := succs[0], succs[1]
			back0 := g.Dominates(s0, b.ID)
			back1 := g.Dominates(s1, b.ID)
			// Loop-exit heuristic: an edge that leaves the loop (to a
			// block of smaller loop depth) is predicted not-taken.
			exit0 := g.LoopDepth[s0] < g.LoopDepth[b.ID]
			exit1 := g.LoopDepth[s1] < g.LoopDepth[b.ID]
			switch {
			case back0 && !back1, exit1 && !exit0:
				succProb[b.ID] = [2]float64{backEdgeProb, 1 - backEdgeProb}
			case back1 && !back0, exit0 && !exit1:
				succProb[b.ID] = [2]float64{1 - backEdgeProb, backEdgeProb}
			default:
				succProb[b.ID] = [2]float64{0.5, 0.5}
			}
		}
	}
	// The same probabilities per incoming edge: predProb[predOff[b]+k]
	// weighs the edge from g.Preds[b][k].
	predOff := make([]int, n+1)
	for b, preds := range g.Preds {
		predOff[b+1] = predOff[b] + len(preds)
	}
	predProb := make([]float64, predOff[n])
	for b, preds := range g.Preds {
		for k, p := range preds {
			i := 0
			if g.Succs[p][0] != b {
				i = 1
			}
			predProb[predOff[b]+k] = succProb[p][i]
		}
	}

	for iter := 0; iter < iterations; iter++ {
		delta := 0.0
		for _, id := range g.RPO {
			var nw float64
			if id == 0 {
				nw = 1
			}
			for k, p := range g.Preds[id] {
				nw += w[p] * predProb[predOff[id]+k]
			}
			d := nw - w[id]
			if d < 0 {
				d = -d
			}
			delta += d
			w[id] = nw
		}
		if delta < tolerance {
			break
		}
	}
	return w
}
