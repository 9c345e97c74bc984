package server

import (
	"sort"
	"unsafe"

	"repro"
	"repro/internal/codegen"
	"repro/internal/freq"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/rewrite"
)

// Result is the deterministic payload of one allocation: everything in
// it — colors, spill slots, assembly, analytic overhead — is a pure
// function of the request, independent of caching, scheduling, or
// which worker served it. The differential gate renders an in-process
// allocation through the same code and byte-compares; volatile
// metadata (cache counters, traces) lives on Response, outside Result.
type Result struct {
	Strategy string         `json:"strategy"`
	Config   string         `json:"config"`
	Funcs    []FuncResult   `json:"funcs"`
	Assembly string         `json:"assembly"`
	Overhead OverheadResult `json:"overhead"`
}

// FuncResult is the per-function allocation outcome, in program order.
type FuncResult struct {
	Name   string `json:"name"`
	Rounds int    `json:"rounds"`
	// Colors is indexed by virtual register; -1 is unassigned (the
	// register was spilled away or never occurs).
	Colors []int   `json:"colors"`
	Spills []Spill `json:"spills"`
}

// Spill records one spilled virtual register and its stack slot.
type Spill struct {
	Reg  int    `json:"reg"`
	Slot string `json:"slot"`
}

// OverheadResult is the analytic overhead decomposition.
type OverheadResult struct {
	Spill   float64 `json:"spill"`
	Caller  float64 `json:"caller"`
	Callee  float64 `json:"callee"`
	Shuffle float64 `json:"shuffle"`
	Total   float64 `json:"total"`
}

// fragment is one function's rendered share of a Result: its
// FuncResult, its assembly text exactly as codegen emits it, and its
// analytic overhead. It is a pure function of the function's cache key
// inputs, so the daemon caches fragments, not plans: a hit renders by
// concatenation and a fixed-order sum.
type fragment struct {
	fr   FuncResult
	asm  string
	cost metrics.Overhead
}

// size is the fragment's resident bytes, for result_cache_bytes: the
// struct, the color and spill tables, and the strings.
func (f *fragment) size() int64 {
	n := int(unsafe.Sizeof(*f)) + len(f.fr.Name) + len(f.asm) +
		8*cap(f.fr.Colors) + int(unsafe.Sizeof(Spill{}))*cap(f.fr.Spills)
	for _, sp := range f.fr.Spills {
		n += len(sp.Slot)
	}
	return int64(n)
}

// renderFragment renders one function's finished plan under config.
// ff weights its analytic overhead; a nil ff leaves the overhead zero,
// as metrics.AnalyticProgram skips a function without one.
func renderFragment(plan *rewrite.FuncPlan, ff *freq.FuncFreq, config machine.Config) *fragment {
	fa := plan.Alloc
	f := &fragment{
		fr: FuncResult{
			Name:   fa.Fn.Name,
			Rounds: fa.Rounds,
			Colors: make([]int, fa.Fn.NumRegs()),
			Spills: make([]Spill, 0, len(fa.SlotOf)),
		},
		asm: codegen.Function(plan, config),
	}
	for r := range f.fr.Colors {
		if c := fa.Colors[r]; c == machine.NoPhysReg {
			f.fr.Colors[r] = -1
		} else {
			f.fr.Colors[r] = int(c)
		}
	}
	for reg, slot := range fa.SlotOf {
		f.fr.Spills = append(f.fr.Spills, Spill{Reg: int(reg), Slot: slot.Name})
	}
	sort.Slice(f.fr.Spills, func(i, j int) bool { return f.fr.Spills[i].Reg < f.fr.Spills[j].Reg })
	if ff != nil {
		f.cost = metrics.Analytic(plan, ff)
	}
	return f
}

// assemble builds a Result from the fragments of a program's functions
// in program order and its rendered data section. The assembly joins
// the function texts, and the overhead sums their parts, in sorted-name
// order — the order of codegen.Program and metrics.AnalyticProgram —
// so the bytes do not depend on where the fragments came from.
func assemble(strategy string, config machine.Config, data string, frags []*fragment) *Result {
	res := &Result{
		Strategy: strategy,
		Config:   config.String(),
		Funcs:    make([]FuncResult, len(frags)),
	}
	byName := make([]*fragment, len(frags))
	for i, f := range frags {
		res.Funcs[i] = f.fr
		byName[i] = f
	}
	sort.Slice(byName, func(i, j int) bool { return byName[i].fr.Name < byName[j].fr.Name })
	asm := make([]string, len(byName))
	var o metrics.Overhead
	for i, f := range byName {
		asm[i] = f.asm
		o = o.Add(f.cost)
	}
	res.Assembly = codegen.Join(data, asm)
	res.Overhead = OverheadResult{
		Spill: o.Spill, Caller: o.Caller, Callee: o.Callee,
		Shuffle: o.Shuffle, Total: o.Total(),
	}
	return res
}

// RenderResult renders a finished allocation into its canonical
// response form under the frequency table that produced it: one
// fragment per function, assembled as a served request assembles its
// cached ones.
func RenderResult(a *callcost.Allocation, pf *freq.ProgramFreq) *Result {
	frags := make([]*fragment, len(a.Program.IR.Funcs))
	for i, fn := range a.Program.IR.Funcs {
		frags[i] = renderFragment(a.Plans[fn.Name], pf.ByFunc[fn.Name], a.Config)
	}
	return assemble(a.Strategy, a.Config, codegen.Data(a.Program.IR), frags)
}
