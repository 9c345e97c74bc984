package server

import (
	"sort"

	"repro"
	"repro/internal/freq"
	"repro/internal/machine"
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

// RenderResult renders a finished allocation into its canonical
// response form under the frequency table that produced it.
func RenderResult(a *callcost.Allocation, pf *freq.ProgramFreq) *Result {
	res := &Result{
		Strategy: a.Strategy,
		Config:   a.Config.String(),
		Assembly: a.Assembly(),
	}
	o := a.Overhead(pf)
	res.Overhead = OverheadResult{
		Spill: o.Spill, Caller: o.Caller, Callee: o.Callee,
		Shuffle: o.Shuffle, Total: o.Total(),
	}
	for _, fn := range a.Program.IR.Funcs {
		plan := a.Plans[fn.Name]
		fa := plan.Alloc
		fr := FuncResult{
			Name:   fn.Name,
			Rounds: fa.Rounds,
			Colors: make([]int, fa.Fn.NumRegs()),
			Spills: make([]Spill, 0, len(fa.SlotOf)),
		}
		for r := range fr.Colors {
			if c := fa.Colors[r]; c == machine.NoPhysReg {
				fr.Colors[r] = -1
			} else {
				fr.Colors[r] = int(c)
			}
		}
		for reg, slot := range fa.SlotOf {
			fr.Spills = append(fr.Spills, Spill{Reg: int(reg), Slot: slot.Name})
		}
		sort.Slice(fr.Spills, func(i, j int) bool { return fr.Spills[i].Reg < fr.Spills[j].Reg })
		res.Funcs = append(res.Funcs, fr)
	}
	return res
}
