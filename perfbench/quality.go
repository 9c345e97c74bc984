package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"repro"
	"repro/internal/machine"
	"repro/internal/minterp"
	"repro/internal/server"
)

// quality aggregates the executed cost of a set of allocations: the
// paper's overhead operations (spill, caller-save, callee-save and
// shuffle) and cycles on the machine-level interpreter, and the
// instructions of the emitted assembly.
type quality struct {
	overhead, cycles []float64
	counts           minterp.Counts // summed over the cells
	insns            float64
	exec             time.Duration

	overheadGM, cyclesGM float64
}

// add executes a and checks that it returns what the reference
// interpreter returned for the unallocated program.
func (q *quality) add(a *callcost.Allocation, wantInt int64, wantFloat float64, asm string) error {
	t0 := time.Now()
	res, err := a.Execute()
	q.exec += time.Since(t0)
	if err != nil {
		return fmt.Errorf("execute %s under %s: %w", a.Strategy, a.Config, err)
	}
	if res.RetInt != wantInt || math.Float64bits(res.RetFloat) != math.Float64bits(wantFloat) {
		return fmt.Errorf("%s under %s returned (%d, %g), reference interpreter (%d, %g)",
			a.Strategy, a.Config, res.RetInt, res.RetFloat, wantInt, wantFloat)
	}
	c := res.Counts
	q.overhead = append(q.overhead, c.OverheadOps())
	q.cycles = append(q.cycles, c.Cycles)
	q.addCounts(c)
	q.insns += float64(asmInstructions(asm))
	return nil
}

// merge folds another aggregate into q.
func (q *quality) merge(o *quality) {
	q.overhead = append(q.overhead, o.overhead...)
	q.cycles = append(q.cycles, o.cycles...)
	q.addCounts(o.counts)
	q.insns += o.insns
	q.exec += o.exec
}

func (q *quality) addCounts(c minterp.Counts) {
	q.counts.SpillLoads += c.SpillLoads
	q.counts.SpillStores += c.SpillStores
	q.counts.CallerSaves += c.CallerSaves
	q.counts.CallerRestores += c.CallerRestores
	q.counts.CalleeSaves += c.CalleeSaves
	q.counts.CalleeRestores += c.CalleeRestores
	q.counts.Shuffles += c.Shuffles
}

func (q *quality) finish() {
	q.overheadGM = geomean(q.overhead)
	q.cyclesGM = geomean(q.cycles)
}

// layers reports the overhead decomposition and execution cost per
// executed allocation.
func (q *quality) layers() map[string]float64 {
	n := float64(len(q.cycles))
	c := q.counts
	return map[string]float64{
		"overhead.spill_ops":   (c.SpillLoads + c.SpillStores) / n,
		"overhead.caller_ops":  (c.CallerSaves + c.CallerRestores) / n,
		"overhead.callee_ops":  (c.CalleeSaves + c.CalleeRestores) / n,
		"overhead.shuffle_ops": c.Shuffles / n,
		"minterp.cycles":       mean(q.cycles),
		"minterp.exec_ms":      ms(q.exec) / n,
	}
}

// probeServed asks the daemon for the SPEC92 stand-ins, byte-checks each
// reply against server.ReferenceResult, and executes the served
// allocation: the quality of the code the daemon hands out. The
// executed allocation is recomputed in-process and must render to the
// served bytes.
func probeServed(d *daemon, t *tally) (*quality, error) {
	q := &quality{}
	for _, req := range specRequests() {
		body, err := json.Marshal(&req)
		if err != nil {
			return nil, err
		}
		t.attempted.Add(1)
		status, raw, err := d.post(body)
		if err != nil || status != 200 {
			return nil, fmt.Errorf("quality probe: status %d: %v", status, err)
		}
		served, _, _, err := splitResponse(raw)
		if err != nil {
			return nil, err
		}
		want, err := referenceBytes(body)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(served, want) {
			t.mismatch("quality probe: served Result differs from server.ReferenceResult")
			continue
		}
		prog, err := callcost.Compile(req.Source)
		if err != nil {
			return nil, err
		}
		ref, err := prog.Run()
		if err != nil {
			return nil, fmt.Errorf("reference run: %w", err)
		}
		cfg := machine.NewConfig(req.Config.RI, req.Config.RF, req.Config.EI, req.Config.EF)
		pf := prog.StaticFreq()
		a, err := prog.AllocateWithOptions(callcost.Strategies()[req.Strategy], cfg, pf, callcost.DefaultAllocOptions())
		if err != nil {
			return nil, err
		}
		res := server.RenderResult(a, pf)
		mine, err := json.Marshal(res)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(mine, served) {
			t.mismatch("quality probe: executed allocation differs from the served one")
			continue
		}
		if err := q.add(a, ref.RetInt, ref.RetFloat, res.Assembly); err != nil {
			t.mismatch("quality probe: %v", err)
		}
	}
	q.finish()
	return q, nil
}

// countIR counts the IR instructions of an allocation's input program.
func countIR(a *callcost.Allocation) int {
	n := 0
	for _, fn := range a.Program.IR.Funcs {
		for _, b := range fn.Blocks {
			n += len(b.Instrs)
		}
	}
	return n
}
