package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"repro"
	"repro/internal/benchprog"
	"repro/internal/callgraph"
	"repro/internal/machine"
	"repro/internal/randprog"
	"repro/internal/rewrite"
	"repro/internal/telemetry"
)

// calldagSeeds are the randprog.CallDAGOptions seeds of the suite's
// generated programs: the first four seeds from 1 whose reference run
// finishes within calldagMaxSteps interpreter steps and takes at least
// calldagMinSteps — wide call DAGs that execute in milliseconds.
var calldagSeeds = []int64{2, 5, 6, 7}

const (
	calldagMinSteps = 10_000
	calldagMaxSteps = 2_000_000
	suiteSetups     = 9 // set-ups per run; setup_s is their median
	suiteTraceReps  = 3 // least grid passes per variant in a traced run
)

var suiteStrategies = []string{"improved", "linscan", "hybrid"}

// suiteProgram is one program of the suite with its profile and the
// reference interpreter's result.
type suiteProgram struct {
	name      string
	prog      *callcost.Program
	pf        *callcost.FreqInfo
	wantInt   int64
	wantFloat float64
}

// cell is one (program, strategy, configuration) allocation of the grid.
type cell struct {
	p      *suiteProgram
	strat  callcost.Strategy
	config callcost.Config
}

func suiteSources() (names, srcs []string) {
	for _, bp := range benchprog.All() {
		names = append(names, bp.Name)
		srcs = append(srcs, bp.Source)
	}
	for _, s := range calldagSeeds {
		names = append(names, fmt.Sprintf("calldag%d", s))
		srcs = append(srcs, randprog.Generate(s, randprog.CallDAGOptions()))
	}
	return names, srcs
}

// suiteSetUp compiles the suite and profiles every program: the work a
// user pays before the first allocation.
func suiteSetUp() ([]*suiteProgram, error) {
	names, srcs := suiteSources()
	progs := make([]*suiteProgram, len(srcs))
	for i, src := range srcs {
		prog, err := callcost.Compile(src)
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", names[i], err)
		}
		pf, _, err := prog.Profile()
		if err != nil {
			return nil, fmt.Errorf("profile %s: %w", names[i], err)
		}
		progs[i] = &suiteProgram{name: names[i], prog: prog, pf: pf}
	}
	return progs, nil
}

func suiteCells(progs []*suiteProgram) []cell {
	var cells []cell
	for _, p := range progs {
		for _, s := range suiteStrategies {
			for _, c := range machine.ShortSweep() {
				cells = append(cells, cell{p: p, strat: callcost.Strategies()[s], config: c})
			}
		}
	}
	return cells
}

func batchOptions() callcost.AllocOptions {
	opts := callcost.DefaultAllocOptions()
	opts.NoPrepCache = true
	return opts
}

func (c cell) allocate(workers int) (*callcost.Allocation, callcost.BatchStats, error) {
	return c.p.prog.AllocateProgramBatch(c.strat, c.config, c.p.pf, batchOptions(),
		callcost.BatchOptions{Interproc: true, Workers: workers})
}

// gridPass allocates every cell once in a seeded order and returns the
// wall time of the batch calls alone.
func gridPass(cells []cell, rng *rand.Rand, workers int, rec *recorder,
	each func(ci int, a *callcost.Allocation, bs callcost.BatchStats, d time.Duration)) (time.Duration, error) {
	var wall time.Duration
	for _, ci := range rng.Perm(len(cells)) {
		c := cells[ci]
		id := rec.begin(fmt.Sprintf("cell:%s/%s/%s", c.p.name, c.strat.Name(), c.config))
		t0 := time.Now()
		a, bs, err := c.allocate(workers)
		d := time.Since(t0)
		wall += d
		rec.end(id)
		if err != nil {
			return 0, fmt.Errorf("%s/%s/%s: %w", cells[ci].p.name, cells[ci].strat.Name(), cells[ci].config, err)
		}
		if each != nil {
			each(ci, a, bs, d)
		}
	}
	return wall, nil
}

// executeCells runs every allocation on the machine-level interpreter
// and checks its result against the reference interpreter.
func executeCells(cells []cell, allocs []*callcost.Allocation, workers int) (*quality, error) {
	parts := make([]*quality, len(cells))
	err := parallel(len(cells), workers, func(i int) error {
		q := &quality{}
		a := allocs[i]
		if err := q.add(a, cells[i].p.wantInt, cells[i].p.wantFloat, a.Assembly()); err != nil {
			return fmt.Errorf("%s: %w", cells[i].p.name, err)
		}
		parts[i] = q
		return nil
	})
	if err != nil {
		return nil, err
	}
	q := &quality{}
	for _, p := range parts {
		q.merge(p)
	}
	q.finish()
	return q, nil
}

// referenceResults runs every program on the reference interpreter.
func referenceResults(progs []*suiteProgram) error {
	for _, p := range progs {
		res, err := p.prog.Run()
		if err != nil {
			return fmt.Errorf("reference run of %s: %w", p.name, err)
		}
		p.wantInt, p.wantFloat = res.RetInt, res.RetFloat
	}
	return nil
}

// runSuite runs suite-batch: the in-process whole-program batch
// allocator over the grid, then every cell executed once.
func runSuite(o *options) (*result, error) {
	workers := runtime.NumCPU()
	var setups []float64
	var progs []*suiteProgram
	repeats := suiteSetups
	if o.trace {
		repeats = 1
	}
	for r := 0; r < repeats; r++ {
		t0 := time.Now()
		var err error
		if progs, err = suiteSetUp(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	if err := referenceResults(progs); err != nil {
		return nil, err
	}
	cells := suiteCells(progs)
	if o.trace {
		return traceSuite(o, progs, cells, workers)
	}

	// Each cell is allocated once per pass, in a seeded order, until the
	// time is up. The work per cell is fixed, so its fastest call is its
	// cost: interference from other tenants on a shared host only ever
	// adds time, and the minimum over dozens of calls drops it.
	allocs := make([]*callcost.Allocation, len(cells))
	times := make([][]float64, len(cells))
	calls := 0
	cpu0, err := selfCPU()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(o.seed))
	start := time.Now()
	budget := time.Duration(o.seconds * float64(time.Second))
	// Every cell is allocated at least once, so each can be executed.
	for pass := 0; pass == 0 || time.Since(start) < budget; pass++ {
		for _, ci := range rng.Perm(len(cells)) {
			if pass > 0 && time.Since(start) >= budget {
				break
			}
			t0 := time.Now()
			a, _, err := cells[ci].allocate(workers)
			d := time.Since(t0)
			if err != nil {
				return nil, fmt.Errorf("%s/%s/%s: %w", cells[ci].p.name, cells[ci].strat.Name(), cells[ci].config, err)
			}
			times[ci] = append(times[ci], ms(d))
			calls++
			if allocs[ci] == nil {
				allocs[ci] = a
			}
		}
	}
	cpu1, err := selfCPU()
	if err != nil {
		return nil, err
	}
	cellMs := make([]float64, len(cells))
	var gridMs float64
	funcs := 0
	for ci, ts := range times {
		cellMs[ci] = sortedCopy(ts)[0]
		gridMs += cellMs[ci]
		funcs += len(ts) * len(cells[ci].p.prog.IR.Funcs)
	}
	q, err := executeCells(cells, allocs, workers)
	res := &result{Correct: err == nil, Attempted: calls + len(cells)}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: wrong output:", err)
		res.Failed = 1
		q = &quality{}
	}
	rss, err := vmHWM(os.Getpid())
	if err != nil {
		return nil, err
	}
	p99, pct := tail(cellMs)
	fmt.Fprintf(os.Stderr, "perfbench: %d batch calls over %d cells; fastest grid pass %.1f ms; p%.2f over cells %.3f ms\n",
		calls, len(cells), gridMs, pct, p99)
	res.Metrics = endToEndMetrics(map[string]float64{
		"p50_ms":         median(cellMs),
		"throughput_rps": 1000 * float64(len(cells)) / gridMs,
		"alloc_fps":      float64(funcs) / (cpu1 - cpu0),
		"overhead_gm":    q.overheadGM,
		"cycles_gm":      q.cyclesGM,
		"code_insns":     q.insns,
		"ok_ratio":       okRatio(res),
		"rss_peak_mb":    rss,
		"setup_s":        median(setups),
	})
	return res, nil
}

// traceSuite derives suite-batch's per-layer metrics from grid passes
// run three ways, in turn until the time is up — Workers=nproc
// untraced, Workers=1 untraced, and Workers=1 with the telemetry
// registry on — plus timed probes of the layers the batch driver calls
// internally.
func traceSuite(o *options, progs []*suiteProgram, cells []cell, workers int) (*result, error) {
	rng := rand.New(rand.NewSource(o.seed))
	nc := float64(len(cells))
	var wallN, wall1, wallT []float64
	var sccs, readyPeak, sumHits, sumMisses float64
	allocs := make([]*callcost.Allocation, len(cells))
	reg := telemetry.NewRegistry()
	var msBefore, msAfter runtime.MemStats
	rec := newRecorder()
	cellMs := make([]float64, len(cells))
	start := time.Now()
	budget := time.Duration(o.seconds * float64(time.Second))
	reps := 0
	for r := 0; r < suiteTraceReps || time.Since(start) < budget; r++ {
		reps++
		runtime.ReadMemStats(&msBefore)
		w, err := gridPass(cells, rng, workers, nil, func(ci int, a *callcost.Allocation, bs callcost.BatchStats, d time.Duration) {
			if r == 0 || ms(d) < cellMs[ci] {
				cellMs[ci] = ms(d)
			}
			if r == 0 {
				sccs += float64(bs.SCCs)
				readyPeak += float64(bs.ReadyPeak)
				sumHits += float64(bs.SummaryHits)
				sumMisses += float64(bs.SummaryMisses)
			}
		})
		runtime.ReadMemStats(&msAfter)
		if err != nil {
			return nil, err
		}
		wallN = append(wallN, ms(w))
		if w, err = gridPass(cells, rng, 1, nil, nil); err != nil {
			return nil, err
		}
		wall1 = append(wall1, ms(w))
		telemetry.Enable(reg)
		w, err = gridPass(cells, rng, 1, rec, func(ci int, a *callcost.Allocation, _ callcost.BatchStats, _ time.Duration) {
			allocs[ci] = a
		})
		telemetry.Disable()
		if err != nil {
			return nil, err
		}
		wallT = append(wallT, ms(w))
	}
	snap := reg.Snapshot()
	passes := float64(reps) * nc
	p99, pct := tail(cellMs)
	L := map[string]float64{
		"batch.sccs":              sccs / nc,
		"batch.ready_peak":        readyPeak / nc,
		"batch.dag_speedup":       median(wall1) / median(wallN),
		"interproc.hit_ratio":     sumHits / max(sumHits+sumMisses, 1),
		"regalloc.rounds":         float64(snap.Counters["alloc_rounds_total"]) / max(float64(snap.Counters["alloc_funcs_total"]), 1),
		"regalloc.spilled_regs":   float64(snap.Counters["alloc_spilled_regs_total"]) / passes,
		"linscan.escalations":     float64(snap.Counters["hybrid_escalations_total"]) / passes,
		"runtime.alloc_kb_per_op": float64(msAfter.TotalAlloc-msBefore.TotalAlloc) / 1024 / nc,
		"runtime.gc_cycles":       float64(msAfter.NumGC-msBefore.NumGC) / nc,
		"trace.overhead_pct":      100 * (median(wallT)/median(wall1) - 1),
		"trace.request_us":        1000 * median(wallT) / nc,
		"latency.p99_ms":          p99,
		"latency.tail_pct":        pct,
		"latency.samples":         nc,
	}
	var passUs float64
	for _, p := range passNames {
		h := snap.Histograms["phase_"+strings.ReplaceAll(p, "-", "_")+"_us"]
		L["pipeline."+p+"_us"] = h.Sum / passes
		L["pipeline."+p+"_runs"] = float64(h.Count) / passes
		passUs += h.Sum / passes
	}

	// Probes: the batch driver's own calls into callgraph and rewrite,
	// timed on the same programs and allocations.
	var cg, val, plan time.Duration
	for i, c := range cells {
		t0 := time.Now()
		callgraph.Build(c.p.prog.IR)
		cg += time.Since(t0)
		for _, fp := range allocs[i].Plans {
			t0 = time.Now()
			err := rewrite.Validate(fp.Alloc)
			val += time.Since(t0)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", c.p.name, err)
			}
			t0 = time.Now()
			rewrite.BuildPlan(fp.Alloc)
			plan += time.Since(t0)
		}
	}
	L["callgraph.build_us"] = us(cg) / nc
	L["rewrite.validate_us"] = us(val) / nc
	L["rewrite.plan_us"] = us(plan) / nc
	L["batch.driver_us"] = L["trace.request_us"] - passUs

	var profile time.Duration
	for _, p := range progs {
		t0 := time.Now()
		if _, _, err := p.prog.Profile(); err != nil {
			return nil, err
		}
		profile += time.Since(t0)
	}
	L["freq.profile_ms"] = ms(profile) / float64(len(progs))

	q, err := executeCells(cells, allocs, workers)
	res := &result{Correct: err == nil, Attempted: 3*reps*len(cells) + len(cells)}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: wrong output:", err)
		res.Failed = 1
		q = &quality{}
	}
	for k, v := range q.layers() {
		L[k] = v
	}
	if err := saveSpans(o, rec.spans); err != nil {
		return nil, err
	}
	res.Metrics = layerMetrics(L)
	return res, nil
}
