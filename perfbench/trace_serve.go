package main

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"time"
)

// passNames are the allocation passes of every strategy the serve and
// suite workloads run, as the pipeline names them.
var passNames = []string{"liveness", "build-graph", "coalesce", "liverange", "color", "scan", "spill-rewrite"}

// traceTolerance bounds the share of a traced request's time that no
// layer span covers, and the relative error allowed between the summed
// layer self times and the traced total.
const traceTolerance = 0.05

// daemonPassTolerance bounds how far the replica's summed pass time may
// stray from the daemon's phase_*_us histogram sums for the same
// requests, as a factor either way.
const daemonPassTolerance = 2.0

// spanLayers maps replica span names to per-layer metric names.
var spanLayers = map[string]string{
	"request":            "trace.unattributed_us",
	"server.decode":      "server.decode_us",
	"compile":            "compile.self_us",
	"ir.decode":          "ir.decode_us",
	"server.resolve":     "server.resolve_us",
	"freq.static":        "freq.static_us",
	"resultcache.key":    "resultcache.key_us",
	"resultcache.lookup": "resultcache.lookup_us",
	"regalloc.allocate":  "regalloc.driver_us",
	"rewrite.validate":   "rewrite.validate_us",
	"rewrite.plan":       "rewrite.plan_us",
	"server.render":      "server.render_us",
	"server.encode":      "server.encode_us",
}

// daemonCounters is a reading of the daemon's counters.
type daemonCounters struct {
	snap              *snapshot
	totalAlloc, numGC float64
}

func readCounters(d *daemon) (*daemonCounters, error) {
	snap, err := d.metrics()
	if err != nil {
		return nil, err
	}
	ta, gc, err := d.memStats()
	if err != nil {
		return nil, err
	}
	return &daemonCounters{snap: snap, totalAlloc: ta, numGC: gc}, nil
}

func (c *daemonCounters) counter(name string) float64 { return float64(c.snap.Counters[name]) }

// passSum is the daemon's summed pass time in microseconds.
func (c *daemonCounters) passSum() float64 {
	var sum float64
	for name, h := range c.snap.Histograms {
		if strings.HasPrefix(name, "phase_") && strings.HasSuffix(name, "_us") {
			sum += h.Sum
		}
	}
	return sum
}

// traceServe derives the serve workloads' per-layer metrics. The load
// phases already ran with the gauge sampler on; this adds a sequential
// replay of fresh requests, first through the daemon and then
// in-process through two replicas of its request core, one traced and
// one not, whose outputs must equal the served bytes.
func traceServe(o *options, d *daemon, in *serveInputs, g *gaugeSampler,
	before, after *daemonCounters, loadReqs float64, t *tally) (map[string]float64, error) {
	workers := float64(runtime.NumCPU())
	L := map[string]float64{
		"par.busy_ratio":          mean(g.busy) / workers,
		"par.queue_depth":         mean(g.qd),
		"runtime.alloc_kb_per_op": (after.totalAlloc - before.totalAlloc) / 1024 / loadReqs,
		"runtime.gc_cycles":       (after.numGC - before.numGC) / loadReqs,
		"resultcache.evictions": (after.counter("result_cache_evictions_total") -
			before.counter("result_cache_evictions_total")) / loadReqs,
	}

	// Sequential replay through the daemon.
	rp := in.replay
	n := len(rp.bodies)
	served := make([][]byte, n)
	rtt := make([]time.Duration, n)
	seq0, err := readCounters(d)
	if err != nil {
		return nil, err
	}
	for i, body := range rp.bodies {
		t.attempted.Add(1)
		t0 := time.Now()
		status, raw, err := d.post(body)
		rtt[i] = time.Since(t0)
		if err != nil || status != 200 {
			return nil, fmt.Errorf("replay request %d: status %d: %v", i, status, err)
		}
		if served[i], _, _, err = splitResponse(raw); err != nil {
			return nil, err
		}
		if rp.want != nil && !bytes.Equal(served[i], rp.want[i]) {
			t.mismatch("replay request %d: served Result differs from server.ReferenceResult", i)
		}
	}
	seq1, err := readCounters(d)
	if err != nil {
		return nil, err
	}

	// The same requests in-process, after the same warm-up the daemon got.
	plain := newReplica(nil)
	traced := newReplica(nil)
	for _, body := range in.warm.bodies {
		if _, _, _, _, err := plain.serve(body); err != nil {
			return nil, err
		}
		if _, _, _, _, err := traced.serve(body); err != nil {
			return nil, err
		}
	}
	traced.rounds, traced.spilled, traced.escalated = 0, 0, 0
	rec := newRecorder()
	traced.rec = rec
	var plainTotal, asmTotal, analyticTotal time.Duration
	var edge time.Duration
	var hits, funcs, irInstrs int
	for i, body := range rp.bodies {
		var outPlain, outTraced []byte
		var pd time.Duration
		runPlain := func() error {
			t0 := time.Now()
			out, _, _, _, err := plain.serve(body)
			pd = time.Since(t0)
			outPlain = out
			return err
		}
		runTraced := func() error {
			rec.req = i
			out, a, h, m, err := traced.serve(body)
			if err != nil {
				return err
			}
			outTraced = out
			hits += h
			funcs += h + m
			irInstrs += countIR(a)
			// Render's two big callees, timed on the same allocation
			// outside the request span.
			t0 := time.Now()
			_ = a.Assembly()
			asmTotal += time.Since(t0)
			t0 = time.Now()
			_ = a.Overhead(a.Program.StaticFreq())
			analyticTotal += time.Since(t0)
			return nil
		}
		// Alternate which replica goes first, so neither always runs on
		// caches the other warmed.
		first, second := runPlain, runTraced
		if i%2 == 1 {
			first, second = runTraced, runPlain
		}
		if err := first(); err != nil {
			return nil, fmt.Errorf("replica request %d: %w", i, err)
		}
		if err := second(); err != nil {
			return nil, fmt.Errorf("replica request %d: %w", i, err)
		}
		t.attempted.Add(2)
		plainTotal += pd
		edge += rtt[i] - pd
		res, _, _, err := splitResponse(outTraced)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(res, served[i]) {
			t.mismatch("replay request %d: replica Result differs from the served bytes", i)
		}
		if !bytes.Equal(outPlain, outTraced) {
			t.mismatch("replay request %d: traced and untraced replicas disagree", i)
		}
	}

	// Requests with no precomputed Result (serve-cold) are also checked
	// against the oracle, one in coldVerify.
	if rp.want == nil {
		for i := 0; i < n; i += coldVerify {
			want, err := referenceBytes(rp.bodies[i])
			if err != nil {
				return nil, err
			}
			if !bytes.Equal(want, served[i]) {
				t.mismatch("replay request %d: served Result differs from server.ReferenceResult", i)
			}
		}
	}

	self, calls, total := layerTotals(rec.spans)
	if err := checkSelfTimes(self, total); err != nil {
		t.mismatch("%v", err)
	}
	nf := float64(n)
	for name, metric := range spanLayers {
		L[metric] = us(self[name]) / nf
	}
	var replicaPass float64
	for _, p := range passNames {
		L["pipeline."+p+"_us"] = us(self["pass:"+p]) / nf
		L["pipeline."+p+"_runs"] = float64(calls["pass:"+p]) / nf
		replicaPass += us(self["pass:"+p])
	}
	daemonPass := seq1.passSum() - seq0.passSum()
	ratio := 0.0
	if daemonPass > 0 {
		ratio = replicaPass / daemonPass
		// Below a millisecond both sides are timer noise.
		if daemonPass > 1000 && (ratio > daemonPassTolerance || ratio < 1/daemonPassTolerance) {
			t.mismatch("replica pass time %.0f us vs daemon phase_*_us sum %.0f us", replicaPass, daemonPass)
		}
	}
	dHits := seq1.counter("result_cache_hits_total") - seq0.counter("result_cache_hits_total")
	dMisses := seq1.counter("result_cache_misses_total") - seq0.counter("result_cache_misses_total")
	misses := funcs - hits
	L["pipeline.daemon_ratio"] = ratio
	L["resultcache.hit_ratio"] = float64(hits) / float64(max(funcs, 1))
	L["resultcache.daemon_hit_ratio"] = dHits / max(dHits+dMisses, 1)
	L["regalloc.rounds"] = float64(traced.rounds) / float64(max(misses, 1))
	L["regalloc.spilled_regs"] = float64(traced.spilled) / nf
	L["linscan.escalations"] = float64(traced.escalated) / nf
	L["compile.ir_instrs"] = float64(irInstrs) / nf
	L["codegen.asm_us"] = us(asmTotal) / nf
	L["metrics.analytic_us"] = us(analyticTotal) / nf
	L["server.edge_us"] = us(edge) / nf
	L["trace.request_us"] = us(total) / nf
	L["trace.overhead_pct"] = 100 * (float64(total)/float64(plainTotal) - 1)
	L["trace.replayed"] = nf

	if err := saveSpans(o, rec.spans); err != nil {
		return nil, err
	}
	return L, nil
}

// checkSelfTimes verifies that the layer self times add up to the traced
// total and that the root's own share — time no layer span covers —
// stays within traceTolerance.
func checkSelfTimes(self map[string]time.Duration, total time.Duration) error {
	var sum time.Duration
	for _, d := range self {
		sum += d
	}
	if total <= 0 {
		return nil
	}
	if diff := float64(sum-total) / float64(total); diff > traceTolerance || diff < -traceTolerance {
		return fmt.Errorf("layer self times sum to %v, traced total %v", sum, total)
	}
	if share := float64(self["request"]) / float64(total); share > traceTolerance {
		return fmt.Errorf("%.1f%% of traced time is outside every layer span (tolerance %.0f%%)",
			100*share, 100*traceTolerance)
	}
	return nil
}
