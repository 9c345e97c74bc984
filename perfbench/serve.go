package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/benchprog"
	"repro/internal/ir"
	"repro/internal/randprog"
	"repro/internal/server"
)

// Traffic shape of the serve workloads. The open-loop rates are fixed
// at about half of the closed-loop capacity measured on a 2-CPU x86-64
// host: enough headroom that no standing queue forms, and busy enough
// that the tail is not dominated by waking idle vCPUs. The closed-loop
// phase gets most of each round, since it gives the end-to-end latency
// and throughput.
const (
	hotRate     = 140.0 // serve-hot open-loop requests per second
	coldRate    = 55.0  // serve-cold open-loop requests per second
	rounds      = 6     // open-loop then closed-loop phases alternate this often
	openShare   = 0.3   // share of each round spent in the open-loop phase
	hotItems    = 64    // random programs in the serve-hot working set
	zipfS       = 1.1   // serve-hot popularity skew
	wireEvery   = 4     // every 4th request carries wire IR instead of source
	coldVerify  = 8     // serve-cold byte-checks one request in this many
	coldWarm    = 8     // serve-cold warm-up requests, from a disjoint seed range
	maxHotRPS   = 2000  // bound on closed-loop requests drawn per second (serve-hot)
	maxColdRPS  = 300   // bound on closed-loop requests generated per second (serve-cold)
	hotSetups   = 3     // serve-hot daemon set-ups per run; setup_s is their median
	coldSetups  = 7     // serve-cold set-ups are short, so take more of them
	sampleEvery = 50 * time.Millisecond
	hotReplay   = 600 // requests a traced serve-hot run replays sequentially
	coldReplay  = 250 // requests a traced serve-cold run replays sequentially
)

// serveConfigs and serveStrategies mirror the rotation of
// randprog.Corpus, so the SPEC92 stand-ins rotate like the random
// programs do.
var (
	serveConfigs = []server.ConfigRequest{
		{RI: 6, RF: 4, EI: 0, EF: 0},
		{RI: 8, RF: 6, EI: 4, EF: 4},
		{RI: 10, RF: 6, EI: 0, EF: 0},
		{RI: 12, RF: 8, EI: 8, EF: 6},
	}
	serveStrategies = []string{"improved", "linscan", "hybrid"}
)

// stream is a serve workload's request sequence: request i sends
// bodies[i] and, when want[i] is set, its Result must equal want[i].
// Requests without a want are checked after the load phases when
// verify[i] is set. When key is set, key[i] names the distinct body
// request i sends; otherwise every request sends a body of its own.
type stream struct {
	bodies [][]byte
	want   [][]byte
	verify []bool
	key    []int
}

// serveInputs is everything a serve workload sends.
type serveInputs struct {
	rate   float64
	warm   stream // set-up traffic, repeated on every daemon start
	load   stream // the measured sequence
	replay stream // the traced run's sequential replay
	// weight[k] is distinct body k's share of the workload's traffic;
	// nil when every request sends a body of its own.
	weight []float64
}

// specRequests returns the 14 SPEC92 stand-ins as static-frequency
// requests, each with a fixed configuration and strategy by name order.
func specRequests() []server.Request {
	var reqs []server.Request
	for k, bp := range benchprog.All() {
		reqs = append(reqs, server.Request{
			Source:   bp.Source,
			Config:   serveConfigs[k%len(serveConfigs)],
			Strategy: serveStrategies[k%len(serveStrategies)],
		})
	}
	return reqs
}

// wireForm rewrites a source request body into the same request
// carrying wire IR.
func wireForm(body []byte) ([]byte, error) {
	var req server.Request
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	prog, err := callcost.Compile(req.Source)
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	enc, err := ir.EncodeProgram(prog.IR)
	if err != nil {
		return nil, err
	}
	req.Source, req.IR = "", enc
	return json.Marshal(&req)
}

// referenceBytes is the oracle's Result for a request body, encoded as
// the daemon encodes it.
func referenceBytes(body []byte) ([]byte, error) {
	var req server.Request
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	res, err := server.ReferenceResult(&req)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	return json.Marshal(res)
}

// parallel runs f(0..n-1) on workers goroutines and returns the first
// error.
func parallel(n, workers int, f func(i int) error) error {
	var next atomic.Int64
	var once sync.Once
	var first error
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := f(i); err != nil {
					once.Do(func() { first = err })
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// The serve workloads send fixed request multisets, so every seed
// measures the same cost mix; the seed decides the order.
const (
	hotCorpusSeed  = 1
	hotPermSeed    = 1
	hotDrawSeed    = 1
	coldCorpusSeed = int64(1) << 32
)

// hotInputs builds serve-hot: randprog.Corpus(hotCorpusSeed, 64) plus the
// SPEC92 stand-ins, every request drawn Zipf over a fixed permutation of
// them, every fourth one as wire IR. The set-up warms every distinct
// body.
func hotInputs(seed int64, seconds float64, workers int) (*serveInputs, error) {
	src := randprog.Corpus(hotCorpusSeed, hotItems)
	for _, req := range specRequests() {
		body, err := json.Marshal(&req)
		if err != nil {
			return nil, err
		}
		src = append(src, body)
	}
	n := len(src)
	// forms[2k] is item k as source, forms[2k+1] as wire IR.
	forms := make([][]byte, 2*n)
	wants := make([][]byte, 2*n)
	err := parallel(n, workers, func(k int) error {
		w, err := wireForm(src[k])
		if err != nil {
			return err
		}
		forms[2*k], forms[2*k+1] = src[k], w
		if wants[2*k], err = referenceBytes(src[k]); err != nil {
			return err
		}
		wants[2*k+1], err = referenceBytes(w)
		return err
	})
	if err != nil {
		return nil, err
	}
	perm := rand.New(rand.NewSource(hotPermSeed)).Perm(n)
	in := &serveInputs{rate: hotRate, warm: stream{bodies: forms, want: wants}}
	nOpen := openCount(hotRate, seconds)
	nClosed := int(maxHotRPS * seconds * (1 - openShare))
	rng := rand.New(rand.NewSource(seed))
	draw := func(ranks []int) stream {
		s := stream{bodies: make([][]byte, len(ranks)), want: make([][]byte, len(ranks)), key: make([]int, len(ranks))}
		for i, r := range ranks {
			f := 2 * perm[r]
			if i%wireEvery == wireEvery-1 {
				f++
			}
			s.bodies[i], s.want[i], s.key[i] = forms[f], wants[f], f
		}
		return s
	}
	ranks := zipfRanks(hotDrawSeed, n, nOpen+nClosed, zipfS)
	rng.Shuffle(nOpen, func(i, j int) { ranks[i], ranks[j] = ranks[j], ranks[i] })
	rng.Shuffle(nClosed, func(i, j int) { ranks[nOpen+i], ranks[nOpen+j] = ranks[nOpen+j], ranks[nOpen+i] })
	in.load = draw(ranks)
	in.replay = draw(zipfRanks(hotDrawSeed+1, n, hotReplay, zipfS))
	// The weights are the draw's probabilities, not its counts, so they
	// do not depend on the run's length.
	in.weight = make([]float64, len(forms))
	for r, p := range zipfProbs(n, zipfS) {
		in.weight[2*perm[r]] = p * (wireEvery - 1) / wireEvery
		in.weight[2*perm[r]+1] = p / wireEvery
	}
	return in, nil
}

// coldInputs builds serve-cold: every request a never-seen
// randprog.Corpus program, rotated like serve-hot. The open-loop phase
// sends the pool's first programs and the closed-loop phase the rest,
// each in a seeded order. One request in coldVerify, chosen by a seeded
// draw, is byte-checked after the run.
func coldInputs(seed int64, seconds float64, workers int, traced bool) (*serveInputs, error) {
	nOpen := openCount(coldRate, seconds)
	nLoad := nOpen + int(maxColdRPS*seconds*(1-openShare))
	nReplay := 0
	if traced {
		nReplay = coldReplay
	}
	gen := func(first int64, count int) (stream, error) {
		s := stream{bodies: make([][]byte, count), verify: make([]bool, count)}
		// Corpus rotates configurations and strategies by position, so
		// chunks start at multiples of the rotation period.
		const chunk = 12 * 16
		err := parallel((count+chunk-1)/chunk, workers, func(c int) error {
			lo := c * chunk
			hi := min(lo+chunk, count)
			for j, body := range randprog.Corpus(first+int64(lo), hi-lo) {
				i := lo + j
				if i%wireEvery == wireEvery-1 {
					w, err := wireForm(body)
					if err != nil {
						return err
					}
					body = w
				}
				s.bodies[i] = body
			}
			return nil
		})
		return s, err
	}
	in := &serveInputs{rate: coldRate}
	var err error
	if in.warm, err = gen(coldCorpusSeed-coldWarm, coldWarm); err != nil {
		return nil, err
	}
	if in.load, err = gen(coldCorpusSeed, nLoad); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	shuffle := func(b [][]byte) { rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] }) }
	shuffle(in.load.bodies[:nOpen])
	shuffle(in.load.bodies[nOpen:])
	for i := range in.load.verify {
		in.load.verify[i] = rng.Intn(coldVerify) == 0
	}
	if in.replay, err = gen(coldCorpusSeed+int64(nLoad), nReplay); err != nil {
		return nil, err
	}
	return in, nil
}

// tally counts request outcomes across sender goroutines.
type tally struct {
	attempted, failed, wrong, funcs atomic.Int64
	mu                              sync.Mutex
	deferred                        map[int][]byte // request index → served Result, checked later
	firstWrong                      string
}

func newTally() *tally { return &tally{deferred: make(map[int][]byte)} }

func (t *tally) mismatch(format string, args ...any) {
	t.wrong.Add(1)
	t.failed.Add(1)
	t.mu.Lock()
	if t.firstWrong == "" {
		t.firstWrong = fmt.Sprintf(format, args...)
	}
	t.mu.Unlock()
}

// sender returns the send function of a load phase over s, which
// starts at request number base of its stream: it posts request i,
// checks the reply, and reports whether it was a correct 200.
func (t *tally) sender(d *daemon, s stream, base int) func(i int) bool {
	return func(i int) bool {
		t.attempted.Add(1)
		status, raw, err := d.post(s.bodies[i])
		if err != nil || status != 200 {
			t.failed.Add(1)
			if err == nil && status >= 500 {
				t.mismatch("request %d: status %d: %.200s", base+i, status, raw)
			}
			return false
		}
		res, hits, misses, err := splitResponse(raw)
		if err != nil {
			t.mismatch("request %d: %v", base+i, err)
			return false
		}
		switch {
		case s.want != nil && s.want[i] != nil:
			if !bytes.Equal(res, s.want[i]) {
				t.mismatch("request %d: served Result differs from server.ReferenceResult", base+i)
				return false
			}
		case s.verify != nil && s.verify[i]:
			t.mu.Lock()
			t.deferred[base+i] = bytes.Clone(res)
			t.mu.Unlock()
		}
		t.funcs.Add(int64(hits + misses))
		return true
	}
}

// checkDeferred byte-compares the kept responses of s against the
// oracle.
func (t *tally) checkDeferred(s stream, workers int) error {
	idx := make([]int, 0, len(t.deferred))
	for i := range t.deferred {
		idx = append(idx, i)
	}
	return parallel(len(idx), workers, func(k int) error {
		i := idx[k]
		want, err := referenceBytes(s.bodies[i])
		if err != nil {
			return err
		}
		if !bytes.Equal(want, t.deferred[i]) {
			t.mismatch("request %d: served Result differs from server.ReferenceResult", i)
		}
		return nil
	})
}

// setUp starts a daemon and sends it the warm-up traffic, checking every
// reply. It returns the daemon and the set-up time.
func setUp(bin string, in *serveInputs, senders int) (*daemon, time.Duration, error) {
	t0 := time.Now()
	d, err := startDaemon(bin, senders)
	if err != nil {
		return nil, 0, err
	}
	t := newTally()
	_, ok, _ := closedLoop(time.Hour, len(in.warm.bodies), senders, t.sender(d, in.warm, 0))
	elapsed := time.Since(t0)
	if ok != len(in.warm.bodies) {
		d.stop()
		if t.firstWrong != "" {
			return nil, 0, fmt.Errorf("warm-up: %s", t.firstWrong)
		}
		return nil, 0, fmt.Errorf("warm-up: %d of %d requests failed", len(in.warm.bodies)-ok, len(in.warm.bodies))
	}
	return d, elapsed, nil
}

// gaugeSampler polls the daemon's pool gauges while a load phase runs.
type gaugeSampler struct {
	stop      chan struct{}
	done      chan struct{}
	busy, qd  []float64
	sampleErr error
}

func sampleGauges(d *daemon) *gaugeSampler {
	g := &gaugeSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(g.done)
		tick := time.NewTicker(sampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-tick.C:
				snap, err := d.metrics()
				if err != nil {
					g.sampleErr = err
					return
				}
				g.busy = append(g.busy, float64(snap.Gauges["server_busy_workers"]))
				g.qd = append(g.qd, float64(snap.Gauges["server_queue_depth"]))
			}
		}
	}()
	return g
}

func (g *gaugeSampler) finish() error {
	close(g.stop)
	<-g.done
	return g.sampleErr
}

// runServe runs one serve workload against a stock rallocd and returns
// its result.
func runServe(o *options) (*result, error) {
	workers := runtime.NumCPU()
	senders := workers
	var in *serveInputs
	var err error
	if o.workload == "serve-hot" {
		in, err = hotInputs(o.seed, o.seconds, workers)
	} else {
		in, err = coldInputs(o.seed, o.seconds, workers, o.trace)
	}
	if err != nil {
		return nil, fmt.Errorf("build inputs: %w", err)
	}
	repeats := hotSetups
	if o.workload == "serve-cold" {
		repeats = coldSetups
	}
	if o.trace {
		repeats = 1
	}
	var setups []float64
	var d *daemon
	for r := 0; r < repeats; r++ {
		if d != nil {
			d.stop()
		}
		var el time.Duration
		if d, el, err = setUp(o.rallocd, in, senders); err != nil {
			return nil, err
		}
		setups = append(setups, el.Seconds())
	}
	defer d.stop()
	t := newTally()

	var g *gaugeSampler
	var before *daemonCounters
	if o.trace {
		if before, err = readCounters(d); err != nil {
			return nil, err
		}
		g = sampleGauges(d)
	}
	m, err := measure(d, in, o.seconds, senders, t)
	if err != nil {
		return nil, err
	}
	var layers map[string]float64
	if o.trace {
		if err := g.finish(); err != nil {
			return nil, fmt.Errorf("sample /metrics: %w", err)
		}
		after, err := readCounters(d)
		if err != nil {
			return nil, err
		}
		loadReqs := float64(len(m.samples) + m.closed)
		layers, err = traceServe(o, d, in, g, before, after, loadReqs, t)
		if err != nil {
			return nil, err
		}
	}

	q, err := probeServed(d, t)
	if err != nil {
		return nil, err
	}
	rss, err := vmHWM(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	d.stop()
	if err := t.checkDeferred(in.load, workers); err != nil {
		return nil, err
	}

	res := &result{
		Correct:   t.wrong.Load() == 0,
		Attempted: int(t.attempted.Load()),
		Failed:    int(t.failed.Load()),
	}
	if t.firstWrong != "" {
		fmt.Fprintln(os.Stderr, "perfbench: wrong output:", t.firstWrong)
	}
	lat := make([]float64, len(m.samples))
	late := make([]float64, len(m.samples))
	for i, s := range m.samples {
		lat[i], late[i] = s.latency(), s.late()
	}
	p99, pct := tail(lat)
	lateTail, _ := tail(late)
	p50 := bodyMedian(m.lat, m.key, in.weight)
	fmt.Fprintf(os.Stderr, "perfbench: %d rounds: open loop %d requests at %.0f/s, p%.2f %.3f ms; closed loop %d requests, p50 %.4f ms, round rates %.4v/s\n",
		rounds, len(m.samples), in.rate, pct, p99, m.closed, p50, m.rps)
	if o.trace {
		layers["loadgen.late_p99_ms"] = lateTail
		layers["latency.p99_ms"] = p99
		layers["latency.tail_pct"] = pct
		layers["latency.samples"] = float64(len(m.samples))
		for k, v := range q.layers() {
			layers[k] = v
		}
		res.Metrics = layerMetrics(layers)
		return res, nil
	}
	res.Metrics = endToEndMetrics(map[string]float64{
		"p50_ms":         p50,
		"throughput_rps": median(m.rps),
		"alloc_fps":      m.funcs / m.cpu,
		"overhead_gm":    q.overheadGM,
		"cycles_gm":      q.cyclesGM,
		"code_insns":     q.insns,
		"ok_ratio":       okRatio(res),
		"rss_peak_mb":    rss,
		"setup_s":        median(setups),
	})
	return res, nil
}

// measured is the outcome of a serve workload's load phases.
type measured struct {
	samples []sample  // every open-loop request, all rounds
	lat     []float64 // latency of every closed-loop request, ms
	key     []int     // the distinct body of each closed-loop request; nil when each is its own
	rps     []float64 // closed-loop correct responses per second, per round
	funcs   float64   // functions in correct closed-loop responses
	cpu     float64   // daemon CPU seconds during the closed-loop phases
	closed  int       // closed-loop requests sent
}

// measure alternates an open-loop and a closed-loop phase for rounds
// rounds, so both see the whole run's conditions. The open-loop phases
// send the first requests of in.load in order; the closed-loop phases
// continue from where the previous one stopped.
func measure(d *daemon, in *serveInputs, seconds float64, senders int, t *tally) (*measured, error) {
	roundDur := seconds / rounds
	nOpen := openCount(in.rate, seconds)
	perRound := nOpen / rounds
	interval := time.Duration(float64(time.Second) / in.rate)
	closedDur := time.Duration(roundDur * (1 - openShare) * float64(time.Second))
	m := &measured{}
	next := nOpen
	for r := 0; r < rounds; r++ {
		lo := r * perRound
		m.samples = append(m.samples, openLoop(perRound, interval, senders, t.sender(d, in.load.slice(lo, lo+perRound), lo))...)

		f0 := t.funcs.Load()
		c0, err := cpuSeconds(d.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		rest := in.load.slice(next, len(in.load.bodies))
		lat, ok, el := closedLoop(closedDur, len(rest.bodies), senders, t.sender(d, rest, next))
		c1, err := cpuSeconds(d.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		issued := len(lat)
		if issued == len(rest.bodies) {
			return nil, fmt.Errorf("closed loop ran out of its %d generated requests", len(in.load.bodies)-nOpen)
		}
		m.lat = append(m.lat, lat...)
		if rest.key != nil {
			m.key = append(m.key, rest.key[:issued]...)
		}
		next += issued
		m.closed += issued
		m.rps = append(m.rps, float64(ok)/el.Seconds())
		m.funcs += float64(t.funcs.Load() - f0)
		m.cpu += c1 - c0
	}
	return m, nil
}

// openCount is the number of open-loop requests a run of the given
// length sends at rate, over all rounds.
func openCount(rate, seconds float64) int {
	return rounds * int(rate*seconds/rounds*openShare)
}

// slice returns requests lo..hi-1 of s.
func (s stream) slice(lo, hi int) stream {
	out := stream{bodies: s.bodies[lo:hi]}
	if s.want != nil {
		out.want = s.want[lo:hi]
	}
	if s.verify != nil {
		out.verify = s.verify[lo:hi]
	}
	if s.key != nil {
		out.key = s.key[lo:hi]
	}
	return out
}

func okRatio(r *result) float64 {
	return float64(r.Attempted-r.Failed) / float64(r.Attempted)
}
