// Package server is the allocation service behind cmd/rallocd:
// register allocation as a request/response protocol over HTTP/JSON,
// built from three layers.
//
// The request core is content-addressed: every function of a request
// is keyed by the hash of its exact allocation inputs (IR, frequency
// table, machine configuration, strategy, resolved pass pipeline), and
// the cache (internal/resultcache) keeps each allocated function's
// rendered fragment — its FuncResult, its assembly text and its
// analytic overhead — so repeat traffic and shared helpers never
// re-color or re-render. A program memo, keyed by the hash of the
// request's source or wire-IR bytes and frequency mode, keeps each
// function's digest and the rendered data section, so an exact repeat
// also skips the compile, IR decode and frequency estimate. Both are
// bounded by Options.CacheEntries. The execution layer is a bounded
// worker pool (internal/par.Pool): requests are admitted into a
// bounded queue and shed with 429 when it is full, carry per-request
// deadlines that the pass pipeline and cache followers honor, and
// drain gracefully on shutdown. A panic inside a request is recovered
// into a 500 (counted in server_errors_total), never a dead daemon,
// and a panicking compute is never cached. The edge is
// plain net/http with deterministic JSON rendering — the same bytes
// for the same request, no matter which worker, cache state, or
// daemon instance served it — with the telemetry introspection
// endpoints (/metrics, /spans, /debug/pprof/) mounted beside the
// service endpoints.
//
// Endpoints:
//
//	POST /allocate   one allocation request (MC source or wire IR)
//	POST /batch      an array of requests, admitted as one unit
//	GET  /healthz    liveness
//	GET  /metrics    telemetry registry snapshot
//	GET  /spans      recent spans
//	/debug/pprof/    runtime profiles
package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/codegen"
	"repro/internal/freq"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/par"
	"repro/internal/resultcache"
	"repro/internal/telemetry"
)

// Request is one allocation request. The program arrives either as MC
// source text or as a wire-format IR program (ir.EncodeProgram);
// exactly one of the two must be set.
type Request struct {
	Source string          `json:"source,omitempty"`
	IR     json.RawMessage `json:"ir,omitempty"`
	// Config is the register configuration in the paper's (Ri,Rf,Ei,Ef)
	// notation.
	Config ConfigRequest `json:"config"`
	// Strategy names the allocator (callcost.Strategies): "chaitin",
	// "optimistic", "improved", "priority", "cbh", "linscan", "hybrid".
	Strategy string `json:"strategy"`
	// Freq selects the frequency table: "static" (default, estimated)
	// or "profile" (run the program on the reference interpreter).
	Freq string `json:"freq,omitempty"`
	// Drop lists pipeline passes to drop — the ablation surface, and
	// part of the cache key.
	Drop []string `json:"drop,omitempty"`
	// MaxRounds overrides the build→color→spill round budget; 0 keeps
	// the default.
	MaxRounds int `json:"maxRounds,omitempty"`
	// NoCache bypasses the result cache (reads and writes).
	NoCache bool `json:"noCache,omitempty"`
	// Trace attaches a request-scoped event trace: the response's Trace
	// field carries the full JSONL decision stream. Traced requests
	// run sequentially and bypass the cache. Also enabled by ?trace=1.
	Trace bool `json:"trace,omitempty"`
	// TimeoutMs sets this request's deadline. It may shorten the
	// server's per-request deadline (Options.Timeout) but never extends
	// it; with no server deadline it is the only one.
	TimeoutMs int `json:"timeoutMs,omitempty"`
}

// ConfigRequest is the (Ri,Rf,Ei,Ef) register-file configuration.
type ConfigRequest struct {
	RI int `json:"ri"`
	RF int `json:"rf"`
	EI int `json:"ei"`
	EF int `json:"ef"`
}

// Response is the reply to one allocation request: the deterministic
// Result plus per-request metadata.
type Response struct {
	Result *Result `json:"result"`
	// CacheHits and CacheMisses count this request's functions served
	// from the result cache vs. colored.
	CacheHits   int `json:"cacheHits"`
	CacheMisses int `json:"cacheMisses"`
	// Trace is the JSONL decision stream of a traced request.
	Trace string `json:"trace,omitempty"`
}

// BatchItem is the outcome of one request of a /batch call.
type BatchItem struct {
	Status   int       `json:"status"`
	Error    string    `json:"error,omitempty"`
	Response *Response `json:"response,omitempty"`
}

// errorBody is the JSON shape of every non-2xx reply.
type errorBody struct {
	Error string `json:"error"`
}

// Options configures New.
type Options struct {
	// Workers is the allocation worker count; <= 0 selects GOMAXPROCS.
	Workers int
	// QueueSize bounds the admission queue beyond the running workers;
	// a full queue sheds with 429. < 0 selects 0.
	QueueSize int
	// CacheEntries bounds the fragment cache and, separately, the
	// program memo; <= 0 selects resultcache.DefaultMaxEntries.
	CacheEntries int
	// Timeout is the per-request deadline; 0 disables it.
	Timeout time.Duration
	// Registry receives the request telemetry and backs /metrics. Nil
	// uses the globally enabled registry, or a private one when
	// telemetry is disabled.
	Registry *telemetry.Registry
	// Spans, when non-nil, backs /spans.
	Spans *telemetry.SpanRecorder
}

// LatencyBuckets are the upper bounds, in milliseconds, of the request
// latency histogram.
var LatencyBuckets = []float64{0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000}

// Server is the allocation service. Construct with New; it implements
// http.Handler. Close drains the worker pool.
type Server struct {
	mux     *http.ServeMux
	pool    *par.Pool
	frags   *resultcache.LRU[*fragment]
	memo    *resultcache.LRU[*memoEntry]
	spans   *telemetry.SpanRecorder
	timeout time.Duration

	requests *telemetry.Counter
	shed     *telemetry.Counter
	errors   *telemetry.Counter
	latency  *telemetry.Histogram
	inflight *telemetry.Gauge
}

// New builds a Server.
func New(opts Options) *Server {
	reg := opts.Registry
	if reg == nil {
		if b := telemetry.B(); b != nil {
			reg = b.Reg
		} else {
			reg = telemetry.NewRegistry()
		}
	}
	s := &Server{
		mux:      http.NewServeMux(),
		pool:     par.NewPool(opts.Workers, opts.QueueSize),
		frags:    resultcache.NewLRU(opts.CacheEntries, resultcache.ResultMeters, (*fragment).size),
		memo:     resultcache.NewLRU[*memoEntry](opts.CacheEntries, resultcache.MemoMeters, nil),
		spans:    opts.Spans,
		timeout:  opts.Timeout,
		requests: reg.Counter("server_requests_total"),
		shed:     reg.Counter("server_shed_total"),
		errors:   reg.Counter("server_errors_total"),
		latency:  reg.Histogram("server_request_latency_ms", LatencyBuckets),
		inflight: reg.Gauge("server_inflight"),
	}
	s.pool.QueueDepth = reg.Gauge("server_queue_depth")
	s.pool.Busy = reg.Gauge("server_busy_workers")

	telemetry.Register(s.mux, reg, opts.Spans)
	s.mux.HandleFunc("POST /allocate", s.instrument(s.handleAllocate))
	s.mux.HandleFunc("POST /batch", s.instrument(s.handleBatch))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /{$}", s.handleIndex)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close stops admission and waits for queued and running requests to
// finish — the graceful-drain path.
func (s *Server) Close() { s.pool.Drain() }

// instrument wraps a handler with the request telemetry: request
// counter, in-flight gauge, latency histogram, shed/error counters.
func (s *Server) instrument(h func(w http.ResponseWriter, r *http.Request) int) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		s.requests.Inc()
		s.inflight.Add(1)
		status := h(w, r)
		s.inflight.Add(-1)
		s.latency.Observe(float64(time.Since(t0).Nanoseconds()) / 1e6)
		switch {
		case status == http.StatusTooManyRequests:
			s.shed.Inc()
		case status >= 500:
			s.errors.Inc()
		}
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	fmt.Fprint(w, "rallocd endpoints:\n"+
		"  POST /allocate        one allocation request (?trace=1 for the decision stream)\n"+
		"  POST /batch           an array of requests\n"+
		"  GET  /healthz         liveness\n"+
		"  GET  /metrics         telemetry snapshot (JSON; ?format=text)\n"+
		"  GET  /spans           recent spans (JSON; ?format=flame)\n"+
		"  /debug/pprof/         runtime profiles\n")
}

// maxBodyBytes bounds the body of an /allocate or /batch request. The
// largest body the repo's own traffic sends is the warm /batch of
// TestServerLoadSaturation, 454 KB, and the largest single request in
// randprog.Corpus(1, 2000) is 85 KB. 8 MiB leaves ~18x headroom over
// the first, and a client can no longer make the daemon buffer an
// unbounded body before any other check runs.
const maxBodyBytes = 8 << 20

// decodeBody decodes the JSON body of r into v, reading at most
// maxBodyBytes of it. On failure it returns the status to answer with:
// 413 for an oversize body, 400 for a malformed one.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) (int, error) {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge, err
	}
	return http.StatusBadRequest, err
}

func (s *Server) handleAllocate(w http.ResponseWriter, r *http.Request) int {
	var req Request
	if status, err := decodeBody(w, r, &req); err != nil {
		return writeJSON(w, status, errorBody{Error: "bad request body: " + err.Error()})
	}
	if r.URL.Query().Get("trace") == "1" {
		req.Trace = true
	}
	ctx, cancel := s.requestContext(r.Context(), req.TimeoutMs)
	defer cancel()
	v, err := s.dispatch(ctx, func(ctx context.Context) (any, error) {
		return s.run(ctx, &req)
	})
	if err != nil {
		status := statusOf(err)
		return writeJSON(w, status, errorBody{Error: err.Error()})
	}
	return writeJSON(w, http.StatusOK, v)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) int {
	var reqs []Request
	if status, err := decodeBody(w, r, &reqs); err != nil {
		return writeJSON(w, status, errorBody{Error: "bad request body: " + err.Error()})
	}
	ctx, cancel := s.requestContext(r.Context(), 0)
	defer cancel()
	// The batch is one unit of admission: it occupies one worker slot,
	// which alone runs every item, so a batch can never deadlock the
	// pool against itself. On top of that floor, idle workers are
	// enlisted through the pool's assist side door — items fan out over
	// whatever capacity is spare at this instant, without consuming
	// admission-queue slots or delaying other requests.
	v, err := s.dispatch(ctx, func(ctx context.Context) (any, error) {
		return s.runBatch(ctx, reqs), nil
	})
	if err != nil {
		return writeJSON(w, statusOf(err), errorBody{Error: err.Error()})
	}
	return writeJSON(w, http.StatusOK, v)
}

// batchItemHook, when non-nil, runs as each batch item is claimed — a
// test seam that makes per-item wall time controllable, so the batch
// fan-out regression test can observe item overlap on any machine,
// including single-CPU runners where CPU-bound work cannot speed up.
var batchItemHook func()

// runBatch executes a batch's items on the calling pool worker plus
// any idle workers Assist can enlist — at most one helper per
// remaining item. All participants drain one shared atomic item
// counter, and every result lands in an index-addressed slot, so the
// response is identical to the sequential path regardless of how many
// helpers joined.
func (s *Server) runBatch(ctx context.Context, reqs []Request) []BatchItem {
	items := make([]BatchItem, len(reqs))
	var next atomic.Int64
	drain := func(ctx context.Context) {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(reqs) {
				return
			}
			if batchItemHook != nil {
				batchItemHook()
			}
			if cerr := ctx.Err(); cerr != nil {
				items[i] = BatchItem{Status: statusOf(cerr), Error: cerr.Error()}
				continue
			}
			var resp *Response
			rerr := par.Catch(func() (err error) {
				resp, err = s.run(ctx, &reqs[i])
				return err
			})
			if rerr != nil {
				items[i] = BatchItem{Status: statusOf(rerr), Error: rerr.Error()}
			} else {
				items[i] = BatchItem{Status: http.StatusOK, Response: resp}
			}
		}
	}
	var wg sync.WaitGroup
	for h := 1; h < len(reqs); h++ {
		wg.Add(1)
		if !s.pool.Assist(ctx, func(ctx context.Context) {
			defer wg.Done()
			drain(ctx)
		}) {
			wg.Done()
			break
		}
	}
	drain(ctx)
	wg.Wait()
	return items
}

// requestContext applies the per-request deadline: the shorter of the
// server default and the request's timeoutMs when both are set, else
// whichever is set, else none. A client can tighten the server's
// deadline but never hold a worker past it.
func (s *Server) requestContext(parent context.Context, timeoutMs int) (context.Context, context.CancelFunc) {
	timeout := s.timeout
	// Compared in milliseconds, so a huge timeoutMs cannot overflow
	// into a negative duration that would remove the deadline.
	if timeoutMs > 0 && (timeout <= 0 || int64(timeoutMs) < timeout.Milliseconds()) {
		timeout = time.Duration(timeoutMs) * time.Millisecond
	}
	if timeout > 0 {
		return context.WithTimeout(parent, timeout)
	}
	return context.WithCancel(parent)
}

// dispatch admits work into the pool and waits for its result or the
// request's end. A full queue fails fast with par.ErrQueueFull — the
// backpressure the edge maps to 429 — and a panic in work comes back
// as a *par.PanicError, which the edge answers with 500.
func (s *Server) dispatch(ctx context.Context, work func(ctx context.Context) (any, error)) (any, error) {
	var v any
	err := s.pool.Do(ctx, func(ctx context.Context) (err error) {
		v, err = work(ctx)
		return err
	})
	if err != nil {
		return nil, err
	}
	return v, nil
}

// requestError carries an HTTP status with a request-level failure.
type requestError struct {
	status int
	msg    string
}

func (e *requestError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &requestError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// statusOf maps a processing error to its HTTP status.
func statusOf(err error) int {
	var re *requestError
	switch {
	case err == nil:
		return http.StatusOK
	case errors.As(err, &re):
		return re.status
	case errors.Is(err, par.ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, par.ErrPoolClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// resolved is a request with every input validated and constructed:
// the program, its frequency table, and the request's settings.
type resolved struct {
	prog *callcost.Program
	pf   *freq.ProgramFreq
	settings
}

// settings are the inputs of a request other than its program: the
// configuration, the strategy, the framework options, and the pass
// names the cache key carries.
type settings struct {
	config    machine.Config
	strat     callcost.Strategy
	opts      callcost.AllocOptions
	pipeNames []string
}

// resolveAll validates req and builds every allocation input.
func resolveAll(ctx context.Context, req *Request) (*resolved, error) {
	prog, err := resolveProgram(req)
	if err != nil {
		return nil, err
	}
	st, err := resolveSettings(ctx, req)
	if err != nil {
		return nil, err
	}
	var pf *freq.ProgramFreq
	switch req.Freq {
	case "", "static":
		pf = prog.StaticFreq()
	case "profile":
		var perr error
		pf, _, perr = prog.Profile()
		if perr != nil {
			return nil, badRequest("profile run failed: %v", perr)
		}
	default:
		return nil, badRequest("unknown freq %q (want static or profile)", req.Freq)
	}
	return &resolved{prog: prog, pf: pf, settings: *st}, nil
}

// resolveProgram compiles or decodes the request's program.
func resolveProgram(req *Request) (*callcost.Program, error) {
	switch {
	case req.Source != "" && len(req.IR) > 0:
		return nil, badRequest("request has both source and ir; send exactly one")
	case req.Source != "":
		p, err := callcost.Compile(req.Source)
		if err != nil {
			return nil, badRequest("compile: %v", err)
		}
		return p, nil
	case len(req.IR) > 0:
		p, err := ir.DecodeProgram(req.IR)
		if err != nil {
			return nil, badRequest("decode ir: %v", err)
		}
		return &callcost.Program{IR: p}, nil
	default:
		return nil, badRequest("request needs source or ir")
	}
}

// resolveSettings validates the request's configuration and strategy
// and builds its framework options.
func resolveSettings(ctx context.Context, req *Request) (*settings, error) {
	config := machine.NewConfig(req.Config.RI, req.Config.RF, req.Config.EI, req.Config.EF)
	if !config.Valid() {
		return nil, badRequest(
			"configuration %s below the calling-convention minimum (%d,%d,0,0)",
			config, machine.MinCallerInt, machine.MinCallerFloat)
	}
	strat := callcost.Strategies()[req.Strategy]
	if strat == nil {
		return nil, badRequest("unknown strategy %q (want one of %v)",
			req.Strategy, strategyNames())
	}
	opts := callcost.DefaultAllocOptions()
	opts.Ctx = ctx
	if req.MaxRounds > 0 {
		opts.MaxRounds = req.MaxRounds
	}
	if len(req.Drop) > 0 {
		pl := callcost.PipelineFor(strat, opts)
		for _, name := range req.Drop {
			pl = pl.Drop(name)
		}
		opts.Pipeline = &pl
	}
	return &settings{config: config, strat: strat, opts: opts, pipeNames: pipelineNames(strat, opts)}, nil
}

// ReferenceResult computes req's result through the public in-process
// path — Program.AllocateWithOptions, no result cache, no pool — and
// renders it with the same renderer as the service. It is the oracle
// of the differential gates: a served Response.Result must be
// byte-identical to it.
func ReferenceResult(req *Request) (*Result, error) {
	rv, err := resolveAll(context.Background(), req)
	if err != nil {
		return nil, err
	}
	a, err := rv.prog.AllocateWithOptions(rv.strat, rv.config, rv.pf, rv.opts)
	if err != nil {
		return nil, err
	}
	return RenderResult(a, rv.pf), nil
}

// memoEntry is what an exact repeat of a program needs to be served
// from cached fragments alone: the digest of each function in program
// order, and the rendered data section. Function names ride in the
// fragments.
type memoEntry struct {
	digests []resultcache.Digest
	data    string
}

// memoKey addresses a request's program for the memo: a SHA-256 over
// its frequency mode and its source or wire-IR bytes. ok is false when
// the request does not carry exactly one of the two, or names an
// unknown frequency mode; such a request takes the full path to its
// 400.
func memoKey(req *Request) (key resultcache.Key, ok bool) {
	var form, mode byte
	switch {
	case req.Source != "" && len(req.IR) == 0:
		form = 's'
	case req.Source == "" && len(req.IR) > 0:
		form = 'i'
	default:
		return key, false
	}
	switch req.Freq {
	case "", "static":
		mode = 's'
	case "profile":
		mode = 'p'
	default:
		return key, false
	}
	h := sha256.New()
	h.Write([]byte{form, mode})
	if form == 's' {
		io.WriteString(h, req.Source)
	} else {
		h.Write(req.IR)
	}
	h.Sum(key[:0])
	return key, true
}

// run executes one allocation request on the calling goroutine (a pool
// worker). It is the request core: an exact repeat of a program is
// served from the memo and the cached fragments alone; anything else
// resolves its inputs, consults the content-addressed cache per
// function, and colors what misses.
func (s *Server) run(ctx context.Context, req *Request) (*Response, error) {
	if req.Trace || req.NoCache {
		return s.runUncached(ctx, req)
	}
	mkey, memoable := memoKey(req)
	if memoable {
		if m, ok := s.memo.Get(mkey); ok {
			if resp, err := s.fromMemo(ctx, req, m); resp != nil || err != nil {
				return resp, err
			}
		}
		if b := telemetry.B(); b != nil {
			b.Memo.Misses.Inc()
		}
	}

	rv, err := resolveAll(ctx, req)
	if err != nil {
		return nil, err
	}
	prog, pf := rv.prog, rv.pf
	n := len(prog.IR.Funcs)
	frags := make([]*fragment, n)
	m := &memoEntry{digests: make([]resultcache.Digest, n)}
	hits, misses := 0, 0
	for i, fn := range prog.IR.Funcs {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		ff := pf.ByFunc[fn.Name]
		if ff == nil {
			return nil, fmt.Errorf("no frequency info for %s", fn.Name)
		}
		d, derr := resultcache.FuncDigest(fn, ff)
		if derr != nil {
			return nil, derr
		}
		key := resultcache.KeyFrom(d, rv.config, rv.strat.Name(), rv.pipeNames)
		frag, hit, err := s.frags.DoContext(ctx, key, func() (*fragment, error) {
			if planHook != nil {
				planHook(fn.Name)
			}
			plan, err := prog.PlanFunc(fn, ff, rv.config, rv.strat, rv.opts)
			if err != nil {
				return nil, err
			}
			return renderFragment(plan, ff, rv.config), nil
		})
		if err != nil {
			return nil, err
		}
		if hit {
			hits++
		} else {
			misses++
		}
		frags[i], m.digests[i] = frag, d
	}
	m.data = codegen.Data(prog.IR)
	if memoable {
		s.memo.Put(mkey, m)
	}
	return &Response{Result: assemble(rv.strat.Name(), rv.config, m.data, frags), CacheHits: hits, CacheMisses: misses}, nil
}

// planHook, when non-nil, runs at the start of every fragment compute
// with the function's name — a test seam that lets the panic tests
// fail a compute on demand.
var planHook func(fn string)

// fromMemo serves an exact repeat of a memoized program: the request's
// settings are validated as usual, and each function's fragment is
// looked up by the digest the memo kept — no compile, IR decode,
// frequencies or IR hashing. It returns nil and no error when a
// fragment has been evicted; the caller then takes the full path.
func (s *Server) fromMemo(ctx context.Context, req *Request, m *memoEntry) (*Response, error) {
	st, err := resolveSettings(ctx, req)
	if err != nil {
		return nil, err
	}
	frags := make([]*fragment, len(m.digests))
	for i, d := range m.digests {
		f, ok := s.frags.Get(resultcache.KeyFrom(d, st.config, st.strat.Name(), st.pipeNames))
		if !ok {
			return nil, nil
		}
		frags[i] = f
	}
	if b := telemetry.B(); b != nil {
		b.Memo.Hits.Inc()
		b.Results.Hits.Add(int64(len(frags)))
	}
	return &Response{Result: assemble(st.strat.Name(), st.config, m.data, frags), CacheHits: len(frags)}, nil
}

// runUncached runs the in-process driver on this worker alone: one
// request, one pool worker. Traced requests bypass the cache too — a
// cached fragment has no event stream to replay — and the one worker
// keeps the JSONL in program order. When a span recorder is attached,
// the traced request also feeds /spans.
func (s *Server) runUncached(ctx context.Context, req *Request) (*Response, error) {
	rv, err := resolveAll(ctx, req)
	if err != nil {
		return nil, err
	}
	opts := rv.opts
	opts.Parallel = 1
	var buf bytes.Buffer
	if req.Trace {
		var tracer callcost.Tracer = callcost.NewJSONLSink(&buf)
		if s.spans != nil {
			tracer = callcost.MultiSink(tracer, s.spans)
		}
		opts = callcost.WithTracer(opts, tracer)
	}
	a, err := rv.prog.AllocateWithOptions(rv.strat, rv.config, rv.pf, opts)
	if err != nil {
		return nil, err
	}
	if req.Trace && s.spans != nil {
		s.spans.Flush()
	}
	return &Response{Result: RenderResult(a, rv.pf), CacheMisses: len(rv.prog.IR.Funcs), Trace: buf.String()}, nil
}

// pipelineNames resolves the pass-pipeline names for the cache key:
// the explicit override when one is set, else the pipeline the
// strategy would build under opts.
func pipelineNames(strat callcost.Strategy, opts callcost.AllocOptions) []string {
	if opts.Pipeline != nil {
		return opts.Pipeline.Names()
	}
	return callcost.PipelineFor(strat, opts).Names()
}

func strategyNames() []string {
	names := make([]string, 0, 8)
	for name := range callcost.Strategies() {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// writeJSON renders v with a deterministic encoder and returns the
// status for the instrumentation wrapper.
func writeJSON(w http.ResponseWriter, status int, v any) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v) //nolint:errcheck // best-effort: the client may be gone
	return status
}
