package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/ir"
	"repro/internal/telemetry"
)

const testSource = `
int table[16];

int leaf(int x) { return x * 3 + 1; }

int hot(int n) {
	int i; int acc = 0;
	for (i = 0; i < n; i = i + 1) {
		int a = i * 2; int b = a + i; int c = b * a - i;
		acc = acc + leaf(c) + a;
		table[i % 16] = acc;
	}
	return acc;
}

int main() { return hot(24) + table[3]; }
`

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func post(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out.Bytes()
}

func allocReq() Request {
	return Request{
		Source:   testSource,
		Config:   ConfigRequest{RI: 8, RF: 6, EI: 4, EF: 4},
		Strategy: "improved",
	}
}

func TestAllocateEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	code, body := post(t, ts.URL+"/allocate", allocReq())
	if code != 200 {
		t.Fatalf("status %d: %s", code, body)
	}
	var resp Response
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("bad response JSON: %v", err)
	}
	if resp.Result == nil || len(resp.Result.Funcs) != 3 {
		t.Fatalf("result = %+v, want 3 funcs", resp.Result)
	}
	if !strings.Contains(resp.Result.Assembly, "hot:") {
		t.Fatalf("assembly missing function label:\n%s", resp.Result.Assembly)
	}
	if resp.Result.Overhead.Total <= 0 {
		t.Fatalf("overhead total = %v, want > 0 at (8,6,4,4)", resp.Result.Overhead.Total)
	}
	if resp.CacheMisses != 3 || resp.CacheHits != 0 {
		t.Fatalf("cold request: hits=%d misses=%d, want 0/3", resp.CacheHits, resp.CacheMisses)
	}

	// Warm repeat: every function served from the result cache, bytes
	// identical.
	code2, body2 := post(t, ts.URL+"/allocate", allocReq())
	if code2 != 200 {
		t.Fatalf("warm status %d: %s", code2, body2)
	}
	var warm Response
	if err := json.Unmarshal(body2, &warm); err != nil {
		t.Fatal(err)
	}
	if warm.CacheHits != 3 || warm.CacheMisses != 0 {
		t.Fatalf("warm request: hits=%d misses=%d, want 3/0", warm.CacheHits, warm.CacheMisses)
	}
	r1, _ := json.Marshal(resp.Result)
	r2, _ := json.Marshal(warm.Result)
	if !bytes.Equal(r1, r2) {
		t.Fatalf("warm result differs from cold:\n%s\nvs\n%s", r1, r2)
	}
}

// TestAllocateWireIR: a request carrying the serialized IR must give a
// result byte-identical to the same program sent as source.
func TestAllocateWireIR(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	prog, err := callcost.Compile(testSource)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := ir.EncodeProgram(prog.IR)
	if err != nil {
		t.Fatal(err)
	}
	req := allocReq()
	req.Source = ""
	req.IR = wire

	codeW, bodyW := post(t, ts.URL+"/allocate", req)
	codeS, bodyS := post(t, ts.URL+"/allocate", allocReq())
	if codeW != 200 || codeS != 200 {
		t.Fatalf("status wire=%d source=%d: %s %s", codeW, codeS, bodyW, bodyS)
	}
	var respW, respS Response
	if err := json.Unmarshal(bodyW, &respW); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(bodyS, &respS); err != nil {
		t.Fatal(err)
	}
	rw, _ := json.Marshal(respW.Result)
	rs, _ := json.Marshal(respS.Result)
	if !bytes.Equal(rw, rs) {
		t.Fatalf("wire-IR result differs from source result:\n%s\nvs\n%s", rw, rs)
	}
	// The wire request hit the entries the source request populated:
	// the cache is content-addressed, not object-addressed.
	if respS.CacheHits != 3 {
		t.Fatalf("source request after wire request: hits=%d, want 3", respS.CacheHits)
	}
}

func TestAllocateTrace(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	code, body := post(t, ts.URL+"/allocate?trace=1", allocReq())
	if code != 200 {
		t.Fatalf("status %d: %s", code, body)
	}
	var resp Response
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Trace == "" {
		t.Fatal("traced request returned no trace")
	}
	lines := strings.Split(strings.TrimRight(resp.Trace, "\n"), "\n")
	if len(lines) < 10 {
		t.Fatalf("trace has %d lines, want a full decision stream", len(lines))
	}
	for i, line := range lines {
		if !json.Valid([]byte(line)) {
			t.Fatalf("trace line %d is not JSON: %s", i, line)
		}
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cases := []struct {
		name string
		edit func(r *Request)
	}{
		{"no program", func(r *Request) { r.Source = "" }},
		{"both program forms", func(r *Request) { r.IR = json.RawMessage(`{"v":1}`) }},
		{"unknown strategy", func(r *Request) { r.Strategy = "magic" }},
		{"invalid config", func(r *Request) { r.Config = ConfigRequest{RI: 1, RF: 1} }},
		{"bad freq", func(r *Request) { r.Freq = "guess" }},
		{"compile error", func(r *Request) { r.Source = "int main( {" }},
		{"bad wire ir", func(r *Request) { r.Source = ""; r.IR = json.RawMessage(`{"v":99}`) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := allocReq()
			tc.edit(&req)
			code, body := post(t, ts.URL+"/allocate", req)
			if code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", code, body)
			}
		})
	}
}

// malformedIR holds wire-IR programs that ir.DecodeProgram once
// dereferenced as nil (a null list element), accepted with an
// out-of-range operand, or panicked on while formatting its own
// validation error. The null elements and the nop whose destination
// v34 lies past the 25 registers of main each killed a stock daemon.
var malformedIR = map[string]string{
	"null function": `{"version":1,"funcs":[null]}`,
	"null block":    `{"version":1,"funcs":[{"name":"main","reg_classes":[0],"blocks":[null]}]}`,
	"null global":   `{"version":1,"globals":[null],"funcs":[]}`,
	"nop operand out of range": `{"version":1,"funcs":[{"name":"main","has_result":true,"reg_classes":[` +
		strings.Repeat("0,", 24) + `0],"blocks":[{"instrs":[{"op":1,"dst":0,"int_val":1,"sym":-1},` +
		`{"op":0,"dst":34,"sym":-1},{"op":22,"dst":-1,"args":[0],"sym":-1}]}]}]}`,
	"branch without operand": `{"version":1,"funcs":[{"name":"main","has_result":true,"reg_classes":[0],` +
		`"blocks":[{"instrs":[{"op":1,"dst":0,"int_val":1,"sym":-1},{"op":23,"dst":-1,"sym":-1}]}]}]}`,
	"negative destination": `{"version":1,"funcs":[{"name":"main","has_result":true,"reg_classes":[0],` +
		`"blocks":[{"instrs":[{"op":1,"dst":-5,"int_val":1,"sym":-1},{"op":22,"dst":-1,"args":[0],"sym":-1}]}]}]}`,
	"load without symbol": `{"version":1,"funcs":[{"name":"main","has_result":true,"reg_classes":[0],` +
		`"blocks":[{"instrs":[{"op":19,"dst":0,"sym":-1},{"op":22,"dst":-1,"args":[0],"sym":-1}]}]}]}`,
}

// TestMalformedIRRejected: every malformed body gets a 400 under each
// strategy tier, and the daemon then still answers a normal request.
func TestMalformedIRRejected(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for name, body := range malformedIR {
		for _, strat := range []string{"improved", "linscan", "hybrid"} {
			req := Request{IR: json.RawMessage(body), Config: ConfigRequest{RI: 8, RF: 6, EI: 4, EF: 4}, Strategy: strat}
			if code, resp := post(t, ts.URL+"/allocate", req); code != http.StatusBadRequest {
				t.Errorf("%s under %s: status %d, want 400: %s", name, strat, code, resp)
			}
		}
	}
	if code, body := post(t, ts.URL+"/allocate", allocReq()); code != http.StatusOK {
		t.Fatalf("normal request after malformed ones: status %d: %s", code, body)
	}
}

// TestOversizeBodyRejected: an /allocate or /batch body past
// maxBodyBytes gets a 413 without being decoded, and the daemon then
// still answers a normal request.
func TestOversizeBodyRejected(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	big := allocReq()
	big.Source += "\n// " + strings.Repeat("x", maxBodyBytes)
	if code, body := post(t, ts.URL+"/allocate", big); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize /allocate: status %d, want 413: %s", code, body)
	}
	if code, body := post(t, ts.URL+"/batch", []Request{allocReq(), big}); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize /batch: status %d, want 413: %s", code, body)
	}
	if code, body := post(t, ts.URL+"/allocate", allocReq()); code != http.StatusOK {
		t.Fatalf("normal request after oversize ones: status %d: %s", code, body)
	}
}

// TestBackpressure429: with the single worker held and the admission
// queue full, the edge sheds with 429 and records it in the shed
// counter.
func TestBackpressure429(t *testing.T) {
	reg := telemetry.NewRegistry()
	s, ts := newTestServer(t, Options{Workers: 1, QueueSize: 0, Registry: reg})
	gate := make(chan struct{})
	running := make(chan struct{})
	// With a zero-length queue, admission needs a worker concurrently
	// at its receive; retry until the worker goroutine is parked there.
	for {
		err := s.pool.Submit(context.Background(), func(context.Context) {
			close(running)
			<-gate
		})
		if err == nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	<-running
	defer close(gate)

	code, body := post(t, ts.URL+"/allocate", allocReq())
	if code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", code, body)
	}
	if n := reg.Snapshot().Counters["server_shed_total"]; n != 1 {
		t.Fatalf("server_shed_total = %d, want 1", n)
	}
}

// TestRequestDeadline: a deadline too short for the allocation maps to
// 504, and the pipeline abandons the run instead of finishing it.
func TestRequestDeadline(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	req := allocReq()
	req.TimeoutMs = 1
	// Enough repeated work that 1ms cannot complete it.
	req.Source = strings.Replace(testSource, "int main", "int pad0(int x) { return x; }\nint main", 1)
	deadline := time.Now().Add(10 * time.Second)
	for attempt := 0; time.Now().Before(deadline); attempt++ {
		code, body := post(t, ts.URL+"/allocate", req)
		if code == http.StatusGatewayTimeout {
			return
		}
		if code != 200 {
			t.Fatalf("status %d, want 200 or 504: %s", code, body)
		}
		// The machine was fast enough this time; vary the program so the
		// cache cannot answer and try again.
		req.Source = strings.Replace(req.Source, "int main",
			fmt.Sprintf("int pad%d(int x) { return x + %d; }\nint main", attempt+1, attempt), 1)
	}
	t.Skip("allocation always beat the 1ms deadline; cannot exercise 504 on this machine")
}

// TestRequestTimeoutOnlyShortens: a request's timeoutMs may shorten
// the server's deadline but never extend or remove it.
func TestRequestTimeoutOnlyShortens(t *testing.T) {
	for _, tc := range []struct {
		server    time.Duration
		timeoutMs int
		want      time.Duration // 0: no deadline
	}{
		{0, 0, 0},
		{0, 50, 50 * time.Millisecond},
		{2 * time.Second, 0, 2 * time.Second},
		{2 * time.Second, 50, 50 * time.Millisecond},
		{2 * time.Second, 86400000, 2 * time.Second},
		{2 * time.Second, math.MaxInt, 2 * time.Second},
	} {
		s := &Server{timeout: tc.server}
		start := time.Now()
		ctx, cancel := s.requestContext(context.Background(), tc.timeoutMs)
		dl, ok := ctx.Deadline()
		cancel()
		if tc.want == 0 {
			if ok {
				t.Errorf("server %v, timeoutMs %d: deadline set, want none", tc.server, tc.timeoutMs)
			}
			continue
		}
		if got := dl.Sub(start); !ok || got < tc.want || got > tc.want+time.Second {
			t.Errorf("server %v, timeoutMs %d: deadline in %v (set %v), want %v",
				tc.server, tc.timeoutMs, got, ok, tc.want)
		}
	}
}

// TestBatchEndpoint checks per-item status and the cache accounting of
// a batch whose item 2 repeats item 0. On a 1-worker server the batch
// owns the only worker, so no helper joins, items run in order, and
// the repeat is a full cache hit. On a 4-worker server idle workers may
// run the pair at the same time; the result cache's singleflight then
// still colors each function once, so over the pair every function is
// one miss and one hit, whichever item led.
func TestBatchEndpoint(t *testing.T) {
	bad := allocReq()
	bad.Strategy = "magic"
	batch := []Request{allocReq(), bad, allocReq()}
	for _, workers := range []int{1, 4} {
		_, ts := newTestServer(t, Options{Workers: workers})
		code, body := post(t, ts.URL+"/batch", batch)
		if code != 200 {
			t.Fatalf("%d workers: status %d: %s", workers, code, body)
		}
		var items []BatchItem
		if err := json.Unmarshal(body, &items); err != nil {
			t.Fatal(err)
		}
		if len(items) != 3 {
			t.Fatalf("%d workers: %d items, want 3", workers, len(items))
		}
		if items[0].Status != 200 || items[2].Status != 200 {
			t.Fatalf("%d workers: good items: %+v %+v", workers, items[0], items[2])
		}
		if items[1].Status != http.StatusBadRequest || items[1].Error == "" {
			t.Fatalf("%d workers: bad item: %+v", workers, items[1])
		}
		first, repeat := items[0].Response, items[2].Response
		if workers == 1 {
			if repeat.CacheHits != 3 {
				t.Fatalf("1 worker: repeat item hits = %d, want 3", repeat.CacheHits)
			}
			continue
		}
		if hits, misses := first.CacheHits+repeat.CacheHits, first.CacheMisses+repeat.CacheMisses; hits != 3 || misses != 3 {
			t.Fatalf("%d workers: pair hits/misses = %d/%d, want 3/3", workers, hits, misses)
		}
	}
}

func TestHealthzAndTelemetryMounts(t *testing.T) {
	reg := telemetry.NewRegistry()
	_, ts := newTestServer(t, Options{Registry: reg})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/healthz status %d", resp.StatusCode)
	}
	if _, _ = post(t, ts.URL+"/allocate", allocReq()); true {
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(mresp.Body) //nolint:errcheck
	if mresp.StatusCode != 200 || !strings.Contains(buf.String(), "server_requests_total") {
		t.Fatalf("/metrics status %d body %s", mresp.StatusCode, buf.String())
	}
}

// TestManyUnusedRegisters: a wire-IR body whose one function declares
// 400,000 registers it never uses gets a 200 whose Result equals the
// oracle's. Each bank's interference matrix is sized by the registers
// that occur; sized by every declared register, it would ask for 10 GB.
func TestManyUnusedRegisters(t *testing.T) {
	prog, err := callcost.Compile("int main() { int a = 3; int b = a * 7; return a + b; }")
	if err != nil {
		t.Fatal(err)
	}
	main := prog.IR.Funcs[0]
	for i := 0; i < 400_000; i++ {
		main.NewReg(ir.ClassInt, "")
	}
	wire, err := ir.EncodeProgram(prog.IR)
	if err != nil {
		t.Fatal(err)
	}
	req := allocReq()
	req.Source, req.IR = "", wire
	want, err := ReferenceResult(&req)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want)

	_, ts := newTestServer(t, Options{})
	code, body := post(t, ts.URL+"/allocate", req)
	if code != 200 {
		t.Fatalf("status %d: %.300s", code, body)
	}
	var resp Response
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if got, _ := json.Marshal(resp.Result); !bytes.Equal(got, wantJSON) {
		t.Fatalf("served result differs from ReferenceResult:\nserved: %.300s\noracle: %.300s", got, wantJSON)
	}
}

// TestPanickingPlanAnswers500: a fragment compute that panics answers
// its request, and a concurrent request for the same program, with a
// 500 counted in server_errors_total; the function stays uncached, and
// the daemon serves the next request with a 200 that matches the
// oracle.
func TestPanickingPlanAnswers500(t *testing.T) {
	reg := telemetry.NewRegistry()
	_, ts := newTestServer(t, Options{QueueSize: 8, Registry: reg})
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	planHook = func(fn string) {
		if fn == "hot" {
			entered <- struct{}{}
			<-release
			panic("injected")
		}
	}
	defer func() { planHook = nil }()

	codes := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			code, _ := post(t, ts.URL+"/allocate", allocReq())
			codes <- code
		}()
	}
	<-entered
	time.Sleep(20 * time.Millisecond) // let the second request reach hot
	close(release)
	for i := 0; i < 2; i++ {
		if code := <-codes; code != http.StatusInternalServerError {
			t.Fatalf("request %d: status %d, want 500", i, code)
		}
	}
	if n := reg.Snapshot().Counters["server_errors_total"]; n != 2 {
		t.Fatalf("server_errors_total = %d, want 2", n)
	}

	planHook = nil
	code, body := post(t, ts.URL+"/allocate", allocReq())
	if code != 200 {
		t.Fatalf("after the panics: status %d: %s", code, body)
	}
	var resp Response
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	// leaf was cached before hot panicked; hot and main were not.
	if resp.CacheHits != 1 || resp.CacheMisses != 2 {
		t.Fatalf("hits=%d misses=%d, want 1/2 (a panicked compute is never cached)", resp.CacheHits, resp.CacheMisses)
	}
	req := allocReq()
	want, err := ReferenceResult(&req)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want)
	if got, _ := json.Marshal(resp.Result); !bytes.Equal(got, wantJSON) {
		t.Fatal("result after the panics differs from ReferenceResult")
	}
}
