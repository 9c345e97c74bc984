package callcost_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro"
	"repro/internal/benchprog"
	"repro/internal/ir"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// serverStrategies are the strategy tiers the service differential
// covers: the paper's improved allocator plus both graph-free tiers.
var serverStrategies = []string{"improved", "linscan", "hybrid"}

func postAllocate(t *testing.T, client *http.Client, url string, req *server.Request) *server.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url+"/allocate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /allocate: status %d: %s", resp.StatusCode, raw)
	}
	var r server.Response
	if err := json.Unmarshal(raw, &r); err != nil {
		t.Fatalf("bad response JSON: %v", err)
	}
	return &r
}

// TestServerMatchesInProcess is the service differential gate: for
// every benchmark program and every covered strategy, the daemon's
// served result — colors, spill slots, assembly, overhead totals —
// must be byte-identical to the in-process
// Program.AllocateWithOptions path, and a warm second request must
// reproduce the same bytes entirely from the content-addressed cache.
func TestServerMatchesInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark-suite differential; skipped in -short")
	}
	s := server.New(server.Options{QueueSize: 64})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()
	client := &http.Client{}

	for _, p := range benchprog.All() {
		for _, strat := range serverStrategies {
			t.Run(fmt.Sprintf("%s/%s", p.Name, strat), func(t *testing.T) {
				req := server.Request{
					Source:   p.Source,
					Config:   server.ConfigRequest{RI: 8, RF: 6, EI: 4, EF: 4},
					Strategy: strat,
				}
				want, err := server.ReferenceResult(&req)
				if err != nil {
					t.Fatalf("in-process reference: %v", err)
				}
				wantJSON, err := json.Marshal(want)
				if err != nil {
					t.Fatal(err)
				}

				cold := postAllocate(t, client, ts.URL, &req)
				coldJSON, err := json.Marshal(cold.Result)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(coldJSON, wantJSON) {
					t.Errorf("cold served result differs from in-process oracle:\nserved: %.600s\noracle: %.600s",
						coldJSON, wantJSON)
				}
				if cold.CacheHits != 0 {
					t.Errorf("cold request reported %d cache hits, want 0", cold.CacheHits)
				}

				warm := postAllocate(t, client, ts.URL, &req)
				warmJSON, err := json.Marshal(warm.Result)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(warmJSON, wantJSON) {
					t.Errorf("warm served result differs from in-process oracle:\nserved: %.600s\noracle: %.600s",
						warmJSON, wantJSON)
				}
				if warm.CacheMisses != 0 || warm.CacheHits != len(want.Funcs) {
					t.Errorf("warm request: hits=%d misses=%d, want hits=%d misses=0",
						warm.CacheHits, warm.CacheMisses, len(want.Funcs))
				}
			})
		}
	}
}

// TestServerWireIRMatchesSource: a request carrying the serialized IR
// of a program must produce exactly the bytes the MC-source form of
// the same program produces — the two request encodings are one cache
// population, not two.
func TestServerWireIRMatchesSource(t *testing.T) {
	s := server.New(server.Options{QueueSize: 64})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()
	client := &http.Client{}

	for _, name := range []string{"ear", "eqntott", "compress"} {
		p := benchprog.ByName(name)
		if p == nil {
			t.Fatalf("no benchmark program %s", name)
		}
		prog, err := callcost.Compile(p.Source)
		if err != nil {
			t.Fatalf("compile %s: %v", name, err)
		}
		wire, err := ir.EncodeProgram(prog.IR)
		if err != nil {
			t.Fatalf("encode %s: %v", name, err)
		}
		for _, strat := range serverStrategies {
			t.Run(fmt.Sprintf("%s/%s", name, strat), func(t *testing.T) {
				config := server.ConfigRequest{RI: 8, RF: 6, EI: 4, EF: 4}
				fromSource := postAllocate(t, client, ts.URL, &server.Request{
					Source: p.Source, Config: config, Strategy: strat,
				})
				fromWire := postAllocate(t, client, ts.URL, &server.Request{
					IR: wire, Config: config, Strategy: strat,
				})
				sj, err := json.Marshal(fromSource.Result)
				if err != nil {
					t.Fatal(err)
				}
				wj, err := json.Marshal(fromWire.Result)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(sj, wj) {
					t.Errorf("wire-IR result differs from source result:\nwire:   %.600s\nsource: %.600s", wj, sj)
				}
				// The wire form hashes to the same per-function keys, so
				// whichever request ran second is a full cache hit.
				if fromWire.CacheMisses != 0 {
					t.Errorf("wire-IR request missed the cache %d times after the source request populated it",
						fromWire.CacheMisses)
				}
			})
		}
	}
}

// partialHitHelpers are functions that every partialHitProgram shares.
const partialHitHelpers = `
int table[32];
int scale(int x) { int i; int s = 0; for (i = 0; i < x; i = i + 1) { s = s + i * x; } return s; }
int mix(int a, int b) { table[a % 32] = a * b; return table[(a + b) % 32] + scale(a); }
float blend(float a, float b) { float t = a * 0.25; return t + b * 0.75; }
`

// partialHitProgram is program i: the shared helpers and a main of its
// own.
func partialHitProgram(i int) string {
	return partialHitHelpers + fmt.Sprintf(
		"int main() { int k = %d; int r = mix(k, k + 1) + scale(k %% 7); if (blend(1.0, 2.0) > 1.5) { r = r + 1; } return r; }\n", i)
}

// TestServerPartialHits: programs that share helper functions but
// differ in main, sent first as source (cold), then as wire IR
// (partial: the memo has never seen those bytes, yet every function is
// cached), then as source again (warm: exact repeats). Every served
// Result byte-equals ReferenceResult, and the per-function and memo
// counters are exact: helpers hit after their first program, the
// wire forms are all hits with a memo miss each, and the warm repeats
// are memo hits.
func TestServerPartialHits(t *testing.T) {
	b := telemetry.Enable(nil)
	defer telemetry.Disable()
	s := server.New(server.Options{QueueSize: 64})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()
	client := &http.Client{}

	const programs, helpers = 4, 3
	config := server.ConfigRequest{RI: 8, RF: 6, EI: 4, EF: 4}
	source := make([]server.Request, programs)
	wire := make([]server.Request, programs)
	want := make([][]byte, programs)
	for i := range source {
		source[i] = server.Request{Source: partialHitProgram(i), Config: config, Strategy: "improved"}
		prog, err := callcost.Compile(source[i].Source)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := ir.EncodeProgram(prog.IR)
		if err != nil {
			t.Fatal(err)
		}
		wire[i] = server.Request{IR: enc, Config: config, Strategy: "improved"}
		res, err := server.ReferenceResult(&source[i])
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = json.Marshal(res); err != nil {
			t.Fatal(err)
		}
	}

	counters := func() map[string]int64 {
		c := b.Reg.Snapshot().Counters
		return map[string]int64{
			"hits": c["result_cache_hits_total"], "misses": c["result_cache_misses_total"],
			"memo hits": c["result_memo_hits_total"], "memo misses": c["result_memo_misses_total"],
		}
	}
	passes := []struct {
		name     string
		reqs     []server.Request
		hits     func(i int) int
		memoHits int64
	}{
		{"cold", source, func(i int) int { return min(i, 1) * helpers }, 0},
		{"partial", wire, func(int) int { return helpers + 1 }, 0},
		{"warm", source, func(int) int { return helpers + 1 }, programs},
	}
	for _, pass := range passes {
		before := counters()
		wantHits := 0
		for i := range pass.reqs {
			resp := postAllocate(t, client, ts.URL, &pass.reqs[i])
			got, err := json.Marshal(resp.Result)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want[i]) {
				t.Errorf("%s program %d: served result differs from ReferenceResult", pass.name, i)
			}
			if resp.CacheHits != pass.hits(i) || resp.CacheMisses != helpers+1-pass.hits(i) {
				t.Errorf("%s program %d: hits=%d misses=%d, want %d/%d", pass.name, i,
					resp.CacheHits, resp.CacheMisses, pass.hits(i), helpers+1-pass.hits(i))
			}
			wantHits += pass.hits(i)
		}
		after := counters()
		wantDelta := map[string]int64{
			"hits": int64(wantHits), "misses": int64(programs*(helpers+1) - wantHits),
			"memo hits": pass.memoHits, "memo misses": programs - pass.memoHits,
		}
		for name, d := range wantDelta {
			if got := after[name] - before[name]; got != d {
				t.Errorf("%s pass: %s counter moved by %d, want %d", pass.name, name, got, d)
			}
		}
	}
}
