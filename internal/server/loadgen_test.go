package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/randprog"
)

// TestCorpusDecodesAsRequest pins the corpus emitter's wire shape to
// the server's: every body must decode into a Request the server
// accepts. This is the contract test for the redeclared struct in
// internal/randprog.
func TestCorpusDecodesAsRequest(t *testing.T) {
	for i, body := range randprog.Corpus(3, 12) {
		var req Request
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("body %d does not decode as server.Request: %v", i, err)
		}
		if req.Source == "" || req.Strategy == "" || req.Config.RI == 0 {
			t.Fatalf("body %d decoded incomplete: %+v", i, req)
		}
		if _, _, _, err := resolve(&req); err != nil {
			t.Fatalf("body %d rejected by resolve: %v", i, err)
		}
	}
}

// TestRunLoadSmoke drives a small corpus through the full loadgen path
// — HTTP edge, pool, cache — with every response verified against the
// in-process oracle.
func TestRunLoadSmoke(t *testing.T) {
	_, ts := newTestServer(t, Options{QueueSize: 256})
	bodies := randprog.Corpus(11, 16)
	// Send the corpus twice so the second pass hits the cache.
	bodies = append(bodies, randprog.Corpus(11, 16)...)
	stats, err := RunLoad(ts.URL, bodies, 8, 4)
	if err != nil {
		t.Fatalf("load run failed: %v (stats: %v)", err, stats)
	}
	if stats.OK != len(bodies) {
		t.Fatalf("ok=%d of %d: %v", stats.OK, len(bodies), stats)
	}
	if stats.Verified == 0 {
		t.Fatal("no responses were verified")
	}
	if stats.CacheHits == 0 {
		t.Fatalf("repeated corpus produced no cache hits: %v", stats)
	}
}

// TestRunBatchLoadSmoke drives the corpus through /batch — grouped
// requests over the batch fan-out path — with per-item tallies and
// the same sampled oracle verification as the /allocate path. A group
// size that does not divide the corpus exercises the short last batch.
func TestRunBatchLoadSmoke(t *testing.T) {
	_, ts := newTestServer(t, Options{QueueSize: 256})
	bodies := randprog.Corpus(11, 16)
	bodies = append(bodies, randprog.Corpus(11, 16)...)
	stats, err := RunBatchLoad(ts.URL, bodies, 5, 4, 4)
	if err != nil {
		t.Fatalf("batch load run failed: %v (stats: %v)", err, stats)
	}
	if stats.Requests != len(bodies) {
		t.Fatalf("tallied %d items of %d: %v", stats.Requests, len(bodies), stats)
	}
	if stats.OK != len(bodies) {
		t.Fatalf("ok=%d of %d: %v", stats.OK, len(bodies), stats)
	}
	if want := (len(bodies) + 3) / 4; stats.Verified != want {
		t.Fatalf("verified %d, want %d: %v", stats.Verified, want, stats)
	}
	if stats.CacheHits == 0 {
		t.Fatalf("repeated corpus produced no cache hits: %v", stats)
	}
}

// TestLoadTalliesRefusedUnitsPerItem: a POST refused at the edge
// counts once per corpus item it carried, so a shed /batch group of n
// sheds n requests and /allocate and /batch runs tally alike.
func TestLoadTalliesRefusedUnitsPerItem(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer ts.Close()
	bodies := randprog.Corpus(5, 7)
	for name, run := range map[string]func() (*LoadStats, error){
		"allocate": func() (*LoadStats, error) { return RunLoad(ts.URL, bodies, 2, 1) },
		"batch":    func() (*LoadStats, error) { return RunBatchLoad(ts.URL, bodies, 3, 2, 1) },
	} {
		stats, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if stats.Requests != len(bodies) || stats.Shed != len(bodies) || stats.OK != 0 || stats.Verified != 0 {
			t.Errorf("%s: %v, want %d requests all shed", name, stats, len(bodies))
		}
	}
}
