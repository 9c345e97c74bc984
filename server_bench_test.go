package callcost_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/benchprog"
	"repro/internal/server"
)

// BenchmarkServerAllocate measures one allocation request through the
// whole service stack — HTTP edge, admission pool, content-addressed
// cache, JSON rendering — for a representative program pair. The
// "cold" mode bypasses the cache (every iteration re-colors), so the
// pair bounds the daemon's request cost: warm is what repeat traffic
// pays, cold minus warm is what the cache saves.
func BenchmarkServerAllocate(b *testing.B) {
	s := server.New(server.Options{QueueSize: 256})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()
	client := &http.Client{}

	post := func(b *testing.B, body []byte) {
		resp, err := client.Post(ts.URL+"/allocate", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d: %s", resp.StatusCode, raw)
		}
	}

	for _, name := range []string{"ear", "eqntott"} {
		p := benchprog.ByName(name)
		if p == nil {
			b.Fatalf("no benchmark program %s", name)
		}
		for _, mode := range []string{"cold", "warm"} {
			b.Run(name+"/"+mode, func(b *testing.B) {
				req := server.Request{
					Source:   p.Source,
					Config:   server.ConfigRequest{RI: 8, RF: 6, EI: 4, EF: 4},
					Strategy: "improved",
					NoCache:  mode == "cold",
				}
				body, err := json.Marshal(&req)
				if err != nil {
					b.Fatal(err)
				}
				post(b, body) // populate the cache for warm; one free cold run
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					post(b, body)
				}
			})
		}
	}
}

// BenchmarkServerPartialHit measures a request whose program the daemon
// has never seen but whose helper functions it has cached: every
// iteration sends a new main beside the shared helpers of
// partialHitProgram, so the front end runs and one function of four is
// colored.
func BenchmarkServerPartialHit(b *testing.B) {
	s := server.New(server.Options{QueueSize: 256})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()
	client := &http.Client{}
	post := func(i int) {
		body, err := json.Marshal(&server.Request{
			Source:   partialHitProgram(i),
			Config:   server.ConfigRequest{RI: 8, RF: 6, EI: 4, EF: 4},
			Strategy: "improved",
		})
		if err != nil {
			b.Fatal(err)
		}
		resp, err := client.Post(ts.URL+"/allocate", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d: %v %s", resp.StatusCode, err, raw)
		}
	}
	post(-1) // cache the helpers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post(i)
	}
}
