package callcost_test

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro"
	"repro/internal/benchprog"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/server"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/result_digests.txt")

// TestResultDigests pins the rendered bytes of every allocation the
// service can produce for the benchmark suite: one row per benchmark
// program × strategy × machine.ShortSweep() configuration × frequency
// source, holding the SHA-256 of json.Marshal(server.ReferenceResult).
// Colors, spill slots, assembly text and overhead totals all feed the
// digest, so any change to allocation, emission or rendering shows up
// as a changed row. Regenerate, only for an intentional change, with:
//
//	go test -run TestResultDigests -update .
func TestResultDigests(t *testing.T) {
	strategies := make([]string, 0, len(callcost.Strategies()))
	for name := range callcost.Strategies() {
		strategies = append(strategies, name)
	}
	sort.Strings(strategies)

	var got []string
	for _, p := range benchprog.All() {
		for _, strat := range strategies {
			for _, cfg := range machine.ShortSweep() {
				for _, fr := range []string{"static", "profile"} {
					req := server.Request{
						Source: p.Source,
						Config: server.ConfigRequest{
							RI: cfg.Caller[ir.ClassInt], RF: cfg.Caller[ir.ClassFloat],
							EI: cfg.Callee[ir.ClassInt], EF: cfg.Callee[ir.ClassFloat],
						},
						Strategy: strat,
						Freq:     fr,
					}
					res, err := server.ReferenceResult(&req)
					if err != nil {
						t.Fatalf("%s %s %s %s: %v", p.Name, strat, cfg, fr, err)
					}
					data, err := json.Marshal(res)
					if err != nil {
						t.Fatal(err)
					}
					got = append(got, fmt.Sprintf("%s %s %s %s %x", p.Name, strat, cfg, fr, sha256.Sum256(data)))
				}
			}
		}
	}

	path := filepath.Join("testdata", "result_digests.txt")
	if *updateDigests {
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing digest table (run with -update): %v", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("digest table has %d rows, the suite renders %d", len(want), len(got))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			if bad++; bad <= 10 {
				t.Errorf("rendered result changed:\n got  %s\n want %s", got[i], want[i])
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d rows differ", bad, len(got))
	}
}
