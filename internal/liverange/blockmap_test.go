package liverange_test

import (
	"testing"

	"repro/internal/benchprog"
	"repro/internal/cfg"
	"repro/internal/compile"
	"repro/internal/freq"
	"repro/internal/interference"
	"repro/internal/ir"
	"repro/internal/liveness"
	"repro/internal/liverange"
)

// TestAnalyzeWithSharedMap pins that Analyze through a prebuilt
// BlockMap produces identical Size metrics to the plain path, which
// derives the map itself.
func TestAnalyzeWithSharedMap(t *testing.T) {
	for _, name := range benchprog.Names() {
		prog, err := compile.Source(benchprog.ByName(name).Source)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		pf := freq.Static(prog)
		for _, fn := range prog.Funcs {
			g := cfg.New(fn)
			live := liveness.Compute(fn, g)
			var graphs [ir.NumClasses]*interference.Graph
			for c := ir.Class(0); c < ir.NumClasses; c++ {
				graphs[c] = interference.Build(fn, live, c)
				graphs[c].Coalesce(false, 8)
			}
			ff := pf.ByFunc[fn.Name]
			plain := liverange.Analyze(fn, live, &graphs, ff, nil)
			shared := liverange.AnalyzeWith(liverange.NewBlockMap(fn, live), fn, live, &graphs, ff, nil)
			for rep, rg := range plain.Ranges {
				org, ok := shared.Ranges[rep]
				if !ok {
					t.Fatalf("%s/%s: range v%d missing from shared-map analysis", name, fn.Name, rep)
				}
				if rg.Size != org.Size || rg.SpillCost != org.SpillCost ||
					rg.CallerCost != org.CallerCost || rg.CalleeCost != org.CalleeCost {
					t.Errorf("%s/%s v%d: shared-map metrics diverge (size %d vs %d)",
						name, fn.Name, rep, rg.Size, org.Size)
				}
			}
		}
	}
}
