package callcost_test

import (
	"errors"
	"testing"

	"repro"
	"repro/internal/benchprog"
	"repro/internal/par"
	"repro/internal/pipeline"
)

// panicPass is a pass whose Run panics.
type panicPass struct{}

func (panicPass) Name() string                    { return "panic" }
func (panicPass) Run(*pipeline.State) error       { panic("injected") }
func (panicPass) Preserves() pipeline.AnalysisSet { return pipeline.PreserveAll }

// TestPanickingPassReturnsError: a pass that panics, attached through
// AllocOptions.Pipeline, makes AllocateWithOptions return a
// *par.PanicError at every worker count instead of ending the process.
func TestPanickingPassReturnsError(t *testing.T) {
	prog := callcost.MustCompile(benchprog.ByName("compress").Source)
	pl := pipeline.New(panicPass{})
	for _, workers := range []int{1, 2, 4} {
		opts := callcost.DefaultAllocOptions()
		opts.Pipeline = &pl
		opts.Parallel = workers
		_, err := prog.AllocateWithOptions(callcost.ImprovedAll(), callcost.NewConfig(8, 6, 4, 4), prog.StaticFreq(), opts)
		var pe *par.PanicError
		if !errors.As(err, &pe) || pe.Value != "injected" {
			t.Fatalf("workers=%d: err = %v, want the pass's panic as a *par.PanicError", workers, err)
		}
	}
}
