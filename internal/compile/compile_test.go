package compile_test

import (
	"strings"
	"testing"

	"repro/internal/benchprog"
	"repro/internal/compile"
	"repro/internal/randprog"
)

func TestSourceSuccess(t *testing.T) {
	prog, err := compile.Source(`int main() { return 42; }`)
	if err != nil {
		t.Fatal(err)
	}
	if prog.FuncByName["main"] == nil {
		t.Fatal("main missing")
	}
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParseErrorPropagates(t *testing.T) {
	_, err := compile.Source(`int main( { return 0; }`)
	if err == nil {
		t.Fatal("expected parse error")
	}
}

func TestTypeErrorPropagates(t *testing.T) {
	_, err := compile.Source(`int main() { return nope; }`)
	if err == nil || !strings.Contains(err.Error(), "undefined") {
		t.Fatalf("err = %v", err)
	}
}

func TestFileAttachesName(t *testing.T) {
	_, err := compile.File("box.mc", `int main( { return 0; }`)
	if err == nil || !strings.Contains(err.Error(), "box.mc:") {
		t.Fatalf("err = %v", err)
	}
}

// serveHotSources is the MC source of every program the serve-hot
// benchmark workload sends: randprog.Corpus(1, 64) and the benchmark
// suite.
func serveHotSources() []string {
	var srcs []string
	for s := int64(1); s <= 64; s++ {
		srcs = append(srcs, randprog.Generate(s, randprog.ForSeed(s)))
	}
	for _, p := range benchprog.All() {
		srcs = append(srcs, p.Source)
	}
	return srcs
}

// BenchmarkCompile compiles every serve-hot program once per op.
func BenchmarkCompile(b *testing.B) {
	srcs := serveHotSources()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, src := range srcs {
			if _, err := compile.Source(src); err != nil {
				b.Fatal(err)
			}
		}
	}
}
