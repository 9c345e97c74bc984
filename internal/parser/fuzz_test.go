package parser

import (
	"testing"

	"repro/internal/irbuild"
	"repro/internal/types"
)

// fuzzSeeds are FuzzParse's seed corpus; TestIRDigests pins their
// lowering too.
var fuzzSeeds = []string{
	"",
	"int main() { return 0; }",
	"int a[4]; float f(int x, float y) { return y + float(x); }",
	"int f() { while (1) { if (2) { break; } continue; } return 3; }",
	"void v() { } int main() { v(); return 0; }",
	"int f() { return 1 +",
	"int 3x; float float;",
	"int f(int a) { int a; { int a = a; } return a; }",
	"int g = 1 / 0;",
	"do while for if else",
	"int f() { for (;;) { } }",
	"/* unterminated",
	"int x = ---3;",
	"float f() { return 1e; }",
}

// FuzzParse feeds arbitrary text through the whole front end: the
// lexer, parser, and type checker must never panic, and anything that
// passes all three must lower to structurally valid IR.
func FuzzParse(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err != nil {
			return
		}
		info, err := types.Check(prog)
		if err != nil {
			return
		}
		ir, err := irbuild.Build(prog, info)
		if err != nil {
			// The builder may reject programs on its own diagnostics
			// (constant division by zero in a global initializer,
			// forward global references); a clean error is fine — only
			// panics and invalid IR are bugs.
			return
		}
		if err := ir.Validate(); err != nil {
			t.Fatalf("lowered IR invalid: %v\n%s", err, src)
		}
	})
}
