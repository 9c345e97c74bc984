package ir_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/benchprog"
	"repro/internal/compile"
	"repro/internal/ir"
	"repro/internal/randprog"
)

// TestWireRoundTrip: encode → decode must preserve the program
// exactly — the String rendering covers blocks, instructions, register
// numbering and debug names, and symbol identity is checked via the
// re-encoding (shared symbols must stay shared for the bytes to
// match).
func TestWireRoundTrip(t *testing.T) {
	srcs := map[string]string{}
	for _, p := range benchprog.All() {
		srcs[p.Name] = p.Source
	}
	for seed := int64(0); seed < 8; seed++ {
		srcs[fmt.Sprintf("randprog%d", seed)] = randprog.Generate(seed, randprog.ForSeed(seed))
	}
	for name, src := range srcs {
		t.Run(name, func(t *testing.T) {
			prog, err := compile.Source(src)
			if err != nil {
				t.Fatal(err)
			}
			data, err := ir.EncodeProgram(prog)
			if err != nil {
				t.Fatal(err)
			}
			back, err := ir.DecodeProgram(data)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := back.String(), prog.String(); got != want {
				t.Fatalf("round trip changed the program:\n--- original\n%s\n--- decoded\n%s", want, got)
			}
			data2, err := ir.EncodeProgram(back)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, data2) {
				t.Fatal("re-encoding the decoded program produced different bytes")
			}
		})
	}
}

// TestWireEncodeDeterministic: two compiles of the same source must
// encode to identical bytes, in the wire form and in the canonical
// binary form of each function — the property the content-addressed
// result cache keys rely on.
func TestWireEncodeDeterministic(t *testing.T) {
	src := benchprog.ByName("li").Source
	a, err := compile.Source(src)
	if err != nil {
		t.Fatal(err)
	}
	b, err := compile.Source(src)
	if err != nil {
		t.Fatal(err)
	}
	ea, err := ir.EncodeProgram(a)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := ir.EncodeProgram(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ea, eb) {
		t.Fatal("identical source compiled twice encodes differently")
	}
	for i, fn := range a.Funcs {
		if !bytes.Equal(canonical(t, fn), canonical(t, b.Funcs[i])) {
			t.Fatalf("function %s has a different canonical form across compiles", fn.Name)
		}
	}
}

// canonical returns the canonical binary form of fn.
func canonical(t *testing.T, fn *ir.Func) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ir.WriteCanonicalFunc(&buf, fn); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWireVersionGate: a version the codec does not speak must be
// rejected, not misread.
func TestWireVersionGate(t *testing.T) {
	prog, err := compile.Source(benchprog.ByName("compress").Source)
	if err != nil {
		t.Fatal(err)
	}
	data, err := ir.EncodeProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Replace(data, []byte(`{"version":1`), []byte(`{"version":999`), 1)
	if _, err := ir.DecodeProgram(bad); err == nil {
		t.Fatal("decoding a future wire version succeeded")
	}
}

// TestWireFuncDigestDistinguishes: the canonical binary form must
// differ for different functions (the cache-key injectivity smoke
// check).
func TestWireFuncDigestDistinguishes(t *testing.T) {
	prog, err := compile.Source(benchprog.ByName("eqntott").Source)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]string{}
	for _, fn := range prog.Funcs {
		data := string(canonical(t, fn))
		if prev, dup := seen[data]; dup {
			t.Fatalf("functions %s and %s encode identically", prev, fn.Name)
		}
		seen[data] = fn.Name
	}
}

// BenchmarkDecodeProgram decodes the wire form of every serve-hot
// program (randprog.Corpus(1, 64) and the benchmark suite) once per op.
func BenchmarkDecodeProgram(b *testing.B) {
	var wire [][]byte
	for s := int64(1); s <= 64; s++ {
		wire = append(wire, encodeSource(b, randprog.Generate(s, randprog.ForSeed(s))))
	}
	for _, p := range benchprog.All() {
		wire = append(wire, encodeSource(b, p.Source))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, data := range wire {
			if _, err := ir.DecodeProgram(data); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// encodeSource compiles src and returns its wire form.
func encodeSource(tb testing.TB, src string) []byte {
	tb.Helper()
	prog, err := compile.Source(src)
	if err != nil {
		tb.Fatal(err)
	}
	data, err := ir.EncodeProgram(prog)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}
