package ir_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ir"
)

// fuzzSources are small MC programs whose wire forms seed
// FuzzDecodeProgram: together they use every opcode, global and local
// arrays, float initializers, calls and loops, and stay a few KB.
var fuzzSources = []string{
	"int main() { return 7; }",
	`int g = 3; float h = 1.5; int a[4];
float f(int x, float y) { return y * float(x) + h; }
int main() {
	int i; float s = 0.0; float b[3];
	for (i = 0; i < 4; i = i + 1) { a[i] = i * g; }
	b[1] = f(a[2], 2.0);
	while (s < 10.0 && !(i == 0)) { s = s + b[1]; i = i - 1; }
	do { i = i + 1; } while (i < 3 || i % 2 == 1);
	if (s > 3.0) { return int(s) / 2; } else { return -i; }
}`,
	`void p(int n) { if (n <= 0) { return; } p(n - 1); }
int main() { p(3); return 0; }`,
}

// wireEdgeCases seed FuzzDecodeProgram with hand-written bodies: null
// list elements, the malformed programs the server tests post, keys out
// of the encoder's order, an empty argument list, and the case-folded,
// duplicate and fractional forms encoding/json accepts or rejects.
var wireEdgeCases = []string{
	`{"version":1,"funcs":[null]}`,
	`{"version":1,"funcs":[{"name":"main","reg_classes":[0],"blocks":[null]}]}`,
	`{"version":1,"globals":[null],"funcs":[]}`,
	`{"version":1,"funcs":[{"name":"main","has_result":true,"reg_classes":[` +
		strings.Repeat("0,", 24) + `0],"blocks":[{"instrs":[{"op":1,"dst":0,"int_val":1,"sym":-1},` +
		`{"op":0,"dst":34,"sym":-1},{"op":22,"dst":-1,"args":[0],"sym":-1}]}]}]}`,
	`{"version":1,"funcs":[{"name":"main","has_result":true,"reg_classes":[0],` +
		`"blocks":[{"instrs":[{"op":1,"dst":0,"int_val":1,"sym":-1},{"op":23,"dst":-1,"sym":-1}]}]}]}`,
	`{"version":1,"funcs":[{"name":"main","has_result":true,"reg_classes":[0],` +
		`"blocks":[{"instrs":[{"op":1,"dst":-5,"int_val":1,"sym":-1},{"op":22,"dst":-1,"args":[0],"sym":-1}]}]}]}`,
	`{"version":1,"funcs":[{"name":"main","has_result":true,"reg_classes":[0],` +
		`"blocks":[{"instrs":[{"op":19,"dst":0,"sym":-1},{"op":22,"dst":-1,"args":[0],"sym":-1}]}]}]}`,
	`{"funcs":[{"blocks":[{"instrs":[{"op":22,"dst":-1,"sym":-1}]}],"name":"main"}],"version":1}`,
	`{"version":1,"funcs":[{"name":"main","blocks":[{"instrs":[{"op":22,"dst":-1,"sym":-1,"args":[]}]}]}]} `,
	`{"Version":1,"funcs":[]}`,
	`{"version":1,"version":1,"funcs":[]}`,
	`{"version":1.0,"funcs":[]}`,
	`{"version":1,"funcs":[{"name":"main","blocks":[{"instrs":[null]}]}]}`,
}

// FuzzDecodeProgram: DecodeProgram never panics; a program it accepts
// re-encodes stably; and the reflective reference decoder accepts it
// too, builds a deeply equal program and re-encodes it to the same
// bytes, so the single-pass decoder accepts nothing the old one
// rejected and decodes nothing differently.
func FuzzDecodeProgram(f *testing.F) {
	for _, src := range fuzzSources {
		f.Add(encodeSource(f, src))
	}
	for _, body := range wireEdgeCases {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ir.DecodeProgram(data)
		if err != nil {
			return
		}
		enc, err := ir.EncodeProgram(p)
		if err != nil {
			t.Fatalf("accepted program does not encode: %v", err)
		}
		ref, err := ir.ReferenceDecodeProgram(data)
		if err != nil {
			t.Fatalf("DecodeProgram accepts what the reference rejects: %v\n%s", err, data)
		}
		refEnc, err := ir.EncodeProgram(ref)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, refEnc) {
			t.Fatalf("decoders disagree on\n%s\n--- DecodeProgram\n%s\n--- reference\n%s", data, enc, refEnc)
		}
		// DeepEqual also tells a nil list from an empty one, which the
		// encoding does not.
		if !reflect.DeepEqual(p, ref) {
			t.Fatalf("decoders build different programs from\n%s", data)
		}
		back, err := ir.DecodeProgram(enc)
		if err != nil {
			t.Fatalf("re-encoded program rejected: %v", err)
		}
		again, err := ir.EncodeProgram(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, again) {
			t.Fatalf("re-encoding is not stable:\n%s\n%s", enc, again)
		}
	})
}
