package parser

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/benchprog"
	"repro/internal/ir"
	"repro/internal/irbuild"
	"repro/internal/randprog"
	"repro/internal/types"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/ir_digests.txt")

// digestSources names every source TestIRDigests pins: the benchmark
// suite, the 64 random programs of the serve-hot workload
// (randprog.Corpus(1, 64)), the first 256 of the serve-cold workload
// (randprog.Corpus(1<<32, 256)), and FuzzParse's seeds.
func digestSources() (names, srcs []string) {
	for _, p := range benchprog.All() {
		names, srcs = append(names, "bench/"+p.Name), append(srcs, p.Source)
	}
	for _, r := range []struct {
		tag         string
		first, size int64
	}{{"hot", 1, 64}, {"cold", 1 << 32, 256}} {
		for i := int64(0); i < r.size; i++ {
			s := r.first + i
			names = append(names, fmt.Sprintf("%s/%d", r.tag, i))
			srcs = append(srcs, randprog.Generate(s, randprog.ForSeed(s)))
		}
	}
	for i, s := range fuzzSeeds {
		names, srcs = append(names, fmt.Sprintf("fuzz/%d", i)), append(srcs, s)
	}
	return names, srcs
}

// frontEnd runs the whole front end on src, as compile.Source does.
func frontEnd(src string) (*ir.Program, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	info, err := types.Check(prog)
	if err != nil {
		return nil, err
	}
	return irbuild.Build(prog, info)
}

// irDigest is the SHA-256 of src's lowering: the wire encoding of the
// program followed by every instruction's source position, which the
// wire form drops but interpreter error text reports. A source that
// fails to compile hashes its error text instead.
func irDigest(src string) (string, error) {
	prog, err := frontEnd(src)
	if err != nil {
		return fmt.Sprintf("err %x", sha256.Sum256([]byte(err.Error()))), nil
	}
	data, err := ir.EncodeProgram(prog)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write(data)
	var buf []byte
	for _, fn := range prog.Funcs {
		for _, b := range fn.Blocks {
			for i := range b.Instrs {
				pos := b.Instrs[i].Pos
				buf = binary.AppendVarint(buf, int64(pos.Line))
				buf = binary.AppendVarint(buf, int64(pos.Col))
			}
		}
	}
	h.Write(buf)
	return fmt.Sprintf("ok %x", h.Sum(nil)), nil
}

// TestIRDigests pins the front end's output byte for byte: register
// numbering, block IDs, instruction order and operands, symbols and
// positions for every source digestSources names. Regenerate, only for
// an intentional change to lowering, with:
//
//	go test ./internal/parser -run TestIRDigests -update
func TestIRDigests(t *testing.T) {
	names, srcs := digestSources()
	got := make([]string, len(srcs))
	for i, src := range srcs {
		d, err := irDigest(src)
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		got[i] = names[i] + " " + d
	}

	path := filepath.Join("testdata", "ir_digests.txt")
	if *updateDigests {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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
		t.Fatalf("digest table has %d rows, the front end lowers %d sources", len(want), len(got))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			if bad++; bad <= 10 {
				t.Errorf("lowering changed:\n got  %s\n want %s", got[i], want[i])
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d rows differ", bad, len(got))
	}
}
