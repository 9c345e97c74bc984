package linscan

// White-box tests for the lifetime-segment representation: construction
// from liveness block facts (holes at def-dead-redef gaps inside one
// block, holes across blocks where a register is dead, continuity over
// live-through boundary slots) and the segment-set intersection
// primitive the scan's conflict test is built on.

import (
	"testing"

	"repro/internal/benchprog"
	"repro/internal/bitset"
	"repro/internal/cfg"
	"repro/internal/compile"
	"repro/internal/freq"
	"repro/internal/ir"
	"repro/internal/liveness"
	"repro/internal/liverange"
	"repro/internal/machine"
)

func TestSegListIntersects(t *testing.T) {
	cases := []struct {
		name string
		a, b segList
		want bool
	}{
		{"both empty", nil, nil, false},
		{"one empty", segList{{0, 4}}, nil, false},
		{"disjoint ordered", segList{{0, 2}, {6, 8}}, segList{{3, 5}, {9, 11}}, false},
		{"interleaved holes", segList{{0, 1}, {10, 12}}, segList{{2, 9}}, false},
		{"touching endpoints", segList{{0, 4}}, segList{{4, 8}}, true},
		{"overlap in later segments", segList{{0, 1}, {20, 30}}, segList{{2, 3}, {25, 26}}, true},
		{"containment", segList{{5, 6}}, segList{{0, 100}}, true},
		{"point vs point", segList{{7, 7}}, segList{{7, 7}}, true},
		{"point in hole", segList{{7, 7}}, segList{{0, 6}, {8, 10}}, false},
	}
	for _, c := range cases {
		if got := c.a.intersects(c.b); got != c.want {
			t.Errorf("%s: intersects = %v, want %v", c.name, got, c.want)
		}
		if got := c.b.intersects(c.a); got != c.want {
			t.Errorf("%s (flipped): intersects = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSegListCovers(t *testing.T) {
	s := segList{{2, 4}, {8, 8}, {12, 20}}
	for slot, want := range map[int32]bool{
		0: false, 1: false, 2: true, 3: true, 4: true, 5: false,
		7: false, 8: true, 9: false,
		11: false, 12: true, 20: true, 21: false,
	} {
		if got := s.covers(slot); got != want {
			t.Errorf("covers(%d) = %v, want %v", slot, got, want)
		}
	}
	if segList(nil).covers(0) {
		t.Error("empty list covers a slot")
	}
}

// layout mirrors analyze's block walk: block bi spans slots
// [2*start[bi], 2*boundary[bi]] in the doubled slot space, where the
// even boundary slot holds the live-out set.
type layout struct {
	start, boundary []int32
}

func layoutOf(fn *ir.Func) layout {
	l := layout{
		start:    make([]int32, len(fn.Blocks)),
		boundary: make([]int32, len(fn.Blocks)),
	}
	pos := int32(0)
	for bi, b := range fn.Blocks {
		l.start[bi] = pos
		l.boundary[bi] = pos + int32(len(b.Instrs))
		pos = l.boundary[bi] + 1
	}
	return l
}

// intervalsFor compiles src and runs the segment analysis on fname.
func intervalsFor(t *testing.T, src, fname string) (*ir.Func, *liveness.Info, *funcIntervals) {
	t.Helper()
	prog, err := compile.Source(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	fn := prog.FuncByName[fname]
	if fn == nil {
		t.Fatalf("no function %q", fname)
	}
	live := liveness.Compute(fn, cfg.New(fn))
	pf := freq.Static(prog)
	var sb segBuilder
	fi := analyze(fn, live, pf.ByFunc[fname], machine.NewConfig(8, 6, 4, 4), &sb, nil)
	return fn, live, fi
}

// regByName resolves a named local to its virtual register.
func regByName(t *testing.T, fn *ir.Func, name string) ir.Reg {
	t.Helper()
	for r := 0; r < fn.NumRegs(); r++ {
		if fn.RegName(ir.Reg(r)) == name {
			return ir.Reg(r)
		}
	}
	t.Fatalf("no register named %q in %s", name, fn.Name)
	return ir.NoReg
}

// findInstr returns the layout index of the first instruction for which
// match returns true, walking blocks in layout order.
func findInstr(t *testing.T, fn *ir.Func, what string, match func(in *ir.Instr) bool) int32 {
	t.Helper()
	pos := int32(0)
	for _, b := range fn.Blocks {
		for i := range b.Instrs {
			if match(&b.Instrs[i]) {
				return pos + int32(i)
			}
		}
		pos += int32(len(b.Instrs)) + 1
	}
	t.Fatalf("no instruction matching %s in %s", what, fn.Name)
	return -1
}

// TestSingleBlockHole: x is defined, dies, and is redefined later in the
// same block; its segment set must split in two with the cold middle
// instruction uncovered, while the hull (a single span) would cover it.
func TestSingleBlockHole(t *testing.T) {
	const src = `
int f(int a) {
	int x = a + 1;
	int y = x + a;
	int z = y + y;
	int w = z + z;
	x = w + a;
	return x + y;
}
int main() { return f(3); }`
	fn, _, fi := intervalsFor(t, src, "f")
	x := regByName(t, fn, "x")
	segs := fi.segs[x]
	if len(segs) != 2 {
		t.Fatalf("x has %d segments %v, want 2 (def-dead-redef hole)", len(segs), segs)
	}
	// The instruction computing z sits inside x's dead gap: neither its
	// read nor its write slot may be covered.
	z := regByName(t, fn, "z")
	zIP := findInstr(t, fn, "def of z", func(in *ir.Instr) bool { return in.HasDst() && in.Dst == z })
	for _, slot := range []int32{readSlot(zIP), writeSlot(zIP)} {
		if fi.segs[x].covers(slot) {
			t.Errorf("x covers slot %d inside its dead gap (segments %v)", slot, segs)
		}
	}
	// The hull still spans the hole: start/end bracket both segments.
	if fi.start[x] != segs[0].from || fi.end[x] != segs[1].to {
		t.Errorf("hull [%d,%d] does not match segment extremes %v", fi.start[x], fi.end[x], segs)
	}
	// y is live straight through the gap, so the hole-aware conflict
	// test must still report a conflict with x.
	y := regByName(t, fn, "y")
	if !fi.segs[x].intersects(fi.segs[y]) {
		t.Error("x and y should conflict: y is live through x's hole region")
	}
}

// TestBlockGapHole: x dies before a conditional and is reborn after it,
// so the branch body's block must fall entirely inside a hole.
func TestBlockGapHole(t *testing.T) {
	const src = `
int f(int a, int b) {
	int x = a + 1;
	int t = x + 1;
	if (b > 0) {
		t = t + b;
	}
	x = t + 2;
	return x;
}
int main() { return f(1, 2); }`
	fn, _, fi := intervalsFor(t, src, "f")
	x := regByName(t, fn, "x")
	tt := regByName(t, fn, "t")
	if len(fi.segs[x]) < 2 {
		t.Fatalf("x has segments %v, want a cross-block hole (>= 2 segments)", fi.segs[x])
	}
	// Locate the branch body: the block containing t's redefinition
	// (t = t + b reads and writes t in one instruction).
	bodyIP := findInstr(t, fn, "redef of t", func(in *ir.Instr) bool {
		if !in.HasDst() || in.Dst != tt {
			return false
		}
		for _, a := range in.Args {
			if a == tt {
				return true
			}
		}
		return false
	})
	l := layoutOf(fn)
	body := -1
	for bi := range fn.Blocks {
		if l.start[bi] <= bodyIP && bodyIP < l.boundary[bi] {
			body = bi
			break
		}
	}
	if body < 0 {
		t.Fatal("could not locate branch body block")
	}
	for slot := readSlot(l.start[body]); slot <= boundarySlot(l.boundary[body]); slot++ {
		if fi.segs[x].covers(slot) {
			t.Errorf("x covers slot %d inside the branch body block %d (segments %v)",
				slot, body, fi.segs[x])
		}
	}
	// t hands through the same region: one merged segment covering the
	// body block's entry boundary, despite the use+redefine handoff.
	if len(fi.segs[tt]) != 1 {
		t.Errorf("t has segments %v, want one merged live-through segment", fi.segs[tt])
	}
	if !fi.segs[tt].covers(boundarySlot(l.boundary[0])) {
		t.Errorf("t's segment %v does not cover the entry block's boundary slot %d",
			fi.segs[tt], boundarySlot(l.boundary[0]))
	}
	// Disjoint segment sets in the same bank: x and t never conflict
	// even though their hulls overlap.
	if fi.segs[x].intersects(fi.segs[tt]) {
		// x is reborn from t (x = t + 2): the read slot belongs to t,
		// the write slot to x. They must not share either.
		t.Errorf("x (%v) and t (%v) segment sets intersect", fi.segs[x], fi.segs[tt])
	}
}

// TestDeadDefPointSegment: a definition that is never used before the
// register is redefined still occupies its own write slot — the
// physical register is clobbered there — as a degenerate one-slot
// segment.
func TestDeadDefPointSegment(t *testing.T) {
	const src = `
int f(int a) {
	int x = a + 1;
	int y = a + 2;
	x = y + a;
	return x;
}
int main() { return f(4); }`
	fn, _, fi := intervalsFor(t, src, "f")
	x := regByName(t, fn, "x")
	segs := fi.segs[x]
	if len(segs) != 2 {
		t.Fatalf("x has segments %v, want a point segment plus the live span", segs)
	}
	first := segs[0]
	if first.from != first.to {
		t.Errorf("dead def of x should be a point segment, got %v", first)
	}
	if first.from%2 != 1 {
		t.Errorf("dead def segment %v should sit on an odd write slot", first)
	}
}

// TestSegmentInvariants cross-validates the segment sets of every
// benchmark program against the liveness facts they were built from and
// against liverange's independent BlockMap:
//
//   - ordering: segments are sorted, disjoint, and separated by genuine
//     holes (gap >= 3 slots; anything closer is a continuation and must
//     have been merged),
//   - soundness: every use covers its read slot, every definition its
//     write slot, everything live after an instruction the following
//     write slot, and every live-out register its block boundary slot,
//   - hull consistency: start/end equal the segment extremes,
//   - block coverage: the set of blocks a register's segments touch is
//     exactly liverange.BlockMap's live-or-referenced set.
func TestSegmentInvariants(t *testing.T) {
	for _, name := range benchprog.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			prog, err := compile.Source(benchprog.ByName(name).Source)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			pf := freq.Static(prog)
			for _, fn := range prog.Funcs {
				live := liveness.Compute(fn, cfg.New(fn))
				var sb segBuilder
				fi := analyze(fn, live, pf.ByFunc[fn.Name], machine.NewConfig(8, 6, 4, 4), &sb, nil)
				checkSegmentInvariants(t, fn, live, fi)
			}
		})
	}
}

func checkSegmentInvariants(t *testing.T, fn *ir.Func, live *liveness.Info, fi *funcIntervals) {
	t.Helper()
	nr := fn.NumRegs()
	for r := 0; r < nr; r++ {
		segs := fi.segs[r]
		for i, s := range segs {
			if s.from > s.to {
				t.Errorf("%s r%d segment %d inverted: %v", fn.Name, r, i, s)
			}
			if i > 0 && s.from-segs[i-1].to <= 2 {
				t.Errorf("%s r%d segments %d,%d not merged: %v then %v",
					fn.Name, r, i-1, i, segs[i-1], s)
			}
		}
		if len(segs) > 0 {
			if fi.start[r] != segs[0].from || fi.end[r] != segs[len(segs)-1].to {
				t.Errorf("%s r%d hull [%d,%d] != segment extremes %v",
					fn.Name, r, fi.start[r], fi.end[r], segs)
			}
		} else if fi.live(r) {
			t.Errorf("%s r%d live per hull [%d,%d] but has no segments",
				fn.Name, r, fi.start[r], fi.end[r])
		}
	}

	l := layoutOf(fn)
	touched := make([]map[int]bool, nr)
	for r := range touched {
		touched[r] = make(map[int]bool)
	}
	for bi, b := range fn.Blocks {
		bi, b := bi, b
		live.Out[b.ID].ForEach(func(r int) {
			if !fi.segs[r].covers(boundarySlot(l.boundary[bi])) {
				t.Errorf("%s r%d live-out of block %d but segments %v miss boundary slot %d",
					fn.Name, r, b.ID, fi.segs[r], boundarySlot(l.boundary[bi]))
			}
		})
		live.WalkBlockIndexed(b, func(i int, in *ir.Instr, liveAfter *bitset.Set) {
			ip := l.start[bi] + int32(i)
			liveAfter.ForEach(func(r int) {
				if !fi.segs[r].covers(writeSlot(ip)) {
					t.Errorf("%s r%d live after instr %d but segments %v miss slot %d",
						fn.Name, r, ip, fi.segs[r], writeSlot(ip))
				}
			})
			if in.HasDst() && !fi.segs[in.Dst].covers(writeSlot(ip)) {
				t.Errorf("%s r%d defined at instr %d but segments %v miss write slot %d",
					fn.Name, in.Dst, ip, fi.segs[in.Dst], writeSlot(ip))
			}
			for _, a := range in.Args {
				if !fi.segs[a].covers(readSlot(ip)) {
					t.Errorf("%s r%d used at instr %d but segments %v miss read slot %d",
						fn.Name, a, ip, fi.segs[a], readSlot(ip))
				}
			}
		})
		// Record which blocks each register's segments touch.
		lo, hi := readSlot(l.start[bi]), boundarySlot(l.boundary[bi])
		for r := 0; r < nr; r++ {
			block := segList{{from: lo, to: hi}}
			if fi.segs[r].intersects(block) {
				touched[r][b.ID] = true
			}
		}
	}

	// Independent cross-check: segment block coverage == BlockMap's
	// live-or-referenced set.
	bm := liverange.NewBlockMap(fn, live)
	for r := 0; r < nr; r++ {
		want := bm.Of(ir.Reg(r))
		for id := range touched[r] {
			if !want.Has(id) {
				t.Errorf("%s r%d segments touch block %d but BlockMap says dead there",
					fn.Name, r, id)
			}
		}
		want.ForEach(func(id int) {
			if !touched[r][id] {
				t.Errorf("%s r%d live-or-referenced in block %d per BlockMap but no segment touches it",
					fn.Name, r, id)
			}
		})
	}
}
