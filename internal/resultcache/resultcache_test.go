package resultcache

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/benchprog"
	"repro/internal/compile"
	"repro/internal/freq"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/par"
	"repro/internal/rewrite"
	"repro/internal/telemetry"
)

// keysFor computes a key per function of the li benchmark under the
// given parameters.
func keysFor(t *testing.T, config machine.Config, strategy string, pipeline []string) map[string]Key {
	t.Helper()
	prog, err := compile.Source(benchprog.ByName("li").Source)
	if err != nil {
		t.Fatal(err)
	}
	pf := freq.Static(prog)
	out := map[string]Key{}
	for _, fn := range prog.Funcs {
		k, err := KeyFor(fn, pf.ByFunc[fn.Name], config, strategy, pipeline)
		if err != nil {
			t.Fatal(err)
		}
		out[fn.Name] = k
	}
	return out
}

// TestKeyStability: the same inputs must produce the same key across
// independent compiles; every varied input must change it.
func TestKeyStability(t *testing.T) {
	cfg := machine.NewConfig(8, 6, 4, 4)
	pl := []string{"liveness", "build-graph", "coalesce", "liverange", "color", "spill-rewrite"}
	base := keysFor(t, cfg, "improved", pl)
	again := keysFor(t, cfg, "improved", pl)
	for name, k := range base {
		if again[name] != k {
			t.Fatalf("%s: key not stable across compiles", name)
		}
	}

	seen := map[Key]string{}
	for name, k := range base {
		if prev, dup := seen[k]; dup {
			t.Fatalf("functions %s and %s share a key", prev, name)
		}
		seen[k] = name
	}
	variants := []map[string]Key{
		keysFor(t, machine.NewConfig(6, 4, 0, 0), "improved", pl),
		keysFor(t, cfg, "linscan", pl),
		keysFor(t, cfg, "improved", []string{"liveness", "scan", "spill-rewrite"}),
	}
	for i, v := range variants {
		for name, k := range v {
			if base[name] == k {
				t.Fatalf("variant %d: %s key unchanged by varied input", i, name)
			}
		}
	}
}

// TestKeyFreqSensitivity: the frequency table is an allocation input,
// so a different table must produce a different key.
func TestKeyFreqSensitivity(t *testing.T) {
	prog, err := compile.Source(benchprog.ByName("compress").Source)
	if err != nil {
		t.Fatal(err)
	}
	fn := prog.Funcs[0]
	cfg := machine.NewConfig(8, 6, 4, 4)
	pf := freq.Static(prog)
	ff := pf.ByFunc[fn.Name]
	k1, err := KeyFor(fn, ff, cfg, "improved", nil)
	if err != nil {
		t.Fatal(err)
	}
	bumped := &freq.FuncFreq{Entry: ff.Entry + 1, Block: ff.Block}
	k2, err := KeyFor(fn, bumped, cfg, "improved", nil)
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k2 {
		t.Fatal("key ignores the frequency table")
	}
}

// keyInputs is one full set of KeyFor arguments.
type keyInputs struct {
	fn       *ir.Func
	ff       *freq.FuncFreq
	config   machine.Config
	strategy string
	pipeline []string
}

func (in *keyInputs) key(t *testing.T) Key {
	t.Helper()
	k, err := KeyFor(in.fn, in.ff, in.config, in.strategy, in.pipeline)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// The register table of keyFixture's function: v0, v1 are its
// parameters.
var (
	fixtureClasses = []ir.Class{ir.ClassInt, ir.ClassInt, ir.ClassInt, ir.ClassFloat, ir.ClassInt, ir.ClassInt, ir.ClassInt, ir.ClassFloat}
	fixtureNames   = []string{"a", "b", "", "", "", "", "", ""}
)

// keyFixture returns fresh KeyFor inputs around a function whose
// instructions set every field of the wire form, with the given
// register table.
func keyFixture(classes []ir.Class, names []string) *keyInputs {
	fn := &ir.Func{Name: "f", HasResult: true, ResultClass: ir.ClassInt}
	for r, c := range classes {
		fn.NewReg(c, names[r])
	}
	fn.Params = []ir.Reg{0, 1}
	buf := &ir.Symbol{Name: "buf", Class: ir.ClassInt, Size: 4, Local: true}
	g := &ir.Symbol{Name: "g", Class: ir.ClassFloat, InitFloat: 2.5}
	fn.Locals = []*ir.Symbol{buf}
	entry, then, els := fn.NewBlock(), fn.NewBlock(), fn.NewBlock()
	entry.Instrs = []ir.Instr{
		{Op: ir.OpConstInt, Dst: 2, IntVal: 3},
		{Op: ir.OpConstFloat, Dst: 3, FloatVal: 1.5},
		{Op: ir.OpLoad, Dst: 4, Args: []ir.Reg{0}, Sym: buf},
		{Op: ir.OpICmp, Dst: 5, Args: []ir.Reg{4, 2}, Cond: ir.CondLT},
		{Op: ir.OpBr, Dst: ir.NoReg, Args: []ir.Reg{5}, Then: 1, Else: 2},
	}
	then.Instrs = []ir.Instr{
		{Op: ir.OpLoad, Dst: 7, Sym: g},
		{Op: ir.OpCall, Dst: 6, Args: []ir.Reg{2}, Callee: "h"},
		{Op: ir.OpRet, Dst: ir.NoReg, Args: []ir.Reg{6}},
	}
	els.Instrs = []ir.Instr{
		{Op: ir.OpStore, Dst: ir.NoReg, Args: []ir.Reg{3}, Sym: g},
		{Op: ir.OpRet, Dst: ir.NoReg, Args: []ir.Reg{1}},
	}
	return &keyInputs{
		fn:       fn,
		ff:       &freq.FuncFreq{Entry: 1, Block: []float64{1, 0.5, 0.5}},
		config:   machine.NewConfig(8, 6, 4, 4),
		strategy: "improved",
		pipeline: []string{"liveness", "build-graph", "color"},
	}
}

// with returns a copy of s with s[i] = v.
func with[T any](s []T, i int, v T) []T {
	c := append([]T(nil), s...)
	c[i] = v
	return c
}

// TestKeyFieldSensitivity: changing any single input — any field of
// the wire form, the frequency table, the configuration, the strategy,
// or the pipeline — must change the key, including changes that only
// move bytes from one field to the next.
func TestKeyFieldSensitivity(t *testing.T) {
	instr := func(in *keyInputs, b, i int) *ir.Instr { return &in.fn.Blocks[b].Instrs[i] }
	cases := []struct {
		name string
		a, b func(in *keyInputs) // nil leaves the fixture as built
	}{
		{"reg name", nil, func(in *keyInputs) { in.fn = keyFixture(fixtureClasses, with(fixtureNames, 2, "t")).fn }},
		{"reg class", nil, func(in *keyInputs) { in.fn = keyFixture(with(fixtureClasses, 6, ir.ClassFloat), fixtureNames).fn }},
		{"param", nil, func(in *keyInputs) { in.fn.Params[1] = 2 }},
		{"local Size", nil, func(in *keyInputs) { in.fn.Locals[0].Size = 5 }},
		{"local InitInt", nil, func(in *keyInputs) { in.fn.Locals[0].InitInt = 1 }},
		{"local InitFloat", nil, func(in *keyInputs) { in.fn.Locals[0].InitFloat = 0.5 }},
		{"local Spill", nil, func(in *keyInputs) { in.fn.Locals[0].Spill = true }},
		{"op", nil, func(in *keyInputs) { instr(in, 0, 0).Op = ir.OpNop }},
		{"dst", nil, func(in *keyInputs) { instr(in, 0, 0).Dst = 6 }},
		{"arg", nil, func(in *keyInputs) { instr(in, 0, 3).Args[1] = 4 }},
		{"IntVal", nil, func(in *keyInputs) { instr(in, 0, 0).IntVal = 4 }},
		{"FloatVal", nil, func(in *keyInputs) { instr(in, 0, 1).FloatVal = 1.25 }},
		{"cond", nil, func(in *keyInputs) { instr(in, 0, 3).Cond = ir.CondLE }},
		{"sym", nil, func(in *keyInputs) { instr(in, 2, 0).Sym = in.fn.Locals[0] }},
		{"shared vs equal sym", nil, func(in *keyInputs) {
			g := *instr(in, 1, 0).Sym
			instr(in, 1, 0).Sym = &g
		}},
		{"callee", nil, func(in *keyInputs) { instr(in, 1, 1).Callee = "k" }},
		{"then", nil, func(in *keyInputs) { instr(in, 0, 4).Then = 2 }},
		{"else", nil, func(in *keyInputs) { instr(in, 0, 4).Else = 1 }},
		{"HasResult", nil, func(in *keyInputs) { in.fn.HasResult = false }},
		{"ResultClass", nil, func(in *keyInputs) { in.fn.ResultClass = ir.ClassFloat }},
		{"ff.Entry", nil, func(in *keyInputs) { in.ff.Entry = 2 }},
		{"ff.Block", nil, func(in *keyInputs) { in.ff.Block[2] = 0.25 }},
		{"config", nil, func(in *keyInputs) { in.config = machine.NewConfig(8, 6, 4, 2) }},
		{"strategy", nil, func(in *keyInputs) { in.strategy = "linscan" }},
		{"pipeline split", func(in *keyInputs) { in.pipeline = []string{"ab", "c"} },
			func(in *keyInputs) { in.pipeline = []string{"a", "bc"} }},
		{"strategy absorbs first pass", nil, func(in *keyInputs) {
			in.strategy, in.pipeline = "improvedliveness", in.pipeline[1:]
		}},
		{"strategy absorbs first pass after NUL", nil, func(in *keyInputs) {
			in.strategy, in.pipeline = "improved\x00liveness", in.pipeline[1:]
		}},
	}
	for _, tc := range cases {
		a, b := keyFixture(fixtureClasses, fixtureNames), keyFixture(fixtureClasses, fixtureNames)
		if tc.a != nil {
			tc.a(a)
		}
		tc.b(b)
		if a.key(t) == b.key(t) {
			t.Errorf("%s: key unchanged", tc.name)
		}
	}
}

// TestKeySharedHelperAcrossPrograms: the same helper compiled into two
// different programs — other globals, other callers — has the same
// key, so the cache serves it across them.
func TestKeySharedHelperAcrossPrograms(t *testing.T) {
	const helper = `
int table[16];
int helper(int x) { table[x % 16] = x; return table[(x + 1) % 16] * 2; }
`
	srcs := []string{
		"int other[4];\nfloat scale = 1.5;\n" + helper +
			"int main() { other[1] = 2; return helper(3) + other[1]; }\n",
		helper + "int main() { int s = helper(5); int i; for (i = 0; i < 4; i = i + 1) { s = s + i; } return s; }\n",
	}
	cfg := machine.NewConfig(8, 6, 4, 4)
	var keys [2][2]Key // [program][helper, main]
	for i, src := range srcs {
		prog, err := compile.Source(src)
		if err != nil {
			t.Fatal(err)
		}
		pf := freq.Static(prog)
		for j, name := range []string{"helper", "main"} {
			fn := prog.FuncByName[name]
			in := &keyInputs{fn: fn, ff: pf.ByFunc[name], config: cfg, strategy: "improved"}
			keys[i][j] = in.key(t)
		}
	}
	if keys[0][0] != keys[1][0] {
		t.Error("the shared helper keys differently in the two programs")
	}
	if keys[0][1] == keys[1][1] {
		t.Error("the two different mains share a key")
	}
}

// TestLRUEviction: the cache never holds more than max entries and
// evicts in least-recently-used order.
func TestLRUEviction(t *testing.T) {
	b := telemetry.Enable(nil)
	defer telemetry.Disable()
	c := New(2)
	mk := func(i byte) Key { var k Key; k[0] = i; return k }
	plan := func() (*rewrite.FuncPlan, error) { return &rewrite.FuncPlan{}, nil }

	for i := byte(1); i <= 3; i++ {
		if _, hit, err := c.Do(mk(i), plan); err != nil || hit {
			t.Fatalf("insert %d: hit=%v err=%v", i, hit, err)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	// 1 was evicted; 2 and 3 resident.
	if _, hit := c.Get(mk(1)); hit {
		t.Fatal("evicted entry still resident")
	}
	if _, hit := c.Get(mk(2)); !hit {
		t.Fatal("entry 2 missing")
	}
	// Touch 2, insert 4: 3 must go.
	if _, hit, _ := c.Do(mk(4), plan); hit {
		t.Fatal("fresh key hit")
	}
	if _, hit := c.Get(mk(3)); hit {
		t.Fatal("LRU evicted the wrong entry")
	}
	snap := b.Reg.Snapshot()
	if got := snap.Counters["result_cache_evictions_total"]; got != 2 {
		t.Fatalf("evictions counter = %d, want 2", got)
	}
	if got := snap.Gauges["result_cache_entries"]; got != 2 {
		t.Fatalf("entries gauge = %d, want 2", got)
	}
}

// TestSingleflight: concurrent Do calls for one key run compute once;
// the rest share the result and count as hits.
func TestSingleflight(t *testing.T) {
	b := telemetry.Enable(nil)
	defer telemetry.Disable()
	c := New(8)
	var computes atomic.Int64
	gate := make(chan struct{})
	shared := &rewrite.FuncPlan{}
	const callers = 16
	var wg sync.WaitGroup
	plans := make([]*rewrite.FuncPlan, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, _, err := c.Do(Key{42}, func() (*rewrite.FuncPlan, error) {
				<-gate
				computes.Add(1)
				return shared, nil
			})
			if err != nil {
				t.Error(err)
			}
			plans[i] = p
		}(i)
	}
	close(gate)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	for i, p := range plans {
		if p != shared {
			t.Fatalf("caller %d got a different plan", i)
		}
	}
	snap := b.Reg.Snapshot()
	if misses := snap.Counters["result_cache_misses_total"]; misses != 1 {
		t.Fatalf("misses = %d, want 1", misses)
	}
	if hits := snap.Counters["result_cache_hits_total"]; hits != callers-1 {
		t.Fatalf("hits = %d, want %d", hits, callers-1)
	}
}

// TestFailedComputeNotCachedAndRetried: an error result must not be
// cached, and a waiting follower must take over rather than inherit
// the leader's failure.
func TestFailedComputeNotCachedAndRetried(t *testing.T) {
	c := New(8)
	boom := errors.New("canceled")
	started := make(chan struct{})
	release := make(chan struct{})
	var leaderErr error
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		_, _, leaderErr = c.Do(Key{7}, func() (*rewrite.FuncPlan, error) {
			close(started)
			<-release
			return nil, boom
		})
	}()
	<-started
	var followerPlan *rewrite.FuncPlan
	var followerErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		followerPlan, _, followerErr = c.Do(Key{7}, func() (*rewrite.FuncPlan, error) {
			return &rewrite.FuncPlan{}, nil
		})
	}()
	close(release)
	<-leaderDone
	if !errors.Is(leaderErr, boom) {
		t.Fatalf("leader error = %v, want %v", leaderErr, boom)
	}
	<-done
	if followerErr != nil {
		t.Fatalf("follower inherited the leader's failure: %v", followerErr)
	}
	if followerPlan == nil {
		t.Fatal("follower got no plan")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (only the successful compute cached)", c.Len())
	}
}

// waitForFollowers blocks until n callers wait on key's in-flight
// compute.
func waitForFollowers(c *Cache, key Key, n int) {
	for {
		c.mu.Lock()
		cl := c.inflight[key]
		w := cl != nil && cl.waiters >= n
		c.mu.Unlock()
		if w {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPanickingComputeReleasesFollowers: a compute that panics is not
// cached, the leader and a follower waiting on it both get the panic
// as a *par.PanicError (the follower without running a compute of its
// own), and the next call computes afresh.
func TestPanickingComputeReleasesFollowers(t *testing.T) {
	c := New(8)
	key := Key{9}
	started, release := make(chan struct{}), make(chan struct{})
	var leaderErr, followerErr error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, _, leaderErr = c.Do(key, func() (*rewrite.FuncPlan, error) {
			close(started)
			<-release
			panic("boom")
		})
	}()
	<-started
	go func() {
		defer wg.Done()
		_, _, followerErr = c.Do(key, func() (*rewrite.FuncPlan, error) {
			t.Error("follower ran its own compute")
			return nil, nil
		})
	}()
	waitForFollowers(c, key, 1)
	close(release)
	wg.Wait()
	for who, err := range map[string]error{"leader": leaderErr, "follower": followerErr} {
		var pe *par.PanicError
		if !errors.As(err, &pe) || pe.Value != "boom" {
			t.Errorf("%s: err = %v, want the leader's panic", who, err)
		}
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d, want 0 (a panicked compute is never cached)", c.Len())
	}
	if _, hit, err := c.Do(key, func() (*rewrite.FuncPlan, error) { return &rewrite.FuncPlan{}, nil }); err != nil || hit {
		t.Fatalf("next call: hit=%v err=%v, want a fresh successful compute", hit, err)
	}
}

// TestFollowerHonorsItsDeadline: a follower stops waiting when its own
// context ends, however long the leader's compute takes.
func TestFollowerHonorsItsDeadline(t *testing.T) {
	c := New(8)
	key := Key{10}
	started, release := make(chan struct{}), make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		c.Do(key, func() (*rewrite.FuncPlan, error) {
			close(started)
			<-release
			return &rewrite.FuncPlan{}, nil
		})
	}()
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, hit, err := c.DoContext(ctx, key, func() (*rewrite.FuncPlan, error) {
		t.Error("follower ran its own compute")
		return nil, nil
	})
	if !errors.Is(err, context.DeadlineExceeded) || hit {
		t.Fatalf("follower: hit=%v err=%v, want DeadlineExceeded while the leader runs", hit, err)
	}
	close(release)
	<-leaderDone
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want the leader's result cached", c.Len())
	}
}

// TestBytesGauge: a cache with a size function reports the bytes of
// its resident entries, net of refreshes and evictions.
func TestBytesGauge(t *testing.T) {
	b := telemetry.Enable(nil)
	defer telemetry.Disable()
	c := NewLRU[[]byte](2, ResultMeters, func(v []byte) int64 { return int64(len(v)) })
	c.Put(Key{1}, make([]byte, 10))
	c.Put(Key{2}, make([]byte, 20))
	c.Put(Key{1}, make([]byte, 5))
	c.Put(Key{3}, make([]byte, 40)) // evicts 2
	if got := b.Reg.Snapshot().Gauges["result_cache_bytes"]; got != 45 {
		t.Fatalf("result_cache_bytes = %d, want 45", got)
	}
}
