// Package resultcache is the content-addressed allocation result
// cache behind the allocation service (internal/server).
//
// The paper's allocator is a pure function of its inputs: one function
// of IR, a frequency table, a machine configuration, a strategy, and
// the pass pipeline the strategy resolves to. That makes every
// completed allocation a content-addressable unit of work — the cache
// key is a stable hash of exactly those inputs (KeyFor), and the value
// is the finished, immutable rewrite.FuncPlan (colors, rewritten body,
// save/restore plan). Identical functions across requests — the same
// helper compiled into many programs, repeat traffic against the
// daemon — are served without re-coloring.
//
// This is a different layer than pipeline.FuncCache: FuncCache shares
// round-0 *analysis* artifacts between allocations of one in-process
// Program; resultcache shares *results* across requests, keyed by
// content rather than object identity, so it survives program
// boundaries and serves a long-lived daemon.
//
// The cache is a bounded LRU with in-flight deduplication: concurrent
// requests for the same key run one compute and share its result.
// Telemetry: result_cache_{hits,misses,evictions}_total and the
// result_cache_entries gauge (package telemetry). All methods are safe
// for concurrent use.
package resultcache

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"repro/internal/freq"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/rewrite"
	"repro/internal/telemetry"
)

// Key is the content address of one allocation: a SHA-256 over the
// canonical binary form of the function (ir.WriteCanonicalFunc), its
// frequency table, the machine configuration, the strategy name, and
// the resolved pass pipeline.
type Key [sha256.Size]byte

// String renders the key in short hex form for logs.
func (k Key) String() string { return fmt.Sprintf("%x", k[:8]) }

// KeyFor derives the content address of allocating fn under ff,
// config, and the named strategy with the given resolved pipeline pass
// names.
//
// The frequency table is part of the key because it is a real input:
// spill choices, benefit splits, and the caller/callee decision all
// weight by it. Static frequencies are a pure function of the IR, so
// identical functions still collide (hit) across requests; profiled
// frequencies only collide when the profiles agree — which is exactly
// when reusing the result is sound.
//
// Every input is streamed into the hash self-delimited — counts before
// lists, lengths before strings — so no two input tuples share a byte
// stream.
func KeyFor(fn *ir.Func, ff *freq.FuncFreq, config machine.Config, strategy string, pipeline []string) (Key, error) {
	h := sha256.New()
	if err := ir.WriteCanonicalFunc(h, fn); err != nil {
		return Key{}, err
	}
	buf := make([]byte, 0, 64+8*len(ff.Block)+len(strategy)+16*len(pipeline))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(ff.Entry))
	buf = binary.AppendUvarint(buf, uint64(len(ff.Block)))
	for _, w := range ff.Block {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(w))
	}
	for c := 0; c < int(ir.NumClasses); c++ {
		buf = binary.AppendVarint(buf, int64(config.Caller[c]))
		buf = binary.AppendVarint(buf, int64(config.Callee[c]))
	}
	buf = appendString(buf, strategy)
	buf = binary.AppendUvarint(buf, uint64(len(pipeline)))
	for _, p := range pipeline {
		buf = appendString(buf, p)
	}
	h.Write(buf)
	var k Key
	h.Sum(k[:0])
	return k, nil
}

func appendString(buf []byte, s string) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(s))), s...)
}

// entry is one resident allocation.
type entry struct {
	key  Key
	plan *rewrite.FuncPlan
}

// call is one in-flight compute, shared by concurrent requests for the
// same key.
type call struct {
	done chan struct{}
	plan *rewrite.FuncPlan
	err  error
}

// Cache is the bounded LRU. Construct with New.
type Cache struct {
	mu       sync.Mutex
	max      int
	lru      *list.List // front = most recently used; values are *entry
	entries  map[Key]*list.Element
	inflight map[Key]*call
}

// New returns a cache bounded to max resident entries. max <= 0
// selects DefaultMaxEntries.
func New(max int) *Cache {
	if max <= 0 {
		max = DefaultMaxEntries
	}
	return &Cache{
		max:      max,
		lru:      list.New(),
		entries:  make(map[Key]*list.Element),
		inflight: make(map[Key]*call),
	}
}

// DefaultMaxEntries bounds the cache when the caller does not. Sized
// for a daemon: entries are finished per-function plans (IR clone +
// colors + save/restore tables). Measured on randprog.Corpus
// functions, a resident plan holds about 53 KiB of live heap, so a
// full cache holds about 200 MiB.
const DefaultMaxEntries = 4096

// Len returns the resident entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Get returns the cached plan for key, if resident, and marks it
// recently used.
func (c *Cache) Get(key Key) (*rewrite.FuncPlan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		return el.Value.(*entry).plan, true
	}
	return nil, false
}

// Do returns the plan for key, computing it with compute on a miss.
// Concurrent calls for the same key share one compute: one caller
// runs it, the rest wait for its result. A failed compute is not
// cached — waiting callers retry with their own compute, so a
// canceled leader does not poison its followers. hit reports whether
// this call avoided running a compute to completion for itself (a
// resident entry or a shared in-flight result).
func (c *Cache) Do(key Key, compute func() (*rewrite.FuncPlan, error)) (plan *rewrite.FuncPlan, hit bool, err error) {
	b := telemetry.B()
	for {
		c.mu.Lock()
		if el, ok := c.entries[key]; ok {
			c.lru.MoveToFront(el)
			plan = el.Value.(*entry).plan
			c.mu.Unlock()
			if b != nil {
				b.ResultHits.Inc()
			}
			return plan, true, nil
		}
		if cl, ok := c.inflight[key]; ok {
			c.mu.Unlock()
			<-cl.done
			if cl.err == nil {
				if b != nil {
					b.ResultHits.Inc()
				}
				return cl.plan, true, nil
			}
			// The leader failed (its request may just have been
			// canceled); take over with our own compute.
			continue
		}
		cl := &call{done: make(chan struct{})}
		c.inflight[key] = cl
		c.mu.Unlock()
		if b != nil {
			b.ResultMisses.Inc()
		}

		cl.plan, cl.err = compute()

		c.mu.Lock()
		delete(c.inflight, key)
		if cl.err == nil {
			c.insertLocked(key, cl.plan, b)
		}
		c.mu.Unlock()
		close(cl.done)
		return cl.plan, false, cl.err
	}
}

// insertLocked adds key → plan and evicts past the bound. Callers hold
// c.mu.
func (c *Cache) insertLocked(key Key, plan *rewrite.FuncPlan, b *telemetry.Builtin) {
	if el, ok := c.entries[key]; ok {
		// A racing leader for the same key landed first; refresh.
		c.lru.MoveToFront(el)
		el.Value.(*entry).plan = plan
		return
	}
	c.entries[key] = c.lru.PushFront(&entry{key: key, plan: plan})
	for c.lru.Len() > c.max {
		last := c.lru.Back()
		c.lru.Remove(last)
		delete(c.entries, last.Value.(*entry).key)
		if b != nil {
			b.ResultEvictions.Inc()
		}
	}
	if b != nil {
		b.ResultEntries.Set(int64(c.lru.Len()))
	}
}
