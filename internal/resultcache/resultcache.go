// Package resultcache is the content-addressed allocation result
// cache behind the allocation service (internal/server).
//
// The paper's allocator is a pure function of its inputs: one function
// of IR, a frequency table, a machine configuration, a strategy, and
// the pass pipeline the strategy resolves to. That makes every
// completed allocation a content-addressable unit of work — the cache
// key is a stable hash of exactly those inputs (KeyFor), and the value
// is whatever finished, immutable form of the allocation the caller
// keeps. The daemon keeps each function's rendered response fragment
// (its per-function result, assembly text and analytic overhead), so a
// hit is a lookup and a concatenation, not a re-render. Identical
// functions across requests — the same helper compiled into many
// programs, repeat traffic against the daemon — are served without
// re-coloring.
//
// A key is derived in two steps: FuncDigest hashes the request-
// independent inputs (the canonical IR and the frequency table), and
// KeyFrom hashes that digest with the configuration, strategy and
// pipeline. A caller that remembers a program's digests (the daemon's
// program memo) can key a repeat request without rebuilding its IR.
//
// This is a different layer than pipeline.FuncCache: FuncCache shares
// round-0 *analysis* artifacts between allocations of one in-process
// Program; resultcache shares *results* across requests, keyed by
// content rather than object identity, so it survives program
// boundaries and serves a long-lived daemon.
//
// LRU is a bounded least-recently-used map with in-flight
// deduplication, generic over the value type: concurrent requests for
// the same key run one compute and share its result. A compute that
// fails is not cached; one that panics is not cached either, and every
// follower waiting on it gets the panic as an error (*par.PanicError)
// instead of running the same compute again. A follower waits only as
// long as its own context allows. Cache is the LRU over
// rewrite.FuncPlan, for in-process callers that keep plans. Telemetry
// goes to the CacheMeters each cache is built with; every method is
// safe for concurrent use.
package resultcache

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/freq"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/par"
	"repro/internal/rewrite"
	"repro/internal/telemetry"
)

// Key is the content address of one allocation: a SHA-256 over the
// function's Digest, the machine configuration, the strategy name, and
// the resolved pass pipeline.
type Key [sha256.Size]byte

// String renders the key in short hex form for logs.
func (k Key) String() string { return fmt.Sprintf("%x", k[:8]) }

// Digest is a SHA-256 over the canonical binary form of a function
// (ir.WriteCanonicalFunc) and its frequency table: the inputs of an
// allocation that do not depend on the request's settings.
type Digest [sha256.Size]byte

// KeyFor derives the content address of allocating fn under ff,
// config, and the named strategy with the given resolved pipeline pass
// names. It is KeyFrom over FuncDigest.
//
// The frequency table is part of the key because it is a real input:
// spill choices, benefit splits, and the caller/callee decision all
// weight by it. Static frequencies are a pure function of the IR, so
// identical functions still collide (hit) across requests; profiled
// frequencies only collide when the profiles agree — which is exactly
// when reusing the result is sound.
func KeyFor(fn *ir.Func, ff *freq.FuncFreq, config machine.Config, strategy string, pipeline []string) (Key, error) {
	d, err := FuncDigest(fn, ff)
	if err != nil {
		return Key{}, err
	}
	return KeyFrom(d, config, strategy, pipeline), nil
}

// FuncDigest hashes fn's canonical form and its frequency table. Every
// input is streamed into the hash self-delimited — counts before
// lists, lengths before strings — so no two input tuples share a byte
// stream.
func FuncDigest(fn *ir.Func, ff *freq.FuncFreq) (Digest, error) {
	h := sha256.New()
	if err := ir.WriteCanonicalFunc(h, fn); err != nil {
		return Digest{}, err
	}
	buf := make([]byte, 0, 16+8*len(ff.Block))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(ff.Entry))
	buf = binary.AppendUvarint(buf, uint64(len(ff.Block)))
	for _, w := range ff.Block {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(w))
	}
	h.Write(buf)
	var d Digest
	h.Sum(d[:0])
	return d, nil
}

// KeyFrom derives the content address of allocating the function whose
// digest is d under config, strategy and pipeline, self-delimited as
// FuncDigest's inputs are.
func KeyFrom(d Digest, config machine.Config, strategy string, pipeline []string) Key {
	buf := make([]byte, 0, len(d)+32+len(strategy)+16*len(pipeline))
	buf = append(buf, d[:]...)
	for c := 0; c < int(ir.NumClasses); c++ {
		buf = binary.AppendVarint(buf, int64(config.Caller[c]))
		buf = binary.AppendVarint(buf, int64(config.Callee[c]))
	}
	buf = appendString(buf, strategy)
	buf = binary.AppendUvarint(buf, uint64(len(pipeline)))
	for _, p := range pipeline {
		buf = appendString(buf, p)
	}
	return sha256.Sum256(buf)
}

func appendString(buf []byte, s string) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(s))), s...)
}

// Meters picks, from the enabled telemetry bundle, the instruments one
// cache feeds.
type Meters func(b *telemetry.Builtin) *telemetry.CacheMeters

// ResultMeters feeds the per-function result_cache_* instruments.
func ResultMeters(b *telemetry.Builtin) *telemetry.CacheMeters { return &b.Results }

// MemoMeters feeds the program memo's result_memo_* instruments.
func MemoMeters(b *telemetry.Builtin) *telemetry.CacheMeters { return &b.Memo }

// entry is one resident value.
type entry[V any] struct {
	key  Key
	val  V
	size int64
}

// call is one in-flight compute, shared by concurrent requests for the
// same key.
type call[V any] struct {
	done    chan struct{}
	val     V
	err     error
	waiters int // followers blocked on done; guarded by the LRU's mu
}

// LRU is a bounded least-recently-used cache with in-flight
// deduplication. Construct with NewLRU.
type LRU[V any] struct {
	mu       sync.Mutex
	max      int
	meters   Meters
	size     func(V) int64 // nil: bytes are not tracked
	bytes    int64
	lru      *list.List // front = most recently used; values are *entry[V]
	entries  map[Key]*list.Element
	inflight map[Key]*call[V]
}

// NewLRU returns a cache bounded to max resident entries (max <= 0
// selects DefaultMaxEntries) that feeds meters. size, when non-nil,
// reports a value's resident bytes, which the cache sums into its
// meters' Bytes gauge.
func NewLRU[V any](max int, meters Meters, size func(V) int64) *LRU[V] {
	if max <= 0 {
		max = DefaultMaxEntries
	}
	return &LRU[V]{
		max:      max,
		meters:   meters,
		size:     size,
		lru:      list.New(),
		entries:  make(map[Key]*list.Element),
		inflight: make(map[Key]*call[V]),
	}
}

// Cache is the LRU over finished per-function plans.
type Cache = LRU[*rewrite.FuncPlan]

// New returns a plan cache bounded to max resident entries. max <= 0
// selects DefaultMaxEntries. It feeds the result_cache_* instruments.
func New(max int) *Cache {
	return NewLRU[*rewrite.FuncPlan](max, ResultMeters, nil)
}

// DefaultMaxEntries bounds a cache when the caller does not. Sized for
// the daemon, whose entries are rendered per-function fragments:
// measured on the 4,340 functions of randprog.Corpus(1000, 700), a
// resident fragment holds about 12 KiB of live heap (9.5 KiB of it
// counted in result_cache_bytes, most of it assembly text), so a full
// cache holds about 48 MiB. A cached plan, which keeps the rewritten
// IR body, held about 53 KiB on the same corpus.
const DefaultMaxEntries = 4096

// m returns the instruments to feed; with telemetry off every handle
// is nil, and a nil handle is a no-op.
func (c *LRU[V]) m() telemetry.CacheMeters {
	if b := telemetry.B(); b != nil && c.meters != nil {
		return *c.meters(b)
	}
	return telemetry.CacheMeters{}
}

// Len returns the resident entry count.
func (c *LRU[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Get returns the cached value for key, if resident, and marks it
// recently used. It counts neither a hit nor a miss.
func (c *LRU[V]) Get(key Key) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		return el.Value.(*entry[V]).val, true
	}
	var zero V
	return zero, false
}

// Put stores key → v as the most recently used entry.
func (c *LRU[V]) Put(key Key, v V) {
	m := c.m()
	c.mu.Lock()
	c.insertLocked(key, v, m)
	c.mu.Unlock()
}

// Do is DoContext with no deadline of its own.
func (c *LRU[V]) Do(key Key, compute func() (V, error)) (v V, hit bool, err error) {
	return c.DoContext(context.Background(), key, compute)
}

// DoContext returns the value for key, computing it with compute on a
// miss. Concurrent calls for the same key share one compute: one caller
// runs it, the rest wait for its result or for their own ctx to end,
// whichever comes first. A failed compute is not cached — waiting
// callers retry with their own compute, so a canceled leader does not
// poison its followers — except that a compute that panics releases
// every waiting caller with the panic as a *par.PanicError. hit
// reports whether this call avoided running a compute to completion
// for itself (a resident entry or a shared in-flight result).
func (c *LRU[V]) DoContext(ctx context.Context, key Key, compute func() (V, error)) (v V, hit bool, err error) {
	m := c.m()
	for {
		c.mu.Lock()
		if el, ok := c.entries[key]; ok {
			c.lru.MoveToFront(el)
			v = el.Value.(*entry[V]).val
			c.mu.Unlock()
			m.Hits.Inc()
			return v, true, nil
		}
		if cl, ok := c.inflight[key]; ok {
			cl.waiters++
			c.mu.Unlock()
			select {
			case <-cl.done:
			case <-ctx.Done():
				return v, false, ctx.Err()
			}
			var pe *par.PanicError
			switch {
			case cl.err == nil:
				m.Hits.Inc()
				return cl.val, true, nil
			case errors.As(cl.err, &pe):
				return v, false, cl.err
			}
			// The leader failed (its request may just have been
			// canceled); take over with our own compute.
			continue
		}
		cl := &call[V]{done: make(chan struct{})}
		c.inflight[key] = cl
		c.mu.Unlock()
		m.Misses.Inc()

		cl.err = par.Catch(func() (err error) {
			cl.val, err = compute()
			return err
		})

		c.mu.Lock()
		delete(c.inflight, key)
		if cl.err == nil {
			c.insertLocked(key, cl.val, m)
		}
		c.mu.Unlock()
		close(cl.done)
		return cl.val, false, cl.err
	}
}

// insertLocked adds key → v and evicts past the bound. Callers hold
// c.mu.
func (c *LRU[V]) insertLocked(key Key, v V, m telemetry.CacheMeters) {
	var size int64
	if c.size != nil {
		size = c.size(v)
	}
	if el, ok := c.entries[key]; ok {
		// A racing leader for the same key landed first; refresh.
		c.lru.MoveToFront(el)
		e := el.Value.(*entry[V])
		c.bytes += size - e.size
		e.val, e.size = v, size
	} else {
		c.entries[key] = c.lru.PushFront(&entry[V]{key: key, val: v, size: size})
		c.bytes += size
	}
	for c.lru.Len() > c.max {
		last := c.lru.Back()
		c.lru.Remove(last)
		e := last.Value.(*entry[V])
		delete(c.entries, e.key)
		c.bytes -= e.size
		m.Evictions.Inc()
	}
	m.Entries.Set(int64(c.lru.Len()))
	if c.size != nil {
		m.Bytes.Set(c.bytes)
	}
}
