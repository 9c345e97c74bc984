// Package bitset provides a dense bit set used by the dataflow and
// interference-graph code, where sets of virtual registers are unioned
// and intersected millions of times per compilation.
package bitset

import "math/bits"

// Set is a fixed-capacity bit set. The zero value is an empty set of
// capacity 0; use New to size it.
type Set struct {
	words []uint64
	n     int
}

// New returns an empty set able to hold values in [0, n).
func New(n int) *Set {
	return &Set{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the capacity of the set.
func (s *Set) Len() int { return s.n }

// Add inserts i.
func (s *Set) Add(i int) { s.words[i>>6] |= 1 << (uint(i) & 63) }

// Remove deletes i.
func (s *Set) Remove(i int) { s.words[i>>6] &^= 1 << (uint(i) & 63) }

// Has reports whether i is in the set.
func (s *Set) Has(i int) bool { return s.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// Clear empties the set.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Copy replaces the contents of s with those of t (same capacity).
func (s *Set) Copy(t *Set) { copy(s.words, t.words) }

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words)), n: s.n}
	copy(c.words, s.words)
	return c
}

// UnionWith adds every element of t to s and reports whether s changed.
func (s *Set) UnionWith(t *Set) bool {
	changed := false
	for i, w := range t.words {
		nw := s.words[i] | w
		if nw != s.words[i] {
			s.words[i] = nw
			changed = true
		}
	}
	return changed
}

// DiffWith removes every element of t from s.
func (s *Set) DiffWith(t *Set) {
	for i, w := range t.words {
		s.words[i] &^= w
	}
}

// Count returns the number of elements.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// ForEach calls f for every element in increasing order.
func (s *Set) ForEach(f func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			f(wi<<6 + b)
			w &= w - 1
		}
	}
}

// Triangular is a bit matrix over unordered pairs {a, b} of values in
// [0, n), a ≠ b — the membership half of Chaitin's dual interference
// representation. Storage is the strict lower triangle, packed row by
// row: pair {a, b} with a > b lives at bit a*(a-1)/2 + b, so the whole
// matrix costs n*(n-1)/2 bits.
type Triangular struct {
	words []uint64
	n     int
}

// NewTriangular returns an empty pair matrix over [0, n).
func NewTriangular(n int) *Triangular {
	return &Triangular{words: make([]uint64, (pairIndex(n, 0)+63)/64), n: n}
}

// pairIndex maps the unordered pair {a, b}, a > b, to its bit index.
func pairIndex(a, b int) int { return a*(a-1)/2 + b }

func order(a, b int) (int, int) {
	if a < b {
		return b, a
	}
	return a, b
}

// Len returns the capacity of the matrix.
func (t *Triangular) Len() int { return t.n }

// Set inserts the pair {a, b}. Setting a == b is a no-op.
func (t *Triangular) Set(a, b int) {
	if a == b {
		return
	}
	hi, lo := order(a, b)
	i := pairIndex(hi, lo)
	t.words[i>>6] |= 1 << (uint(i) & 63)
}

// Unset removes the pair {a, b}.
func (t *Triangular) Unset(a, b int) {
	if a == b {
		return
	}
	hi, lo := order(a, b)
	i := pairIndex(hi, lo)
	t.words[i>>6] &^= 1 << (uint(i) & 63)
}

// Has reports whether the pair {a, b} is present. Has(a, a) is false.
func (t *Triangular) Has(a, b int) bool {
	if a == b {
		return false
	}
	hi, lo := order(a, b)
	i := pairIndex(hi, lo)
	return t.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Clone returns an independent copy of t.
func (t *Triangular) Clone() *Triangular {
	c := &Triangular{words: make([]uint64, len(t.words)), n: t.n}
	copy(c.words, t.words)
	return c
}

// Equal reports whether s and t contain the same elements.
func (s *Set) Equal(t *Set) bool {
	if len(s.words) != len(t.words) {
		return false
	}
	for i, w := range s.words {
		if w != t.words[i] {
			return false
		}
	}
	return true
}
