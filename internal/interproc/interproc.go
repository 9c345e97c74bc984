// Package interproc holds the interprocedural callee-save summaries the
// whole-program batch driver threads between functions.
//
// The paper's cost model (§4) is intraprocedural: every call site
// charges caller_save_cost = 2·freq per crossing live range, the static
// estimate for what the callee *might* clobber. After a callee has been
// allocated we know better: the set of caller-save physical registers
// it actually writes — directly, through its parameter marshaling, or
// transitively through its own calls. A caller-save register outside
// that set survives the call untouched, so a live range assigned to it
// needs no save/restore at the site.
//
// A Summary records exactly that clobber set per register bank. The
// Table is the concurrent map the batch driver publishes summaries
// into as components of the call graph finish, and the cost model and
// save/restore placement read from. Lookups for functions without a
// summary (external callees, members of the same recursive component,
// or a disabled table) fall back to the paper's static behavior:
// everything caller-save is assumed clobbered.
package interproc

import (
	"sync"

	"repro/internal/ir"
	"repro/internal/machine"
)

// RegSet is a small set of physical registers of one bank. The machine
// model tops out at 26 registers per bank, so one word suffices.
type RegSet uint64

// Add inserts r.
func (s *RegSet) Add(r machine.PhysReg) { *s |= 1 << uint(r) }

// Has reports whether r is in the set.
func (s RegSet) Has(r machine.PhysReg) bool { return s&(1<<uint(r)) != 0 }

// Union returns s ∪ o.
func (s RegSet) Union(o RegSet) RegSet { return s | o }

// Count returns the cardinality.
func (s RegSet) Count() int {
	n := 0
	for s != 0 {
		s &= s - 1
		n++
	}
	return n
}

// CallerSaveSet returns the full caller-save register set of bank c
// under config — the static-estimate fallback for unknown callees.
func CallerSaveSet(config machine.Config, c ir.Class) RegSet {
	var s RegSet
	for r := 0; r < config.Caller[c]; r++ {
		s.Add(machine.PhysReg(r))
	}
	return s
}

// Summary is the allocation-derived interprocedural fact sheet of one
// function.
type Summary struct {
	// Clobbered[c] is the set of caller-save physical registers of
	// bank c the function writes, transitively: registers colored to
	// its own occurring virtual registers, its parameter registers
	// (written by the caller's argument marshaling), and the clobber
	// sets of everything it calls. A call to a function without a
	// summary contributes the full caller-save set.
	Clobbered [ir.NumClasses]RegSet
}

// Table is the concurrent summary store of one whole-program batch
// run. The zero Table is not usable; construct with NewTable. A nil
// *Table is valid everywhere and means "interprocedural costs off":
// every lookup reports the static estimate.
type Table struct {
	config machine.Config

	mu sync.RWMutex
	m  map[string]*Summary
}

// NewTable returns an empty summary table for the given machine
// configuration.
func NewTable(config machine.Config) *Table {
	return &Table{config: config, m: make(map[string]*Summary)}
}

// Publish records the summary of the named function. Publishing is
// write-once per function; the batch driver publishes a component's
// summaries only after every member is allocated.
func (t *Table) Publish(name string, s *Summary) {
	t.mu.Lock()
	t.m[name] = s
	t.mu.Unlock()
}

// Lookup returns the summary of the named function, or nil when none
// has been published (or the table is nil).
func (t *Table) Lookup(name string) *Summary {
	if t == nil {
		return nil
	}
	t.mu.RLock()
	s := t.m[name]
	t.mu.RUnlock()
	return s
}

// Len returns the number of published summaries.
func (t *Table) Len() int {
	if t == nil {
		return 0
	}
	t.mu.RLock()
	n := len(t.m)
	t.mu.RUnlock()
	return n
}

// Clobbered returns the clobber set a call to the named function
// implies for bank c: the summary's set when one exists, the full
// caller-save set otherwise.
func (t *Table) Clobbered(callee string, c ir.Class) RegSet {
	if s := t.Lookup(callee); s != nil {
		return s.Clobbered[c]
	}
	var cfg machine.Config
	if t != nil {
		cfg = t.config
	} else {
		cfg = machine.Full
	}
	return CallerSaveSet(cfg, c)
}

// Clobbers reports whether a call to the named function may write
// caller-save register r of bank c. Without a summary the answer is
// always true (the static estimate).
func (t *Table) Clobbers(callee string, c ir.Class, r machine.PhysReg) bool {
	if s := t.Lookup(callee); s != nil {
		return s.Clobbered[c].Has(r)
	}
	return true
}

// CrossFactor returns the per-crossing cost multiplier for a call to
// the named function, for a live range of bank c. The paper's static
// estimate is 2 (one save + one restore per crossing). With a summary,
// the factor scales by the fraction of the bank's caller-save file the
// callee actually clobbers — 0 when the callee provably preserves the
// whole bank, in which case the site does not count as a crossing at
// all for ranges of that bank.
func (t *Table) CrossFactor(callee string, c ir.Class) float64 {
	if t == nil {
		return 2
	}
	s := t.Lookup(callee)
	if s == nil {
		return 2
	}
	total := t.config.Caller[c]
	if total == 0 {
		return 0
	}
	return 2 * float64(s.Clobbered[c].Count()) / float64(total)
}
