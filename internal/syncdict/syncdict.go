// Package syncdict provides the repository's one concurrency guard: a
// sync.RWMutex around a single-threaded dictionary. The facade
// re-exports it as repro.SynchronizedDictionary, the sharded map keeps
// one per partition, and the durable wrapper keeps one around its inner
// structure, so the lock discipline below is written down once. It
// lives in an internal package (rather than in the facade) so the kind
// registry can construct it like any other structure.
//
// # Lock discipline
//
// The guard maintains one invariant: the exclusive side of the
// RWMutex is held for every call that may mutate the inner structure
// non-atomically, and the read side serves everything that provably
// cannot. Concretely:
//
//   - Mutations (Insert, InsertBatch, Delete, WriteTo*, ReadFrom) always
//     take the exclusive lock. (*WriteTo mutates nothing logically, but
//     it streams DAM-charged reads and level state and is not part of
//     the shared-read contract, so it stays exclusive.)
//   - Aggregation (Len, Stats, Transfers) takes the read lock: every
//     inner accessor behind it is mutation-free — Len and Stats read
//     counters (structures implementing core.SharedReader keep their
//     search counter atomic precisely so Stats can race searches), and
//     Transfers only exists on inner structures that own their stores
//     and lock internally (the sharded map, the durable wrapper).
//   - Search and Range take the read lock when the inner structure
//     genuinely supports shared reads (core.AsSharedReader at
//     construction time), bracketed by Begin/EndSharedReads so a
//     DAM-charged inner freezes its accounting; they fall back to the
//     exclusive lock otherwise.
//
// # Hooks
//
// A wrapper built on the guard runs work of its own through two hooks:
// Update runs a function on the exclusive side (the durable wrapper's
// log-then-apply mutations, checkpoint, Sync and Close), View on the
// read side (monitoring reads of wrapper state). View opens no
// shared-read bracket, and its function must mutate nothing
// non-atomically; a method that reads through it carries
// //repro:readonly so reprolint checks exactly that. Every other
// wrapper operation forwards to the guard's own method.
//
// # Panics
//
// Every lock and bracket the guard takes is released by a deferred
// call, so a panic in the inner structure, a Range callback or a hook
// function unwinds with the lock free and the bracket closed. A spilled
// gcola panics on a read error and the durable wrapper on a failed log
// append; a caller that recovers either can keep using the dictionary.
package syncdict

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/core"
)

// Dict wraps a core.Dictionary with a sync.RWMutex so it can be shared
// between goroutines. The underlying structures are single-threaded by
// design (the paper's experiments are too); this wrapper is the
// coarse-grained escape hatch for concurrent callers.
//
// When the inner structure declares shared-read safety
// (core.SharedReader, honestly probed via core.AsSharedReader), Search
// and Range run under the read lock and scale with concurrent readers;
// a read-mostly workload then serializes only behind the occasional
// write section. For structures that stay exclusive (the deamortized
// COLAs, an accounted shuttle tree) every operation serializes as
// before. For multi-core write scaling
// use the sharded map (internal/shard), which hash-partitions keys over
// N independently locked structures.
//
// The wrapper forwards the capabilities of the structure it wraps:
// Delete reaches a wrapped core.Deleter, Stats a wrapped core.Statser,
// Transfers a wrapped core.TransferCounter, and InsertBatch a wrapped
// core.BatchInserter — each under the appropriate lock side, so a
// capability call is as safe as the core operations. Where the inner
// structure lacks the capability the method degrades gracefully (false,
// zero Stats, zero transfers, an Insert loop); Caps reports what is
// genuinely forwarded.
type Dict struct {
	mu sync.RWMutex
	d  core.Dictionary
	// sr is the shared-read bracket target; nil means the inner
	// structure did not (honestly) declare shared-read safety and reads
	// stay exclusive.
	sr core.SharedReader
}

// New wraps d for concurrent use, probing its shared-read capability
// once here (the answer is a property of the built instance and cannot
// change afterwards).
func New(d core.Dictionary) *Dict {
	s := &Dict{d: d}
	if sr, ok := core.AsSharedReader(d); ok {
		s.sr = sr
	}
	return s
}

var (
	_ core.Dictionary       = (*Dict)(nil)
	_ core.Deleter          = (*Dict)(nil)
	_ core.Statser          = (*Dict)(nil)
	_ core.TransferCounter  = (*Dict)(nil)
	_ core.BatchInserter    = (*Dict)(nil)
	_ core.Snapshotter      = (*Dict)(nil)
	_ core.SharedReader     = (*Dict)(nil)
	_ core.SharedReadProber = (*Dict)(nil)
	_ core.CapsProber       = (*Dict)(nil)
)

// Update runs fn on the exclusive side of the lock: the hook for a
// wrapper's own mutations around the inner structure. The lock is
// released even if fn panics.
func (s *Dict) Update(fn func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fn()
}

// View runs fn on the read side of the lock, alongside shared searches
// and the aggregation accessors. fn must mutate nothing non-atomically
// (see the package comment); the lock is released even if fn panics.
func (s *Dict) View(fn func()) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	fn()
}

// Insert implements core.Dictionary.
func (s *Dict) Insert(key, value uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.d.Insert(key, value)
}

// InsertBatch implements core.BatchInserter: the whole batch applies
// under one lock acquisition, forwarding to the inner structure's own
// batch path when it has one.
func (s *Dict) InsertBatch(elems []core.Element) {
	s.mu.Lock()
	defer s.mu.Unlock()
	core.InsertBatch(s.d, elems)
}

// Search implements core.Dictionary. With a shared-read-safe inner the
// lock is the RWMutex's read side and concurrent searches proceed in
// parallel, bracketed so DAM accounting freezes (see the package
// comment); otherwise the lock is exclusive, the pre-shared-read
// behaviour.
func (s *Dict) Search(key uint64) (uint64, bool) {
	if s.sr == nil {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.d.Search(key)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.sr.BeginSharedReads()
	defer s.sr.EndSharedReads()
	return s.d.Search(key)
}

// Range implements core.Dictionary, with the same lock choice as
// Search. The callback runs under the lock and must not call back into
// the dictionary at all — not even Search: a writer waiting between
// this goroutine's read lock and a reentrant RLock deadlocks both
// (sync.RWMutex forbids recursive read-locking for exactly that
// reason).
func (s *Dict) Range(lo, hi uint64, fn func(core.Element) bool) {
	if s.sr == nil {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.d.Range(lo, hi, fn)
		return
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.sr.BeginSharedReads()
	defer s.sr.EndSharedReads()
	s.d.Range(lo, hi, fn)
}

// Len implements core.Dictionary on the read side of the lock; inner
// Len accessors are mutation-free (see the package comment).
//
//repro:readonly
func (s *Dict) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.d.Len()
}

// Delete forwards to the wrapped structure's Deleter if it has one; it
// reports false otherwise.
func (s *Dict) Delete(key uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if del, ok := s.d.(core.Deleter); ok {
		return del.Delete(key)
	}
	return false
}

// Stats forwards to the wrapped structure's Statser on the read side of
// the lock (Stats accessors are mutation-free, and shared-read-safe
// structures load their search counter atomically, so Stats may race
// bracketed searches); it returns the zero Stats when the inner
// structure keeps no counters.
//
//repro:readonly
func (s *Dict) Stats() core.Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if st, ok := s.d.(core.Statser); ok {
		return st.Stats()
	}
	return core.Stats{}
}

// Transfers forwards to the wrapped structure's TransferCounter on the
// read side of the lock (only structures that own — and internally
// synchronize — their stores implement it); it reports zero when the
// inner structure does not own its stores.
//
//repro:readonly
func (s *Dict) Transfers() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if tc, ok := s.d.(core.TransferCounter); ok {
		return tc.Transfers()
	}
	return 0
}

// WriteTo forwards to the wrapped structure's Snapshotter under the
// lock; the payload is the inner structure's own (the wrapper adds no
// framing, so a snapshot of a synchronized dictionary and of its inner
// structure are interchangeable). It errors when the inner structure
// cannot snapshot itself.
func (s *Dict) WriteTo(w io.Writer) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sn, ok := s.d.(core.Snapshotter); ok {
		return sn.WriteTo(w)
	}
	return 0, fmt.Errorf("syncdict: wrapped %T is not a Snapshotter", s.d)
}

// ReadFrom forwards to the wrapped structure's Snapshotter under the
// lock; the wrapped structure must be empty.
func (s *Dict) ReadFrom(r io.Reader) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sn, ok := s.d.(core.Snapshotter); ok {
		return sn.ReadFrom(r)
	}
	return 0, fmt.Errorf("syncdict: wrapped %T is not a Snapshotter", s.d)
}

// SharedReads implements core.SharedReadProber: the wrapper's own
// methods exist unconditionally, so this — whether the inner structure
// genuinely declared shared-read safety — is the honest probe, and it
// is what an outer wrapper nesting this one consults.
func (s *Dict) SharedReads() bool { return s.sr != nil }

// BeginSharedReads implements core.SharedReader for outer wrappers
// nesting this one (brackets nest by design); a no-op when the inner
// structure is not shared-read safe.
func (s *Dict) BeginSharedReads() {
	if s.sr != nil {
		s.sr.BeginSharedReads()
	}
}

// EndSharedReads closes the bracket opened by BeginSharedReads.
func (s *Dict) EndSharedReads() {
	if s.sr != nil {
		s.sr.EndSharedReads()
	}
}

// Caps implements core.CapsProber: the wrapper implements every
// interface unconditionally, so type assertions on it always succeed
// and this is the honest capability probe, reporting what is genuinely
// forwarded to the inner structure. The sharded map and the durable
// wrapper start from this answer, so the wrappers report symmetrically.
// Batch is native regardless of the inner: the whole batch applies
// under one lock acquisition, the wrapper's own fast path.
func (s *Dict) Caps() core.Caps {
	c := core.CapsOf(s.d)
	c.Batch = true
	c.SharedReads = s.sr != nil
	return c
}

// Unwrap returns the underlying dictionary (for single-threaded phases).
func (s *Dict) Unwrap() core.Dictionary { return s.d }
