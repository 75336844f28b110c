// Package rlockpure exercises the mutation-free-accessor analyzer:
// no non-atomic receiver mutation under RLock, inside shared-read
// epochs, or in //repro:readonly methods.
package rlockpure

import (
	"sync"
	"sync/atomic"
)

type dict struct {
	mu    sync.RWMutex
	m     map[uint64]uint64
	hits  int64
	gen   uint64
	inner *dict
}

func (d *dict) bump() { d.hits++ }

func (d *dict) size() int { return len(d.m) }

// getClean reads under RLock without mutating: clean.
func (d *dict) getClean(k uint64) (uint64, bool) {
	d.mu.RLock()
	v, ok := d.m[k]
	d.mu.RUnlock()
	return v, ok
}

// getCounted bumps a plain counter under RLock: two findings, the
// direct field write and the call to a known-mutating method.
func (d *dict) getCounted(k uint64) (uint64, bool) {
	d.mu.RLock()
	d.hits++ // want `receiver field d\.hits mutated non-atomically in shared-read region`
	d.bump() // want `call to mutating method d\.bump in shared-read region`
	v, ok := d.m[k]
	d.mu.RUnlock()
	return v, ok
}

// getAtomic bumps through sync/atomic: mutation is atomic, clean.
func (d *dict) getAtomic(k uint64) (uint64, bool) {
	d.mu.RLock()
	atomic.AddInt64(&d.hits, 1)
	v, ok := d.m[k]
	d.mu.RUnlock()
	return v, ok
}

// getDeferred shows the deferred-closer region reaching the end of the
// function, and a map write inside it.
func (d *dict) getDeferred(k uint64) uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	d.m[k] = d.m[k] + 1 // want `receiver field d\.m\[k\] written non-atomically in shared-read region`
	return d.m[k]
}

// writeLocked mutates under the write lock: out of scope, clean.
func (d *dict) writeLocked(k, v uint64) {
	d.mu.Lock()
	d.m[k] = v
	d.gen++
	d.mu.Unlock()
}

// epoch shows the Begin/EndSharedReads bracket forming a region.
func (d *dict) epoch() int {
	d.inner.BeginSharedReads()
	n := d.inner.size()
	d.gen++ // want `receiver field d\.gen mutated non-atomically in shared-read region`
	d.inner.EndSharedReads()
	return n
}

func (d *dict) BeginSharedReads() { d.mu.RLock() }
func (d *dict) EndSharedReads()   { d.mu.RUnlock() }

// Len is declared read-only, so its whole body is checked even though
// it takes no lock at all.
//
//repro:readonly
func (d *dict) Len() int {
	d.hits++ // want `receiver field d\.hits mutated non-atomically in //repro:readonly method Len`
	return len(d.m)
}

// Stats is read-only and behaves: clean.
//
//repro:readonly
func (d *dict) Stats() (int64, uint64) {
	return atomic.LoadInt64(&d.hits), d.gen
}

// waived documents a deliberate exception with a reason.
func (d *dict) waived(k uint64) uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	//repro:allow rlockpure single-writer phase, promoted before concurrent readers exist
	d.hits++
	return d.m[k]
}

// eitherLock takes the read or the write side of the lock. On the read
// path its write races other readers, so the write is flagged even
// though no syntactic RLock...RUnlock pair encloses it.
func (d *dict) eitherLock(fast bool) {
	if fast {
		d.mu.RLock()
	} else {
		d.mu.Lock()
	}
	d.gen++ // want `receiver field d\.gen mutated non-atomically in shared-read region \(d\.mu held\)`
	if fast {
		d.mu.RUnlock()
	} else {
		d.mu.Unlock()
	}
}

// earlyOut releases inside a nested block before its early return, and
// again on the fall-through path: both writes follow a release. Clean.
func (d *dict) earlyOut(k uint64) uint64 {
	d.mu.RLock()
	if d.m == nil {
		d.mu.RUnlock()
		d.gen++
		return 0
	}
	v := d.m[k]
	d.mu.RUnlock()
	d.gen++
	return v
}

// Gen is read-only and read-locked: its write breaks both rules but is
// one finding.
//
//repro:readonly
func (d *dict) Gen() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	d.gen++ // want `receiver field d\.gen mutated non-atomically in //repro:readonly method Gen`
	return d.gen
}
