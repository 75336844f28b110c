package repro

import "repro/internal/syncdict"

// SynchronizedDictionary wraps a Dictionary with a sync.RWMutex so it
// can be shared between goroutines — the coarse-grained escape hatch
// for concurrent callers (for real multi-core scaling use ShardedMap).
// It forwards the capabilities of the structure it wraps: Delete,
// Stats, Transfers, and InsertBatch each reach the inner structure
// under the lock when it implements the corresponding interface, and
// degrade gracefully (false / zero / an insert loop) when it does not;
// CapsOf reports what is genuinely forwarded.
//
// The implementation lives in internal/syncdict so the kind registry
// can build it ("synchronized", optionally WithInner(kind)).
type SynchronizedDictionary = syncdict.Dict

// Synchronized wraps d for concurrent use. Equivalent to
// Build("synchronized", ...) with d as the inner structure, for callers
// that already hold one.
func Synchronized(d Dictionary) *SynchronizedDictionary {
	return syncdict.New(d)
}
