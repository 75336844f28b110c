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
// It is the repository's one concurrency guard: the sharded map and the
// durable wrapper lock through it too. Two hooks serve a wrapper's own
// work under the lock: Update runs a function on the exclusive side,
// View on the read side (the function must then mutate nothing). Every
// lock and shared-read bracket is released by a deferred call, so a
// panic in the inner structure, a Range callback or a hook function
// leaves the dictionary unlocked for a caller that recovers it.
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
