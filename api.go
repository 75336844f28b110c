// Package repro is a from-scratch Go implementation of "Cache-Oblivious
// Streaming B-trees" (Bender, Farach-Colton, Fineman, Fogel, Kuszmaul,
// Nelson — SPAA 2007): the cache-oblivious lookahead array (COLA) family,
// the shuttle tree, and the baselines the paper compares against, all
// instrumented for the Disk Access Machine cost model.
//
// This file is the public facade: it re-exports the element format, the
// dictionary interfaces, and the concrete type of every structure, so a
// downstream user needs only this package.
//
//	store := repro.NewStore(4096, 64<<20)            // B = 4 KiB, M = 64 MiB
//	d, err := repro.Build("cola",                    // any registered kind
//	    repro.WithSpace(store.Space("cola")))
//	if err != nil { ... }
//	d.Insert(42, 1)
//	v, ok := d.Search(42)
//	fmt.Println(v, ok, store.Transfers())
//
// Build (registry.go) is the construction surface: one named-builder
// registry over every structure, a unified option set (options.go), and
// Kinds/Register for enumeration and external kinds. The type aliases
// below name what each kind builds, for callers that assert a concrete
// type.
//
// Leave WithSpace out (or pass a nil space) to disable cost accounting
// and benchmark pure wall-clock behaviour.
package repro

import (
	"repro/internal/brt"
	"repro/internal/btree"
	"repro/internal/cola"
	"repro/internal/core"
	"repro/internal/dam"
	"repro/internal/la"
	"repro/internal/shard"
	"repro/internal/shuttle"
	"repro/internal/swbst"
)

// Element is a 64-bit key/value pair (padded to 32 bytes in the cost
// model, matching the paper's experiments).
type Element = core.Element

// ElementBytes is the padded element size charged by the DAM model.
const ElementBytes = core.ElementBytes

// Dictionary is the interface implemented by every structure here.
type Dictionary = core.Dictionary

// Deleter is implemented by the structures supporting deletion (the
// COLA family via tombstones, the B-tree and BRT natively).
type Deleter = core.Deleter

// Stats carries per-structure operation counters.
type Stats = core.Stats

// Statser exposes Stats.
type Statser = core.Statser

// SharedReader is implemented by dictionaries whose Search/Range are
// safe for concurrent use inside Begin/EndSharedReads brackets with
// mutations excluded; the concurrency wrappers (sharded, synchronized,
// durable) consult it to serve reads under their RWMutex's read side.
// Probe with CapsOf(d).SharedReads, not a type assertion: wrappers and
// conditionally-safe structures implement the interface unconditionally
// and answer honestly through the probe.
type SharedReader = core.SharedReader

// CapsOf reports the capability sheet of a built dictionary — the one
// public capability probe, replacing scattered type assertions and the
// wrappers' former 5-value Supports methods. Wrappers answer for the
// structure they actually wrap: a sharded map around a B-tree reports
// no batch-native inner path beyond its own, a durable wrapper reports
// WAL but never Snapshot, and SharedReads reflects the concrete inner.
func CapsOf(d Dictionary) Caps { return core.CapsOf(d) }

// Store simulates a two-level DAM memory (block size B, cache size M)
// and counts block transfers.
type Store = dam.Store

// Space is a disjoint region of a Store's address space; structures
// charge their memory traffic to one.
type Space = dam.Space

// NewStore creates a DAM-model memory with the given block and cache
// sizes in bytes.
func NewStore(blockBytes, cacheBytes int64) *Store {
	return dam.NewStore(blockBytes, cacheBytes)
}

// DefaultBlockBytes is the paper's 4 KiB block size.
const DefaultBlockBytes = dam.DefaultBlockBytes

// COLA is the growth-factor-parametrized lookahead array (Section 3/4 of
// the paper); g = 2 is the cache-oblivious COLA.
type COLA = cola.GCOLA

// DefaultPointerDensity is the paper's experimental pointer density.
const DefaultPointerDensity = cola.DefaultPointerDensity

// DeamortizedCOLA is the basic deamortized COLA of Theorem 22: O(log N)
// worst-case moves per insert.
type DeamortizedCOLA = cola.Deamortized

// DeamortizedLookaheadCOLA is the fully deamortized COLA of Theorem 24
// (shadow/visible arrays, lookahead pointers).
type DeamortizedLookaheadCOLA = cola.DeamortizedLookahead

// ShuttleTree is the paper's main theoretical structure (Section 2).
// Build("cobtree") builds one with buffering disabled: the
// cache-oblivious B-tree baseline.
type ShuttleTree = shuttle.Tree

// BTree is the B+-tree baseline of the paper's Section 4 experiments.
type BTree = btree.Tree

// BRT is the buffered repository tree, the cache-aware write-optimized
// comparator referenced throughout the paper.
type BRT = brt.Tree

// LookaheadArray is the cache-aware lookahead array with growth factor
// B^epsilon, matching the Be-tree tradeoff.
type LookaheadArray = la.Array

// SWBST is the strongly weight-balanced search tree substrate (the
// shuttle tree's skeleton), exposed for direct use.
type SWBST = swbst.Tree

// ShardedMap is the hash-partitioned concurrent dictionary: N
// single-threaded structures behind per-shard locks, so operations on
// different shards run in parallel and a merge in one shard never
// blocks the others. It implements Dictionary, Deleter, and Statser.
type ShardedMap = shard.Map

// ShardFactory builds the dictionary for one shard; the space is the
// shard's private DAM space (nil when accounting is disabled). Used
// with WithDictionary for structures outside the registry; prefer
// WithInner(kind) for registered ones.
type ShardFactory = shard.Factory

// ShardLoader is the channel-fed asynchronous ingestion path of a
// ShardedMap; see ShardedMap.NewLoader.
type ShardLoader = shard.Loader
