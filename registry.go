package repro

// The construction surface: one named-builder registry in front of
// every dictionary in the repository. Build("cola"), Build("btree"),
// Build("sharded", WithInner("btree")) … are the only constructors;
// Kinds and KindDoc/KindOptions let tools enumerate the lineup, and
// Register plugs external structures into the same machinery — the
// harness and cmd/streambench run over whatever is registered.

import (
	"repro/internal/core"
	"repro/internal/registry"
)

// Option is one entry of the unified functional-option set shared by
// every dictionary kind; see the With* constructors. Applying an option
// a kind does not accept makes Build fail with a descriptive error
// instead of silently ignoring it.
type Option = registry.Option

// BuildConfig is the validated option sheet a registered builder
// receives; external builders read it through its getter methods.
type BuildConfig = registry.Config

// KindInfo describes a registered dictionary kind: a one-line doc, the
// accepted option names, and the build function.
type KindInfo = registry.KindInfo

// Canonical option names, as listed in KindInfo.Options and accepted-
// option error messages. Each matches the facade constructor's name.
const (
	OptSpace           = registry.OptSpace
	OptGrowthFactor    = registry.OptGrowth
	OptPointerDensity  = registry.OptPointerDensity
	OptFanout          = registry.OptFanout
	OptEpsilon         = registry.OptEpsilon
	OptBlockBytes      = registry.OptBlockBytes
	OptLeafCapacity    = registry.OptLeafCapacity
	OptRelayoutEvery   = registry.OptRelayoutEvery
	OptShards          = registry.OptShards
	OptBatchSize       = registry.OptBatchSize
	OptShardDAM        = registry.OptShardDAM
	OptInner           = registry.OptInner
	OptDictionary      = registry.OptFactory
	OptWALPath         = registry.OptWALPath
	OptCheckpointEvery = registry.OptCheckpointEvery
	OptSpillDir        = registry.OptSpillDir
	OptSpillDepth      = registry.OptSpillDepth
	OptSpillCacheBytes = registry.OptSpillCacheBytes
)

// Build constructs the named dictionary kind from the unified option
// set:
//
//	d, err := repro.Build("gcola",
//	    repro.WithGrowthFactor(4),
//	    repro.WithSpace(store.Space("g4")),
//	)
//
// Unknown kinds, out-of-range option values, and options the kind does
// not accept return descriptive errors. The registered built-ins are
// "cola", "basic-cola", "gcola", "deamortized", "deamortized-la", "la",
// "shuttle", "cobtree", "btree", "brt", "swbst", "sharded",
// "synchronized", and "durable"; Kinds() reports the live set including
// anything added via Register.
func Build(kind string, opts ...Option) (Dictionary, error) {
	return registry.Build(kind, opts...)
}

// MustBuild is Build for static configurations known to be valid; it
// panics on error.
func MustBuild(kind string, opts ...Option) Dictionary {
	d, err := registry.Build(kind, opts...)
	if err != nil {
		panic(err)
	}
	return d
}

// Kinds returns the sorted names of every registered dictionary kind.
func Kinds() []string { return registry.Kinds() }

// KindDoc returns the one-line description of a registered kind ("" if
// unknown).
func KindDoc(kind string) string {
	info, ok := registry.Info(kind)
	if !ok {
		return ""
	}
	return info.Doc
}

// KindOptions returns the option names a registered kind accepts (nil
// if unknown), e.g. for printing an option matrix.
func KindOptions(kind string) []string {
	info, ok := registry.Info(kind)
	if !ok {
		return nil
	}
	return append([]string(nil), info.Options...)
}

// Caps is the unified capability sheet of a dictionary: snapshot, wal,
// delete, batch, stats, shared-reads. KindCaps reports a kind's static
// flags (for wrapper kinds a flag means the capability is forwarded
// when the inner kind has it); CapsOf answers for a built instance, and
// the two agree for every kind including nested wrappers.
type Caps = registry.Caps

// KindCaps returns a registered kind's capability flags (the zero Caps
// if unknown).
func KindCaps(kind string) Caps {
	info, ok := registry.Info(kind)
	if !ok {
		return Caps{}
	}
	return info.Caps
}

// Register adds an external dictionary kind to the registry, making it
// buildable via Build and visible to every registry-driven tool (the
// harness lineup flags, the conformance suite). The build function
// receives the validated BuildConfig; options outside info.Options are
// rejected before it runs.
//
//	repro.Register("skiplist", repro.KindInfo{
//	    Doc:     "lock-free skip list (external)",
//	    Options: []string{repro.OptSpace},
//	    New: func(c *repro.BuildConfig) (repro.Dictionary, error) {
//	        return newSkipList(c.Space()), nil
//	    },
//	})
func Register(kind string, info KindInfo) error {
	return registry.Register(kind, info)
}

// InsertBatch inserts every element of the slice into d, using the
// structure's native BatchInserter fast path when it has one (the COLA
// family bulk-loads an empty structure; the sharded map groups the
// batch per shard and takes each shard lock once) and a plain Insert
// loop otherwise.
func InsertBatch(d Dictionary, elems []Element) { core.InsertBatch(d, elems) }

// BatchInserter is implemented by dictionaries with a native batch
// ingestion path; see InsertBatch.
type BatchInserter = core.BatchInserter

// TransferCounter is implemented by dictionaries that own their DAM
// store(s) and report aggregate block transfers directly (e.g. a
// ShardedMap built with WithShardDAM, or a SynchronizedDictionary
// wrapping one).
type TransferCounter = core.TransferCounter

// ActualTransferCounter is implemented by dictionaries backed by a real
// block store — a "gcola" built with WithSpillDir — and reports the
// chunk reads and writes that actually hit the spill files, the
// measured side of the DAM model's predicted-vs-actual comparison.
type ActualTransferCounter = core.ActualTransferCounter
