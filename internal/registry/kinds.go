package registry

// Built-in kind registrations: every dictionary in the repository,
// constructed from the unified Config with per-kind validation. The
// option matrix here is the authoritative one (DESIGN.md's table is
// generated from the same lists).

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"strings"

	"repro/internal/brt"
	"repro/internal/btree"
	"repro/internal/cola"
	"repro/internal/core"
	"repro/internal/dam"
	"repro/internal/durable"
	"repro/internal/la"
	"repro/internal/shard"
	"repro/internal/shuttle"
	"repro/internal/snap"
	"repro/internal/swbst"
	"repro/internal/syncdict"
	"repro/internal/wal"
)

func init() {
	mustRegister("cola", KindInfo{
		Doc:     "cache-oblivious lookahead array (g = 2, paper's pointer density): the headline write-optimized structure",
		Options: []string{OptSpace},
		Caps:    Caps{Snapshot: true, Delete: true, Batch: true, Stats: true, SharedReads: true},
		New: func(c *Config) (core.Dictionary, error) {
			return cola.NewCOLA(c.Space()), nil
		},
	})
	mustRegister("basic-cola", KindInfo{
		Doc:     "pointerless basic COLA: O(log^2 N) searches, the paper's simplest variant",
		Options: []string{OptSpace},
		Caps:    Caps{Snapshot: true, Delete: true, Batch: true, Stats: true, SharedReads: true},
		New: func(c *Config) (core.Dictionary, error) {
			return cola.NewBasic(c.Space()), nil
		},
	})
	mustRegister("gcola", KindInfo{
		Doc:     "growth-factor-g lookahead array with tunable pointer density (the paper's g-COLA); WithSpillDir runs its cold levels out of core",
		Options: []string{OptSpace, OptGrowth, OptPointerDensity, OptSpillDir, OptSpillDepth, OptSpillCacheBytes},
		Caps:    Caps{Snapshot: true, Delete: true, Batch: true, Stats: true, SharedReads: true},
		New: func(c *Config) (core.Dictionary, error) {
			opt := cola.Options{
				Growth:         c.GrowthFactor(2),
				PointerDensity: c.PointerDensity(cola.DefaultPointerDensity),
				Space:          c.Space(),
			}
			if dir, ok := c.SpillDir(); ok {
				opt.SpillDir = dir
				opt.SpillDepth = c.SpillDepth(0)
				opt.SpillCacheBytes = c.SpillCacheBytes(0)
			} else if c.IsSet(OptSpillDepth) || c.IsSet(OptSpillCacheBytes) {
				return nil, fmt.Errorf("WithSpillDepth/WithSpillCacheBytes require WithSpillDir")
			}
			d, err := cola.Open(opt)
			if err != nil {
				return nil, err
			}
			return d, nil
		},
	})
	mustRegister("deamortized", KindInfo{
		Doc:     "deamortized basic COLA (Theorem 22): O(log N) worst-case moves per insert",
		Options: []string{OptSpace},
		Caps:    Caps{Snapshot: true, Stats: true},
		New: func(c *Config) (core.Dictionary, error) {
			return cola.NewDeamortized(c.Space()), nil
		},
	})
	mustRegister("deamortized-la", KindInfo{
		Doc:     "fully deamortized COLA with lookahead pointers (Theorem 24)",
		Options: []string{OptSpace},
		Caps:    Caps{Snapshot: true, Stats: true},
		New: func(c *Config) (core.Dictionary, error) {
			return cola.NewDeamortizedLookahead(c.Space()), nil
		},
	})
	mustRegister("la", KindInfo{
		Doc:     "cache-aware lookahead array with growth B^epsilon: the Be-tree insert/search tradeoff curve",
		Options: []string{OptSpace, OptEpsilon, OptBlockBytes},
		Caps:    Caps{Snapshot: true, Delete: true, Batch: true, Stats: true, SharedReads: true}, // the embedded GCOLA's capabilities, promoted
		New: func(c *Config) (core.Dictionary, error) {
			blockElems := int(c.BlockBytes(dam.DefaultBlockBytes) / core.ElementBytes)
			if blockElems < 2 {
				return nil, fmt.Errorf("block size %d holds fewer than 2 elements", c.BlockBytes(dam.DefaultBlockBytes))
			}
			return la.New(la.Options{
				BlockElems: blockElems,
				Epsilon:    c.Epsilon(0.5),
				Space:      c.Space(),
			}), nil
		},
	})
	mustRegister("shuttle", KindInfo{
		Doc:     "shuttle tree (Section 2): SWBST skeleton with geometric buffers in a van Emde Boas layout",
		Options: []string{OptSpace, OptFanout, OptRelayoutEvery},
		Caps:    Caps{Snapshot: true, Stats: true},
		New: func(c *Config) (core.Dictionary, error) {
			fanout := c.Fanout(8)
			if fanout < 4 {
				return nil, fmt.Errorf("shuttle fanout must be at least 4, got %d", fanout)
			}
			return shuttle.New(shuttle.Options{
				Fanout:        fanout,
				Space:         c.Space(),
				RelayoutEvery: c.RelayoutEvery(0),
			}), nil
		},
	})
	mustRegister("cobtree", KindInfo{
		Doc:     "cache-oblivious B-tree baseline: the shuttle machinery with buffering disabled",
		Options: []string{OptSpace, OptFanout},
		Caps:    Caps{Snapshot: true, Stats: true},
		New: func(c *Config) (core.Dictionary, error) {
			fanout := c.Fanout(8)
			if fanout < 4 {
				return nil, fmt.Errorf("cobtree fanout must be at least 4, got %d", fanout)
			}
			return shuttle.NewCOBTree(fanout, c.Space()), nil
		},
	})
	mustRegister("btree", KindInfo{
		Doc:     "B+-tree baseline of the paper's Section 4 experiments (one block per node)",
		Options: []string{OptSpace, OptBlockBytes, OptLeafCapacity, OptFanout},
		Caps:    Caps{Snapshot: true, Delete: true, Stats: true, SharedReads: true},
		New: func(c *Config) (core.Dictionary, error) {
			opt := btree.Options{
				BlockBytes:   c.BlockBytes(0),
				LeafCapacity: c.LeafCapacity(0),
				Fanout:       c.Fanout(0),
				Space:        c.Space(),
			}
			if c.IsSet(OptFanout) && opt.Fanout < 3 {
				return nil, fmt.Errorf("btree fanout must be at least 3, got %d", opt.Fanout)
			}
			return btree.New(opt), nil
		},
	})
	mustRegister("brt", KindInfo{
		Doc:     "buffered repository tree: the cache-aware write-optimized comparator",
		Options: []string{OptSpace, OptBlockBytes},
		Caps:    Caps{Snapshot: true, Delete: true, Stats: true, SharedReads: true},
		New: func(c *Config) (core.Dictionary, error) {
			blockBytes := c.BlockBytes(dam.DefaultBlockBytes)
			if blockBytes/core.ElementBytes < 4 {
				return nil, fmt.Errorf("brt block size must hold at least 4 elements, got %d bytes", blockBytes)
			}
			return brt.New(brt.Options{BlockBytes: blockBytes, Space: c.Space()}), nil
		},
	})
	mustRegister("swbst", KindInfo{
		Doc:     "strongly weight-balanced search tree: the shuttle tree's skeleton, usable standalone (no DAM accounting)",
		Options: []string{OptFanout},
		Caps:    Caps{Snapshot: true, Delete: true, SharedReads: true},
		New: func(c *Config) (core.Dictionary, error) {
			fanout := c.Fanout(8)
			if fanout < 4 {
				return nil, fmt.Errorf("swbst fanout must be at least 4, got %d", fanout)
			}
			return swbst.New(swbst.Options{Fanout: fanout}), nil
		},
	})
	mustRegister("sharded", KindInfo{
		Doc:     "hash-partitioned concurrent map: per-shard locks around any inner kind (WithInner) or factory",
		Options: []string{OptShards, OptBatchSize, OptShardDAM, OptInner, OptFactory},
		Caps:    Caps{Snapshot: true, Delete: true, Batch: true, Stats: true, SharedReads: true},
		New:     buildSharded,
	})
	mustRegister("synchronized", KindInfo{
		Doc:     "coarse-grained RWMutex wrapper around any inner kind, forwarding its capabilities",
		Options: []string{OptSpace, OptInner},
		Caps:    Caps{Snapshot: true, Delete: true, Batch: true, Stats: true, SharedReads: true},
		New:     buildSynchronized,
	})
	mustRegister("durable", KindInfo{
		Doc:     "WAL-backed durability wrapper: logs every mutation before applying it to a snapshot-capable inner kind, checkpoints to a snapshot, recovers on reopen",
		Options: []string{OptInner, OptWALPath, OptCheckpointEvery},
		Caps:    Caps{WAL: true, Delete: true, Batch: true, Stats: true, SharedReads: true},
		New:     buildDurable,
	})
}

// innerConfig scratch-applies a wrapper kind's inner options so wrapper
// builders can inspect what the caller set (e.g. reject an inner
// WithSpace on a sharded map).
func innerConfig(opts []Option) (*Config, error) {
	cfg, err := apply(opts)
	if err != nil {
		return nil, fmt.Errorf("inner options: %w", err)
	}
	return cfg, nil
}

func buildSharded(c *Config) (core.Dictionary, error) {
	innerKind, innerOpts, hasInner := c.Inner()
	factory := c.Factory()
	if hasInner && factory != nil {
		return nil, fmt.Errorf("WithInner and WithDictionary are mutually exclusive")
	}
	if !hasInner {
		innerKind = "cola"
	}

	var sopts []shard.Option
	if n := c.Shards(0); c.IsSet(OptShards) {
		sopts = append(sopts, shard.WithShards(n))
	}
	if k := c.BatchSize(0); c.IsSet(OptBatchSize) {
		sopts = append(sopts, shard.WithBatchSize(k))
	}
	if blockBytes, cacheBytes, ok := c.ShardDAM(); ok {
		sopts = append(sopts, shard.WithDAM(blockBytes, cacheBytes))
	}

	if factory != nil {
		sopts = append(sopts, shard.WithDictionary(factory))
		return shard.New(sopts...), nil
	}

	// Registry-built shards: validate the inner spec once up front so a
	// bad inner kind or option fails with an error here instead of a
	// panic inside the per-shard factory.
	icfg, err := innerConfig(innerOpts)
	if err != nil {
		return nil, err
	}
	if icfg.IsSet(OptSpace) {
		return nil, fmt.Errorf("inner kind %q: each shard receives its private space; use WithShardDAM instead of an inner WithSpace", innerKind)
	}
	if _, err := Build(innerKind, innerOpts...); err != nil {
		return nil, err
	}
	innerTakesSpace := Accepts(innerKind, OptSpace)
	if _, _, damSet := c.ShardDAM(); damSet && !innerTakesSpace {
		return nil, fmt.Errorf("WithShardDAM has no effect: inner kind %q does not accept WithSpace", innerKind)
	}
	sopts = append(sopts, shard.WithDictionary(func(_ int, sp *dam.Space) core.Dictionary {
		opts := innerOpts
		if innerTakesSpace {
			opts = append(append([]Option(nil), innerOpts...), WithSpace(sp))
		}
		d, err := Build(innerKind, opts...)
		if err != nil {
			// Unreachable: the same spec just built during validation.
			panic("repro: sharded inner build failed after validation: " + err.Error())
		}
		return d
	}))
	return shard.New(sopts...), nil
}

// walReplayHandler folds recovered log records into the freshly built
// (or checkpoint-restored) inner dictionary.
type walReplayHandler struct {
	d core.Dictionary
	// badDeletes records that the log holds delete records the inner
	// structure cannot apply — a configuration mismatch the builder
	// turns into an error rather than silently recovering partial state.
	badDeletes bool
}

func (h *walReplayHandler) ApplyInsert(elems []core.Element) { core.InsertBatch(h.d, elems) }

func (h *walReplayHandler) ApplyDelete(keys []uint64) {
	del, ok := h.d.(core.Deleter)
	if !ok {
		h.badDeletes = true
		return
	}
	for _, k := range keys {
		del.Delete(k)
	}
}

// buildDurable opens (or creates) a durable dictionary at the WAL path:
// restore the checkpoint if one exists — its self-describing header
// says what to build, overriding a missing WithInner — then replay the
// log tail, compact what was recovered if the inner can (see below),
// then hand the structure to the durable wrapper. This is the
// capability-aware corner of Build: the inner kind must be
// snapshot-capable, or checkpoints (and checkpoint-based reopens) would
// be impossible.
func buildDurable(c *Config) (core.Dictionary, error) {
	path, ok := c.WALPath()
	if !ok {
		return nil, fmt.Errorf("durable requires WithWALPath")
	}
	innerKind, innerOpts, hasInner := c.Inner()
	if !hasInner {
		innerKind = "cola"
	}
	icfg, err := innerConfig(innerOpts)
	if err != nil {
		return nil, err
	}
	ie, known := lookup(innerKind)
	if !known {
		return nil, fmt.Errorf("unknown inner kind %q (registered kinds: %s)", innerKind, strings.Join(Kinds(), ", "))
	}
	if !ie.info.Caps.Snapshot {
		return nil, fmt.Errorf("inner kind %q cannot snapshot itself (capabilities: %s); durable needs a snapshot-capable inner for checkpoints", innerKind, ie.info.Caps)
	}
	// The runtime-wiring check walks the whole inner option tree: a
	// WithSpace (or spill option) one wrapper deeper (e.g.
	// WithInner("synchronized", WithInner("cola", WithSpace(sp)))) is
	// just as unpersistable — specFromConfig drops those options from the
	// recorded header, so a reopen would silently rebuild without them
	// instead of failing loudly here.
	if name, serr := innerTreeSetsRuntime(icfg); serr != nil {
		return nil, serr
	} else if name != "" {
		return nil, fmt.Errorf("inner kind %q: %s configures process-local runtime wiring that cannot be persisted across reopens; durable inners run without it", innerKind, name)
	}

	ckptPath := path + ".ckpt"
	var inner core.Dictionary
	var spec *snap.Spec
	if f, oerr := os.Open(ckptPath); oerr == nil {
		// The checkpoint's recorded spec is authoritative on reopen: a
		// WithInner that contradicts it — a different kind OR a different
		// value for any explicitly-set inner option — is a configuration
		// error, not a rebuild. Options the caller leaves unset follow the
		// recorded configuration silently. Validated against the header
		// alone, BEFORE the payload restore: the header is tens of bytes,
		// the payload can be the whole structure, and a conflicting reopen
		// must not pay for (then discard) a full restore.
		if hasInner {
			if err := checkpointHeaderConflict(f, ckptPath, innerKind, icfg); err != nil {
				f.Close()
				return nil, err
			}
		}
		inner, spec, err = loadContainer(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("checkpoint %s: %w", ckptPath, err)
		}
	} else if !errors.Is(oerr, fs.ErrNotExist) {
		return nil, fmt.Errorf("checkpoint %s: %w", ckptPath, oerr)
	} else {
		if inner, err = Build(innerKind, innerOpts...); err != nil {
			return nil, err
		}
		if spec, err = specFromConfig(innerKind, icfg); err != nil {
			return nil, err
		}
	}
	sn, ok := inner.(core.Snapshotter)
	if !ok {
		// Reachable only through a factory-built or externally
		// registered inner that advertises Snapshot without implementing
		// it.
		return nil, fmt.Errorf("inner kind %q built %T, which does not implement Snapshotter", innerKind, inner)
	}
	writeSnapshot := func(out io.Writer) error {
		_, err := snap.Encode(out, spec, sn)
		return err
	}
	if _, serr := os.Stat(ckptPath); errors.Is(serr, fs.ErrNotExist) {
		// Seed the checkpoint before any record exists (the inner is
		// still in its pre-replay state, so log replay over it stays
		// correct): the recorded spec is then always on disk, and a
		// later Open without WithInner rebuilds the right structure even
		// if no periodic checkpoint ever ran.
		if err := durable.WriteCheckpointFile(ckptPath, writeSnapshot); err != nil {
			return nil, err
		}
	}

	h := &walReplayHandler{d: inner}
	w, _, err := wal.Open(path, h)
	if err != nil {
		return nil, err
	}
	if h.badDeletes {
		w.Close()
		return nil, fmt.Errorf("write-ahead log %s contains delete records but inner kind %q does not support deletion", path, innerKind)
	}
	// A lookahead array comes back in whatever shape it stopped in, and
	// what a search costs follows that shape: how many levels are
	// occupied, and how deep the recent keys sit. A store that went down
	// just before a large merge reads up to half again as slowly as one
	// that went down just after it, for as long as it stays up. Recovery
	// is a sequential pass over the whole structure already; one more
	// leaves it as a single level, so reads after a restart cost the same
	// wherever the store stopped (and Len is exact). Only the in-memory
	// layout changes: the checkpoint and the log stay as they are.
	if cp, ok := inner.(interface{ Compact() }); ok {
		cp.Compact()
	}
	return durable.New(durable.Options{
		Inner:           inner,
		Log:             w,
		CheckpointPath:  ckptPath,
		CheckpointEvery: c.CheckpointEvery(0),
		WriteSnapshot:   writeSnapshot,
	}), nil
}

// runtimeWiringOpts configure process-local runtime wiring (DAM
// accounting spaces, out-of-core spill stores). They are dropped from
// recorded snapshot specs, so a durable inner must not carry them.
var runtimeWiringOpts = []string{OptSpace, OptSpillDir, OptSpillDepth, OptSpillCacheBytes}

// innerTreeSetsRuntime returns the name of the first runtime-wiring
// option set anywhere in an inner option tree, or "" if none is.
func innerTreeSetsRuntime(c *Config) (string, error) {
	for _, name := range runtimeWiringOpts {
		if c.IsSet(name) {
			return name, nil
		}
	}
	if _, iopts, ok := c.Inner(); ok {
		icfg, err := innerConfig(iopts)
		if err != nil {
			return "", err
		}
		return innerTreeSetsRuntime(icfg)
	}
	return "", nil
}

// checkpointHeaderConflict reads only the container header from f,
// rejects a requested inner kind or explicitly-set inner options the
// recorded spec cannot honor, and rewinds f for the full restore.
func checkpointHeaderConflict(f *os.File, ckptPath, innerKind string, icfg *Config) error {
	hspec, err := snap.DecodeHeader(f)
	if err != nil {
		return fmt.Errorf("checkpoint %s: %w", ckptPath, err)
	}
	if hspec.Kind != innerKind {
		return fmt.Errorf("checkpoint %s holds a %q but WithInner requested %q; remove the checkpoint to rebuild", ckptPath, hspec.Kind, innerKind)
	}
	reqSpec, err := requestedSpec(innerKind, icfg)
	if err != nil {
		return err
	}
	if desc, conflict := specConflict(reqSpec, hspec); conflict {
		return fmt.Errorf("checkpoint %s conflicts with the requested inner options: %s; omit the option to reopen with the recorded configuration, or remove the checkpoint to rebuild", ckptPath, desc)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("checkpoint %s: %w", ckptPath, err)
	}
	return nil
}

func buildSynchronized(c *Config) (core.Dictionary, error) {
	innerKind, innerOpts, hasInner := c.Inner()
	if !hasInner {
		innerKind = "cola"
	}
	icfg, err := innerConfig(innerOpts)
	if err != nil {
		return nil, err
	}
	if _, known := Info(innerKind); !known {
		return nil, fmt.Errorf("unknown inner kind %q (registered kinds: %s)", innerKind, strings.Join(Kinds(), ", "))
	}
	opts := innerOpts
	if c.IsSet(OptSpace) {
		if icfg.IsSet(OptSpace) {
			return nil, fmt.Errorf("inner kind %q: pass the space either on synchronized or inside WithInner, not both", innerKind)
		}
		if !Accepts(innerKind, OptSpace) {
			return nil, fmt.Errorf("inner kind %q does not accept WithSpace", innerKind)
		}
		opts = append(append([]Option(nil), innerOpts...), WithSpace(c.Space()))
	}
	d, err := Build(innerKind, opts...)
	if err != nil {
		return nil, err
	}
	return syncdict.New(d), nil
}
