package repro

// The durability surface: save any snapshot-capable dictionary as a
// self-describing container, load one back without knowing what was
// saved, and open crash-recoverable WAL-backed dictionaries.
//
//	// Persist a warm structure and restore it later.
//	err := repro.SaveFile("index.snap", "gcola", d, repro.WithGrowthFactor(4))
//	d2, err := repro.LoadFile("index.snap")
//
//	// A dictionary that survives crashes: every batch is write-ahead
//	// logged before it is applied, a checkpoint runs every 1024
//	// batches, and reopening the same path recovers everything that
//	// was acknowledged.
//	d, err := repro.Open("index.wal",
//	    repro.WithInner("btree"), repro.WithCheckpointEvery(1024))
//	defer d.Close()
//
// Container and record formats are documented in DESIGN.md; KindCaps
// reports which kinds can snapshot themselves.

import (
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/registry"
)

// Snapshotter is the persistence capability: WriteTo emits the
// structure's payload, ReadFrom restores it into an empty structure
// built with the same options. Save/Load wrap these payloads in a
// checksummed container that also records the kind and options.
type Snapshotter = core.Snapshotter

// Typed decode failures, matched with errors.Is against anything the
// persistence stack returns.
var (
	// ErrBadMagic: the stream is not a snapshot (or reached the wrong
	// structure).
	ErrBadMagic = core.ErrBadMagic
	// ErrBadVersion: written by a format (or option lineup) newer than
	// this build.
	ErrBadVersion = core.ErrBadVersion
	// ErrCorrupt: truncated or checksum-inconsistent data.
	ErrCorrupt = core.ErrCorrupt
)

// Save writes d as one self-describing snapshot container: a header
// recording kind and options (so Load can rebuild without being told),
// then the structure's own payload, both CRC32-checked. kind and opts
// must be what d was built with — Save validates them against the
// registry and d's concrete type, and rejects kinds without the
// snapshot capability (see KindCaps). WithSpace is not recorded;
// re-attach accounting via Load's options.
func Save(w io.Writer, kind string, d Dictionary, opts ...Option) error {
	return registry.Save(w, kind, d, opts...)
}

// Load reads one Save container and returns the rebuilt, restored
// dictionary. Extra options apply after the recorded ones —
// WithSpace(store.Space("x")) re-attaches DAM accounting that Save
// deliberately dropped. Corruption anywhere fails with a typed error
// before any structure decoder runs.
func Load(r io.Reader, extra ...Option) (Dictionary, error) {
	return registry.Load(r, extra...)
}

// SaveFile is Save to a file, written crash-safely (temp sibling,
// fsync, rename, directory fsync — the same protocol durable
// checkpoints use), so an interrupted save never clobbers an existing
// snapshot.
func SaveFile(path, kind string, d Dictionary, opts ...Option) error {
	if err := durable.WriteCheckpointFile(path, func(w io.Writer) error {
		return Save(w, kind, d, opts...)
	}); err != nil {
		return fmt.Errorf("repro: SaveFile: %w", err)
	}
	return nil
}

// LoadFile is Load from a file.
func LoadFile(path string, extra ...Option) (Dictionary, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("repro: LoadFile: %w", err)
	}
	defer f.Close() //repro:allow durerr read-only handle; Close cannot lose acknowledged writes
	return Load(f, extra...)
}

// DurableDictionary is the WAL-backed wrapper behind Build("durable")
// and Open: mutations are logged (batches as single records) before
// they apply, Checkpoint captures a snapshot and empties the log, and
// reopening the same path recovers every acknowledged write. See the
// package docs of internal/durable for the exact guarantees.
type DurableDictionary = durable.Dict

// Open builds (or reopens) a durable dictionary whose write-ahead log
// lives at path and whose checkpoints live at path + ".ckpt":
//
//	d, err := repro.Open("users.wal", repro.WithInner("gcola",
//	    repro.WithGrowthFactor(4)), repro.WithCheckpointEvery(1024))
//
// On reopen an existing checkpoint's recorded kind wins (WithInner may
// be omitted); the log tail then replays on top, and a recovered
// lookahead array is compacted into a single level. It is
// Build("durable", WithWALPath(path), opts...) with the concrete return
// type, so Checkpoint/Sync/Close are in reach.
func Open(path string, opts ...Option) (*DurableDictionary, error) {
	d, err := Build("durable", append([]Option{WithWALPath(path)}, opts...)...)
	if err != nil {
		return nil, err
	}
	return d.(*DurableDictionary), nil
}
