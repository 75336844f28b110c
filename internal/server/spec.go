package server

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/core"
	"repro/internal/dam"
	"repro/internal/durable"
	"repro/internal/registry"
	"repro/internal/shard"
)

// Spec names a serving composition: which registry kind does the real
// work, how many shards spread the lock, and whether writes go through
// per-shard write-ahead logs.
type Spec struct {
	// Kind is the inner registry kind per shard ("gcola", "cobtree",
	// ...). Empty means "gcola".
	Kind string

	// Shards is the shard count, rounded up to a power of two. Zero
	// means one shard per available CPU (and, on reopen of a WALDir,
	// whatever count its shard logs hold).
	Shards int

	// WALDir, when non-empty, makes the composition durable: shard i
	// logs to WALDir/shard-<i>.wal and checkpoints beside it. Empty
	// means volatile.
	WALDir string

	// CheckpointEvery is the per-shard auto-checkpoint cadence in
	// applied records; zero disables auto-checkpointing (the log still
	// makes every acknowledged write recoverable).
	CheckpointEvery int
}

// Handle is an opened serving composition.
type Handle struct {
	// Dict is the dictionary to serve: a shard map over the inner kind,
	// each shard individually durable when the spec has a WALDir.
	Dict core.Dictionary

	// Spec echoes the resolved spec (Kind and Shards filled in).
	Spec Spec

	durables []*durable.Dict
}

// Open builds the composition a Spec names. With a WALDir it replays
// every shard's log (and checkpoint) first, so the returned dictionary
// already holds every previously acknowledged write. The directory's
// shard logs fix the shard count across restarts (see dirShards), and
// each shard's checkpoint header fixes its kind.
func Open(spec Spec) (*Handle, error) {
	if spec.Kind == "" {
		spec.Kind = "gcola"
	}
	if spec.Shards < 0 {
		return nil, fmt.Errorf("server: negative shard count %d", spec.Shards)
	}

	if spec.WALDir == "" {
		spec.Shards = shard.Count(spec.Shards)
		d, err := registry.Build("sharded",
			registry.WithShards(spec.Shards),
			registry.WithInner(spec.Kind))
		if err != nil {
			return nil, err
		}
		return &Handle{Dict: d, Spec: spec}, nil
	}

	if err := os.MkdirAll(spec.WALDir, 0o755); err != nil {
		return nil, err
	}
	n, err := dirShards(spec.WALDir, spec.Shards)
	if err != nil {
		return nil, err
	}
	spec.Shards = n

	// One independently durable dictionary per shard — each owns its own
	// log file, so shards never contend on one writer and a reopen
	// replays them independently.
	durables := make([]*durable.Dict, spec.Shards)
	for i := range durables {
		d, err := registry.Build("durable",
			registry.WithWALPath(filepath.Join(spec.WALDir, walName(i))),
			registry.WithCheckpointEvery(spec.CheckpointEvery),
			registry.WithInner(spec.Kind))
		if err != nil {
			closeAll(durables[:i])
			return nil, fmt.Errorf("server: shard %d: %w", i, err)
		}
		dd, ok := d.(*durable.Dict)
		if !ok {
			closeAll(durables[:i])
			return nil, fmt.Errorf("server: durable build returned %T", d)
		}
		durables[i] = dd
	}
	m := shard.New(
		shard.WithShards(spec.Shards),
		shard.WithDictionary(func(i int, _ *dam.Space) core.Dictionary {
			return durables[i]
		}),
	)
	return &Handle{Dict: m, Spec: spec, durables: durables}, nil
}

// walName names shard i's write-ahead log; its checkpoint adds ".ckpt".
func walName(i int) string { return fmt.Sprintf("shard-%02d.wal", i) }

// dirShards resolves a WAL directory's shard count from its files: the
// logs and the checkpoints must each be exactly shard-00 … shard-(S-1)
// for one S that shard.Count builds, and want (0 for any) must build
// the same S. A directory with neither takes shard.Count(want). Other
// files, such as an earlier build's serve.meta, are not read.
func dirShards(dir string, want int) (int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	have := make(map[string]bool)
	for _, e := range ents {
		name := e.Name()
		if strings.HasPrefix(name, "shard-") && (strings.HasSuffix(name, ".wal") || strings.HasSuffix(name, ".wal.ckpt")) {
			have[name] = true
		}
	}
	n := (len(have) + 1) / 2 // a shard is a log and a checkpoint
	if n == 0 {
		return shard.Count(want), nil
	}
	for i := 0; i < n; i++ {
		logName := walName(i)
		if !have[logName] && have[logName+".ckpt"] {
			// A durable build seeds the checkpoint before it creates the
			// log: a crash inside the first Open leaves this, unacknowledged.
			return 0, fmt.Errorf("server: %s holds %s.ckpt but not %s; if the directory's first open crashed, nothing was acknowledged: remove the directory", dir, logName, logName)
		}
		for _, name := range [2]string{logName, logName + ".ckpt"} {
			if !have[name] {
				return 0, fmt.Errorf("server: %s holds %d shard files but not %s", dir, len(have), name)
			}
		}
	}
	if shard.Count(n) != n {
		return 0, fmt.Errorf("server: %s holds %d shard logs, which is not a shard count: %s is missing", dir, n, walName(n))
	}
	if want != 0 && shard.Count(want) != n {
		return 0, fmt.Errorf("server: %s holds %d shard logs, spec asks for %d shards", dir, n, shard.Count(want))
	}
	return n, nil
}

func closeAll(ds []*durable.Dict) {
	for _, d := range ds {
		if d != nil {
			d.Close()
		}
	}
}

// Close syncs and closes every durable shard. Volatile compositions
// close trivially.
func (h *Handle) Close() error {
	var first error
	for _, d := range h.durables {
		if err := d.Sync(); err != nil && first == nil {
			first = err
		}
		if err := d.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
