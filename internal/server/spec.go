package server

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

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
	// whatever count the directory was created with).
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

// metaSchema versions the serve.meta file.
const metaSchema = 1

// metaName is the composition descriptor written into a WALDir so a
// reopen cannot silently change the shard fan-out (elements would land
// in the wrong shard's log) or the inner kind.
const metaName = "serve.meta"

type meta struct {
	Schema int    `json:"schema"`
	Kind   string `json:"kind"`
	Shards int    `json:"shards"`
}

// Open builds the composition a Spec names. With a WALDir it replays
// every shard's log (and checkpoint) first, so the returned dictionary
// already holds every previously acknowledged write; the directory's
// serve.meta pins kind and shard count across restarts.
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
	if err := reconcileMeta(&spec); err != nil {
		return nil, err
	}

	// One independently durable dictionary per shard — each owns its own
	// log file, so shards never contend on one writer and a reopen
	// replays them independently.
	durables := make([]*durable.Dict, spec.Shards)
	for i := range durables {
		d, err := registry.Build("durable",
			registry.WithWALPath(filepath.Join(spec.WALDir, fmt.Sprintf("shard-%02d.wal", i))),
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

// reconcileMeta loads or creates WALDir/serve.meta, resolving
// spec.Shards and rejecting mismatches against an existing directory.
func reconcileMeta(spec *Spec) error {
	path := filepath.Join(spec.WALDir, metaName)
	raw, err := os.ReadFile(path)
	switch {
	case err == nil:
		var m meta
		if err := json.Unmarshal(raw, &m); err != nil {
			return fmt.Errorf("server: %s: %w", path, err)
		}
		if m.Schema != metaSchema {
			return fmt.Errorf("server: %s has schema %d, this build reads %d", path, m.Schema, metaSchema)
		}
		if m.Kind != spec.Kind {
			return fmt.Errorf("server: %s was created for kind %q, spec asks for %q", path, m.Kind, spec.Kind)
		}
		if spec.Shards != 0 && shard.Count(spec.Shards) != m.Shards {
			return fmt.Errorf("server: %s was created with %d shards, spec asks for %d", path, m.Shards, shard.Count(spec.Shards))
		}
		spec.Shards = m.Shards
		return nil
	case os.IsNotExist(err):
		spec.Shards = shard.Count(spec.Shards)
		raw, err := json.Marshal(meta{Schema: metaSchema, Kind: spec.Kind, Shards: spec.Shards})
		if err != nil {
			return err
		}
		tmp := path + ".tmp"
		if err := os.WriteFile(tmp, append(raw, '\n'), 0o644); err != nil {
			return err
		}
		return os.Rename(tmp, path)
	default:
		return err
	}
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
