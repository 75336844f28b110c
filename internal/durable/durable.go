// Package durable provides the WAL-backed persistence wrapper behind
// the registry kind "durable": any snapshot-capable dictionary, made
// crash-recoverable by logging every mutation to an append-only
// write-ahead log (internal/wal) before applying it, and periodically
// checkpointing the whole structure to a snapshot container so the log
// stays short.
//
// The wrapper owns two files, derived from the WAL path p chosen at
// build time: the log itself at p and the checkpoint snapshot at
// p+".ckpt". Reopening the same path rebuilds the dictionary: the
// checkpoint (when present) restores the bulk, then the log tail
// replays — every batch acknowledged before the crash is recovered,
// un-acknowledged (torn) appends vanish. A checkpoint is written
// crash-safely: snapshot to a temporary sibling, fsync, rename over the
// old checkpoint, then truncate the log; a crash between the rename and
// the truncate merely replays records whose effects the checkpoint
// already holds, which is idempotent.
//
// Construction happens in the registry (which knows how to build the
// inner structure, load checkpoints, and write spec-carrying snapshot
// containers); this package holds the runtime wrapper only.
package durable

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/core"
	"repro/internal/wal"
)

// Options configures New. All fields are required except
// CheckpointEvery.
type Options struct {
	// Inner is the wrapped dictionary, already restored from the latest
	// checkpoint and log tail by the builder.
	Inner core.Dictionary
	// Log is the open write-ahead log, positioned for appending.
	Log *wal.WAL
	// CheckpointPath is where checkpoints are written (the registry uses
	// WAL path + ".ckpt").
	CheckpointPath string
	// CheckpointEvery triggers an automatic checkpoint after that many
	// appended records (batches, not elements); 0 disables automatic
	// checkpointing (the log then grows until Checkpoint is called).
	CheckpointEvery int
	// WriteSnapshot writes a complete self-describing snapshot container
	// of Inner. It is invoked with the wrapper's lock held.
	WriteSnapshot func(io.Writer) error
}

// Dict is the durable dictionary. It implements core.Dictionary,
// core.Deleter, core.Statser, core.TransferCounter, and
// core.BatchInserter (capabilities beyond Dictionary forward to the
// inner structure and degrade gracefully when it lacks them); it
// deliberately does not implement core.Snapshotter — its persistence
// story IS the WAL plus checkpoints, written via Checkpoint.
//
// Every mutation serializes on one RWMutex, so a Dict is safe for
// concurrent use. When the inner structure genuinely supports shared
// reads (core.AsSharedReader, probed once at construction), Search and
// Range take the read side bracketed by Begin/EndSharedReads and scale
// with concurrent readers — reads never touch the log, so nothing about
// the durability contract changes; otherwise they serialize with the
// mutations, the pre-shared-read behaviour. SharedReads reports which
// mode the wrapper is in (its own methods exist unconditionally, so the
// prober — not a type assertion — is the honest capability probe).
//
// Error contract: the Dictionary interface has no error returns, so a
// failed log append — the point where durability would silently end —
// panics with the underlying error, which also becomes visible through
// Err. The log cuts a torn record back to the last intact boundary
// after a failed write; if even that fails it poisons itself, so a
// caller that recovers the panic and keeps going panics again on every
// mutation (never acknowledging a write that replay could not reach)
// until a successful Checkpoint empties the log. A failed automatic
// checkpoint does NOT panic: the log is intact, so no acknowledged
// write is at risk; the first such error is retained in Err and the
// schedule re-arms, so the next attempt comes CheckpointEvery records
// later — not on every record, which on a full disk would turn each
// mutation into a whole-structure encode under the write lock.
type Dict struct {
	mu            sync.RWMutex
	inner         core.Dictionary
	sr            core.SharedReader // shared-read bracket target; nil = exclusive reads
	log           *wal.WAL
	ckptPath      string
	every         int
	writeSnapshot func(io.Writer) error
	sinceCkpt     int
	err           error // first retained failure (checkpoint or log)
	one           [1]core.Element
	oneKey        [1]uint64
}

var (
	_ core.Dictionary       = (*Dict)(nil)
	_ core.Deleter          = (*Dict)(nil)
	_ core.Statser          = (*Dict)(nil)
	_ core.TransferCounter  = (*Dict)(nil)
	_ core.BatchInserter    = (*Dict)(nil)
	_ core.SharedReader     = (*Dict)(nil)
	_ core.SharedReadProber = (*Dict)(nil)
	_ core.CapsProber       = (*Dict)(nil)
)

// New assembles the wrapper; see Options.
func New(opt Options) *Dict {
	if opt.Inner == nil || opt.Log == nil || opt.WriteSnapshot == nil || opt.CheckpointPath == "" {
		panic("durable: New requires Inner, Log, CheckpointPath, and WriteSnapshot")
	}
	d := &Dict{
		inner:         opt.Inner,
		log:           opt.Log,
		ckptPath:      opt.CheckpointPath,
		every:         opt.CheckpointEvery,
		writeSnapshot: opt.WriteSnapshot,
	}
	if sr, ok := core.AsSharedReader(opt.Inner); ok {
		d.sr = sr
	}
	return d
}

// mustAppend runs one log append and panics on failure (see the type
// comment's error contract).
func (d *Dict) mustAppend(err error) {
	if err != nil {
		if d.err == nil {
			d.err = err
		}
		panic(fmt.Sprintf("durable: write-ahead log append failed: %v", err))
	}
}

// afterAppend advances the checkpoint schedule. A failed checkpoint
// re-arms it like a successful one (see the type comment).
func (d *Dict) afterAppend() {
	d.sinceCkpt++
	if d.every > 0 && d.sinceCkpt >= d.every {
		if err := d.checkpointLocked(); err != nil {
			d.sinceCkpt = 0
			if d.err == nil {
				d.err = err
			}
		}
	}
}

// Insert implements core.Dictionary: the element is logged (one-record
// batch), applied, and then acknowledged by returning.
func (d *Dict) Insert(key, value uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.one[0] = core.Element{Key: key, Value: value}
	d.mustAppend(d.log.AppendInsert(d.one[:]))
	d.inner.Insert(key, value)
	d.afterAppend()
}

// InsertBatch implements core.BatchInserter: the whole batch becomes a
// single log record (the amortized ingestion path — one write call and
// one checkpoint-schedule tick per batch) and applies through the inner
// structure's own batch path when it has one. Batches larger than one
// record can carry (wal.MaxBatchElems, ~4M elements) are split across
// consecutive records transparently; for such a batch the
// crash-recovery granularity is the chunk, not the whole batch.
func (d *Dict) InsertBatch(elems []core.Element) {
	if len(elems) == 0 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for len(elems) > 0 {
		chunk := elems
		if len(chunk) > wal.MaxBatchElems {
			chunk = chunk[:wal.MaxBatchElems]
		}
		d.mustAppend(d.log.AppendInsert(chunk))
		core.InsertBatch(d.inner, chunk)
		d.afterAppend()
		elems = elems[len(chunk):]
	}
}

// Delete implements core.Deleter. When the inner structure supports
// deletion the key is logged then deleted; otherwise no record is
// written and Delete reports false, like every other wrapper here.
func (d *Dict) Delete(key uint64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	del, ok := d.inner.(core.Deleter)
	if !ok {
		return false
	}
	d.oneKey[0] = key
	d.mustAppend(d.log.AppendDelete(d.oneKey[:]))
	present := del.Delete(key)
	d.afterAppend()
	return present
}

// Search implements core.Dictionary: on the read side of the lock,
// bracketed, when the inner structure supports shared reads; exclusive
// otherwise. Reads never touch the write-ahead log.
func (d *Dict) Search(key uint64) (uint64, bool) {
	if d.sr != nil {
		d.mu.RLock()
		d.sr.BeginSharedReads()
		v, ok := d.inner.Search(key)
		d.sr.EndSharedReads()
		d.mu.RUnlock()
		return v, ok
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.inner.Search(key)
}

// Range implements core.Dictionary, with the same lock choice as
// Search. The callback runs under the lock and must not call back into
// the dictionary at all — a reentrant RLock deadlocks against a
// waiting writer. The bracket and lock release are deferred so a
// panicking callback cannot leak the read lock or leave the shared
// epoch open.
func (d *Dict) Range(lo, hi uint64, fn func(core.Element) bool) {
	if d.sr != nil {
		d.mu.RLock()
		d.sr.BeginSharedReads()
		defer func() {
			d.sr.EndSharedReads()
			d.mu.RUnlock()
		}()
		d.inner.Range(lo, hi, fn)
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.inner.Range(lo, hi, fn)
}

// SharedReads implements core.SharedReadProber: whether reads genuinely
// run on the shared side, i.e. whether the inner structure honestly
// declared shared-read safety.
func (d *Dict) SharedReads() bool { return d.sr != nil }

// BeginSharedReads implements core.SharedReader for outer wrappers
// nesting this one; a no-op when the inner structure is not shared-read
// safe.
func (d *Dict) BeginSharedReads() {
	if d.sr != nil {
		d.sr.BeginSharedReads()
	}
}

// EndSharedReads closes the bracket opened by BeginSharedReads.
func (d *Dict) EndSharedReads() {
	if d.sr != nil {
		d.sr.EndSharedReads()
	}
}

// Len implements core.Dictionary on the read side of the lock, like
// the other wrappers' aggregation accessors: inner Len is
// mutation-free, so a monitoring poll never drains concurrent shared
// searches.
func (d *Dict) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.inner.Len()
}

// Stats forwards to the inner structure's Statser on the read side of
// the lock (Stats accessors are mutation-free; shared-read-safe inners
// load their search counter atomically); zero Stats without one.
func (d *Dict) Stats() core.Stats {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if st, ok := d.inner.(core.Statser); ok {
		return st.Stats()
	}
	return core.Stats{}
}

// Transfers forwards to the inner structure's TransferCounter on the
// read side of the lock (only internally-synchronized store owners
// implement it); zero without one.
func (d *Dict) Transfers() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if tc, ok := d.inner.(core.TransferCounter); ok {
		return tc.Transfers()
	}
	return 0
}

// Checkpoint captures the current state into the checkpoint snapshot
// and empties the log. Reopening afterwards restores from the snapshot
// alone.
func (d *Dict) Checkpoint() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.checkpointLocked()
}

func (d *Dict) checkpointLocked() error {
	if err := WriteCheckpointFile(d.ckptPath, d.writeSnapshot); err != nil {
		return err
	}
	// From here the checkpoint is the durable state; emptying the log is
	// safe even if we crash first (replay over the checkpoint is
	// idempotent).
	if err := d.log.Reset(); err != nil {
		return fmt.Errorf("durable: checkpoint: %w", err)
	}
	d.sinceCkpt = 0
	return nil
}

// WriteCheckpointFile writes one checkpoint snapshot crash-safely:
// temp sibling, fsync, rename, parent-directory fsync. write receives
// the temp file itself, unwrapped, so snap.Encode can stream the
// structure into it in one pass and patch the payload length in place
// before the fsync; the file is complete when write returns and is
// only then published by the rename. The directory sync matters for
// ordering: checkpointLocked truncates (and fsyncs) the log right
// after this returns, so the rename must be on stable storage first —
// otherwise a power loss could surface the durable truncation together
// with the OLD checkpoint, losing acknowledged records. The registry also uses this helper to seed a fresh durable
// dictionary's checkpoint (so the inner configuration is always
// recoverable from disk, even before the first real checkpoint), and
// the facade's SaveFile reuses it as its atomic file writer.
func WriteCheckpointFile(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("durable: writing %s: %w", path, err)
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err == nil {
		err = syncDir(filepath.Dir(path))
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("durable: writing %s: %w", path, err)
	}
	return nil
}

// syncDir fsyncs a directory so a completed rename inside it is
// durable before later writes depend on it.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Sync fsyncs the log, upgrading the acknowledgement contract from
// process-crash-safe to power-loss-safe for everything appended so far.
func (d *Dict) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log.Sync()
}

// Err reports the first retained failure (a failed automatic
// checkpoint, or the log error that caused a panic), nil if none. Like
// Len, it takes the read side of the lock, so polling it never drains
// concurrent shared searches.
//
//repro:readonly
func (d *Dict) Err() error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.err
}

// Records reports how many records the log currently holds — the replay
// cost of reopening without a fresh checkpoint — on the read side of
// the lock.
//
//repro:readonly
func (d *Dict) Records() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.log.Records()
}

// Close closes the log file (without a final checkpoint or sync; call
// those first if wanted). The dictionary must not be used afterwards.
func (d *Dict) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log.Close()
}

// Caps implements core.CapsProber: what the wrapper genuinely forwards
// to (or provides on top of) the inner structure. WAL is the wrapper's
// own capability; Snapshot is deliberately withheld (the persistence
// story IS the log plus checkpoints — see the type comment); Batch is
// native regardless of the inner (one log record per batch is the
// wrapper's own fast path); Delete and Stats forward.
func (d *Dict) Caps() core.Caps {
	c := core.CapsOf(d.inner)
	c.Snapshot = false
	c.WAL = true
	c.Batch = true
	c.SharedReads = d.sr != nil
	return c
}

// Unwrap returns the inner dictionary for read-only inspection.
// Mutating it directly bypasses the log and forfeits recovery.
func (d *Dict) Unwrap() core.Dictionary { return d.inner }
