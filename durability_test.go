package repro

// API-level durability tests: the Save/Load/Open surface, checkpoint
// behaviour, crash-shaped WAL damage, and the error taxonomy. The
// format-level corpus lives with the codecs (internal/snap,
// internal/wal, internal/cola).

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSaveFileLoadFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.snap")
	d := MustBuild("btree")
	for i := uint64(0); i < 2000; i++ {
		d.Insert(i, i*i)
	}
	if err := SaveFile(path, "btree", d); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	d2, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if d2.Len() != d.Len() {
		t.Fatalf("Len = %d, want %d", d2.Len(), d.Len())
	}
	if v, ok := d2.Search(1234); !ok || v != 1234*1234 {
		t.Fatalf("Search(1234) = %d,%v", v, ok)
	}
	if _, ok := d2.(*BTree); !ok {
		t.Fatalf("LoadFile built %T, want *BTree", d2)
	}
}

func TestSaveFileNeverClobbersOnFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.snap")
	d := MustBuild("gcola", WithGrowthFactor(4))
	d.Insert(1, 1)
	if err := SaveFile(path, "gcola", d, WithGrowthFactor(4)); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A save that fails validation (wrong kind for the dictionary) must
	// leave the existing file byte-identical.
	if err := SaveFile(path, "btree", d); err == nil {
		t.Fatal("SaveFile accepted a mismatched kind")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("failed SaveFile clobbered the existing snapshot")
	}
}

func TestSaveErrorTaxonomy(t *testing.T) {
	d := MustBuild("cola")
	var buf bytes.Buffer
	if err := Save(&buf, "no-such-kind", d); err == nil || !strings.Contains(err.Error(), "unknown dictionary kind") {
		t.Fatalf("unknown kind: %v", err)
	}
	durableDict, err := Open(filepath.Join(t.TempDir(), "x.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, durableDict)
	if err := Save(&buf, "durable", durableDict); err == nil || !strings.Contains(err.Error(), "does not support snapshots") {
		t.Fatalf("durable save: %v", err)
	}
	if err := Save(&buf, "btree", d); err == nil || !strings.Contains(err.Error(), "pass the kind it was built as") {
		t.Fatalf("type mismatch: %v", err)
	}
	// Wrapper kinds need the inner layers checked too: the top-level
	// concrete type of a sharded map is *shard.Map whatever its shards
	// hold, so a forgotten (or wrong) WithInner must fail here rather
	// than record a header that contradicts the payload.
	sd := MustBuild("sharded", WithShards(4), WithInner("btree"))
	sd.Insert(1, 1)
	if err := Save(&buf, "sharded", sd, WithShards(4)); err == nil || !strings.Contains(err.Error(), "WithInner") {
		t.Fatalf("forgotten WithInner: %v", err)
	}
	if err := Save(&buf, "sharded", sd, WithShards(4), WithInner("shuttle")); err == nil || !strings.Contains(err.Error(), "WithInner") {
		t.Fatalf("wrong WithInner: %v", err)
	}
	buf.Reset()
	if err := Save(&buf, "sharded", sd, WithShards(4), WithInner("btree")); err != nil {
		t.Fatalf("correct WithInner: %v", err)
	}
	if _, err := Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("round-trip after inner check: %v", err)
	}
	buf.Reset()
	// Same through a second wrapper layer.
	yd := MustBuild("synchronized", WithInner("sharded", WithShards(2), WithInner("btree")))
	if err := Save(&buf, "synchronized", yd, WithInner("sharded", WithShards(2), WithInner("gcola"))); err == nil || !strings.Contains(err.Error(), "WithInner") {
		t.Fatalf("nested wrong WithInner: %v", err)
	}
	buf.Reset()
	// A nested sharded map saved without its WithShards must record the
	// LIVE partition count, not this host's GOMAXPROCS-derived default —
	// the count is part of the payload's hash routing, so anything else
	// writes a container that can never load.
	yd.Insert(42, 7)
	if err := Save(&buf, "synchronized", yd, WithInner("sharded", WithInner("btree"))); err != nil {
		t.Fatalf("nested save without WithShards: %v", err)
	}
	if ld, err := Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("loading nested default-shards container: %v", err)
	} else if v, ok := ld.Search(42); !ok || v != 7 {
		t.Fatal("nested round-trip contents wrong")
	}
	buf.Reset()
	// An explicitly claimed count that contradicts the live map is a
	// mislabeled save and fails here, at any wrapper depth.
	if err := Save(&buf, "sharded", sd, WithShards(8), WithInner("btree")); err == nil || !strings.Contains(err.Error(), "partitions") {
		t.Fatalf("wrong top-level WithShards: %v", err)
	}
	if err := Save(&buf, "synchronized", yd, WithInner("sharded", WithShards(8), WithInner("btree"))); err == nil || !strings.Contains(err.Error(), "partitions") {
		t.Fatalf("wrong nested WithShards: %v", err)
	}
	buf.Reset()
	// A sharded map over a factory cannot be described by name.
	fd := MustBuild("sharded", WithShards(2), WithDictionary(func(int, *Space) Dictionary {
		return MustBuild("cola")
	}))
	if err := Save(&buf, "sharded", fd, WithShards(2), WithDictionary(func(int, *Space) Dictionary {
		return MustBuild("cola")
	})); err == nil || !strings.Contains(err.Error(), "WithDictionary") {
		t.Fatalf("factory save: %v", err)
	}
}

func TestLoadErrorTaxonomy(t *testing.T) {
	if _, err := Load(strings.NewReader("not a container")); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("garbage: %v", err)
	}
	d := MustBuild("cola")
	d.Insert(1, 1)
	var buf bytes.Buffer
	if err := Save(&buf, "cola", d); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Truncated to nothing there is no magic prefix left, so the stream
	// reads as "not a container" rather than a damaged one.
	if _, err := Load(bytes.NewReader(data[:0])); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("truncated to empty: %v", err)
	}
	for _, cut := range []int{5, len(data) / 2, len(data) - 1} {
		if _, err := Load(bytes.NewReader(data[:cut])); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncated at %d: %v", cut, err)
		}
	}
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)-7] ^= 0x10
	if _, err := Load(bytes.NewReader(flipped)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bit flip: %v", err)
	}
}

// TestLoadRejectsUnknownRecordedOption treats a header naming an option
// this build does not know as a version problem, not silent data loss.
func TestLoadRejectsUnknownRecordedOption(t *testing.T) {
	// Craft the container via a registered custom kind name: simpler to
	// corrupt a real header's option name in place.
	d := MustBuild("gcola", WithGrowthFactor(4))
	d.Insert(1, 1)
	var buf bytes.Buffer
	if err := Save(&buf, "gcola", d, WithGrowthFactor(4)); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	i := bytes.Index(data, []byte("WithGrowthFactor"))
	if i < 0 {
		t.Fatal("header does not contain the option name")
	}
	copy(data[i:], "WithFutureOption")
	// The header CRC now mismatches, which is fine for this test as long
	// as SOME typed error comes back; recompute is overkill. Corrupt is
	// acceptable, silent success is not.
	if _, err := Load(bytes.NewReader(data)); err == nil {
		t.Fatal("Load accepted a header with an unknown option name")
	}
}

func TestOpenRecoversAcknowledgedState(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "d.wal")
	d, err := Open(path, WithInner("gcola", WithGrowthFactor(4)))
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 300; i++ {
		d.Insert(i, i+1)
	}
	batch := make([]Element, 200)
	for i := range batch {
		batch[i] = Element{Key: uint64(1000 + i), Value: uint64(i)}
	}
	d.InsertBatch(batch)
	d.Delete(7)
	if d.Records() != 302 {
		t.Fatalf("Records = %d, want 302 (300 inserts + 1 batch + 1 delete)", d.Records())
	}
	// No Close, no checkpoint: simulate a crash by just reopening the
	// files (the OS page cache stands in for the disk either way).
	mustClose(t, d)

	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, r)
	if r.Len() != 499 {
		t.Fatalf("recovered Len = %d, want 499", r.Len())
	}
	if _, ok := r.Search(7); ok {
		t.Fatal("deleted key recovered")
	}
	if v, ok := r.Search(1100); !ok || v != 100 {
		t.Fatalf("batch element: Search(1100) = %d,%v", v, ok)
	}
	// The recovered inner must really be the recorded gcola config —
	// growth 4 was in the WAL-fresh build path, not a checkpoint.
	if g, ok := r.Unwrap().(*COLA); !ok || g.Growth() != 4 {
		t.Fatalf("recovered inner %T growth mismatch", r.Unwrap())
	}
}

func TestCheckpointTruncatesAndReopensFromSnapshot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "d.wal")
	d, err := Open(path, WithInner("btree"))
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 500; i++ {
		d.Insert(i, i)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if d.Records() != 0 {
		t.Fatalf("Records after checkpoint = %d", d.Records())
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != 0 {
		t.Fatalf("WAL not truncated: %v bytes (%v)", fi.Size(), err)
	}
	if _, err := os.Stat(path + ".ckpt"); err != nil {
		t.Fatalf("checkpoint file missing: %v", err)
	}
	// Tail after the checkpoint.
	d.Insert(9000, 1)
	mustClose(t, d)

	// Reopen without WithInner: the checkpoint header says what to build.
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, r)
	if r.Len() != 501 {
		t.Fatalf("recovered Len = %d, want 501", r.Len())
	}
	if _, ok := r.Unwrap().(*BTree); !ok {
		t.Fatalf("checkpoint rebuilt %T, want *BTree", r.Unwrap())
	}
	if v, ok := r.Search(9000); !ok || v != 1 {
		t.Fatal("post-checkpoint tail lost")
	}
}

func TestAutomaticCheckpointing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.wal")
	d, err := Open(path, WithCheckpointEvery(10))
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 25; i++ {
		d.Insert(i, i)
	}
	// 25 records with a period of 10: two automatic checkpoints, 5 tail
	// records.
	if d.Records() != 5 {
		t.Fatalf("Records = %d, want 5", d.Records())
	}
	if err := d.Err(); err != nil {
		t.Fatalf("Err = %v", err)
	}
	mustClose(t, d)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, r)
	if r.Len() != 25 {
		t.Fatalf("recovered Len = %d", r.Len())
	}
}

// TestOpenCompactsRecoveredStructure pins that a reopened lookahead
// array is a single level whatever shape it stopped in: a checkpoint
// spread over several levels plus a log tail holding overwrites and a
// delete come back with an exact Len — which, short of a merge reaching
// the bottom level, only a compaction gives — and every key intact.
func TestOpenCompactsRecoveredStructure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.wal")
	d, err := Open(path, WithInner("gcola"))
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 1000; i++ {
		d.Insert(i, i)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	for i := uint64(0); i < 10; i++ {
		d.Insert(i, i+100)
	}
	d.Delete(500)
	if d.Len() == 999 {
		t.Fatal("Len already exact before the reopen: the overwrites were merged with their originals, so this test shows nothing")
	}
	mustClose(t, d)

	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, r)
	if r.Len() != 999 {
		t.Fatalf("recovered Len = %d, want exactly 999", r.Len())
	}
	for i := uint64(0); i < 1000; i++ {
		v, ok := r.Search(i)
		want := i
		if i < 10 {
			want = i + 100
		}
		if i == 500 {
			if ok {
				t.Fatalf("deleted key 500 recovered with value %d", v)
			}
			continue
		}
		if !ok || v != want {
			t.Fatalf("Search(%d) = (%d, %v), want %d", i, v, ok, want)
		}
	}
}

// TestOpenLeavesOneLevelStructureAlone reopens a store whose checkpoint
// is a lookahead array that already sits in one level — 1,024 distinct
// keys, so the last insert's carry merged everything to the bottom; an
// idle store looks like this too. There is nothing to compact: the open
// moves no cell, and Len is exact as it stands. One key more and the
// structure is two levels again, which the next open does compact.
func TestOpenLeavesOneLevelStructureAlone(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.wal")
	d, err := Open(path, WithInner("gcola"))
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 1024; i++ {
		d.Insert(i, i)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	mustClose(t, d)

	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if moves := r.Stats().Moves; moves != 0 {
		t.Fatalf("reopening a one-level checkpoint moved %d cells, want 0", moves)
	}
	if r.Len() != 1024 {
		t.Fatalf("recovered Len = %d, want 1024", r.Len())
	}
	r.Insert(5000, 1)
	mustClose(t, r)

	r, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, r)
	if moves := r.Stats().Moves; moves < 1025 {
		t.Fatalf("reopening a two-level structure moved %d cells: it was not compacted", moves)
	}
	if r.Len() != 1025 {
		t.Fatalf("recovered Len = %d, want 1025", r.Len())
	}
}

// TestOpenSurvivesTornTail drops garbage at the end of the WAL (a crash
// mid-append) and expects recovery of exactly the intact prefix.
func TestOpenSurvivesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.wal")
	d, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 100; i++ {
		d.Insert(i, i)
	}
	mustClose(t, d)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x15, 0x00, 0x00, 0x00, 0xDE, 0xAD}); err != nil {
		t.Fatal(err) // the torn record is the point of the test setup
	}
	mustClose(t, f)

	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, r)
	if r.Len() != 100 {
		t.Fatalf("recovered Len = %d, want 100", r.Len())
	}
}

func TestOpenConfigMismatches(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "d.wal")
	d, err := Open(path, WithInner("btree"))
	if err != nil {
		t.Fatal(err)
	}
	d.Insert(1, 1)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustClose(t, d)
	if _, err := Open(path, WithInner("gcola")); err == nil || !strings.Contains(err.Error(), "checkpoint") {
		t.Fatalf("inner-kind conflict with checkpoint: %v", err)
	}

	// Inner OPTIONS that contradict the checkpoint's recorded spec are a
	// configuration error too, not a silent fall-back to the recorded
	// values; matching or omitted options reopen fine.
	gpath := filepath.Join(dir, "g.wal")
	g, err := Open(gpath, WithInner("gcola", WithGrowthFactor(4)))
	if err != nil {
		t.Fatal(err)
	}
	g.Insert(1, 1)
	if err := g.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustClose(t, g)
	if _, err := Open(gpath, WithInner("gcola", WithGrowthFactor(3))); err == nil || !strings.Contains(err.Error(), "checkpoint") {
		t.Fatalf("inner-option conflict with checkpoint: %v", err)
	}
	// An option the creating Open left to its default is not recorded,
	// so a later explicit value — even the true default — cannot be
	// verified and is rejected with a pointer at the remedy.
	if _, err := Open(path, WithInner("btree", WithFanout(8))); err == nil || !strings.Contains(err.Error(), "was not set when the checkpoint was created") {
		t.Fatalf("unrecorded inner option: %v", err)
	}
	for _, opts := range [][]Option{
		{WithInner("gcola", WithGrowthFactor(4))}, // exact match
		{WithInner("gcola")},                      // options left to the recorded spec
		nil,                                       // kind left to the recorded spec too
	} {
		g, err := Open(gpath, opts...)
		if err != nil {
			t.Fatalf("reopen with %d options: %v", len(opts), err)
		}
		if v, ok := g.Search(1); !ok || v != 1 {
			t.Fatal("contents wrong after reopen")
		}
		mustClose(t, g)
	}
	if _, err := Open(filepath.Join(dir, "x.wal"), WithInner("durable")); err == nil {
		t.Fatal("durable-in-durable accepted")
	}
	if _, err := Build("durable"); err == nil || !strings.Contains(err.Error(), "WithWALPath") {
		t.Fatalf("missing WAL path: %v", err)
	}
	if _, err := Open(filepath.Join(dir, "y.wal"), WithInner("gcola", WithSpace(nil))); err == nil {
		t.Fatal("inner WithSpace accepted on a durable inner")
	}
	// A space buried one wrapper deeper is just as unpersistable.
	if _, err := Open(filepath.Join(dir, "z.wal"), WithInner("synchronized", WithInner("cola", WithSpace(nil)))); err == nil {
		t.Fatal("nested inner WithSpace accepted on a durable inner")
	}
}

// TestDurableConcurrentUse exercises the wrapper's own lock under the
// race detector.
func TestDurableConcurrentUse(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.wal")
	d, err := Open(path, WithInner("sharded", WithShards(4)))
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, d)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := uint64(0); i < 400; i++ {
			d.Insert(i, i)
		}
	}()
	for i := uint64(0); i < 400; i++ {
		d.Search(i)
		if i%100 == 0 {
			d.Len()
		}
	}
	<-done
	if d.Len() != 400 {
		t.Fatalf("Len = %d", d.Len())
	}
}
