package durable

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/cola"
	"repro/internal/core"
	"repro/internal/snap"
	"repro/internal/wal"
	"repro/internal/workload"
)

// replayInto folds recovered records into d, mirroring the registry's
// replay handler (which lives a package up and cannot be imported here).
type replayInto struct{ d core.Dictionary }

func (h replayInto) ApplyInsert(elems []core.Element) { core.InsertBatch(h.d, elems) }
func (h replayInto) ApplyDelete(keys []uint64) {
	del := h.d.(core.Deleter)
	for _, k := range keys {
		del.Delete(k)
	}
}

// openDict assembles a durable wrapper around the given inner at a
// fresh (or existing) WAL path, replaying any log tail into it first.
func openDict(t *testing.T, path string, inner core.Dictionary, every int) *Dict {
	t.Helper()
	w, _, err := wal.Open(path, replayInto{inner})
	if err != nil {
		t.Fatalf("wal.Open(%s): %v", path, err)
	}
	sn := inner.(core.Snapshotter)
	return New(Options{
		Inner:           inner,
		Log:             w,
		CheckpointPath:  path + ".ckpt",
		CheckpointEvery: every,
		WriteSnapshot:   func(out io.Writer) error { _, err := sn.WriteTo(out); return err },
	})
}

// exclusiveInner hides SharedReader methods to force exclusive reads
// while keeping the snapshot capability openDict needs.
type exclusiveInner struct {
	core.Dictionary
	core.Snapshotter
}

func hideSharedReader(c *cola.GCOLA) exclusiveInner {
	return exclusiveInner{Dictionary: c, Snapshotter: c}
}

func TestForwardingBasics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.wal")
	d := openDict(t, path, cola.NewCOLA(nil), 0)
	defer mustClose(t, d)

	d.Insert(1, 10)
	d.InsertBatch([]core.Element{{Key: 2, Value: 20}, {Key: 3, Value: 30}})
	if v, ok := d.Search(2); !ok || v != 20 {
		t.Fatalf("Search(2) = (%d,%v)", v, ok)
	}
	if d.Len() != 3 {
		t.Fatalf("Len = %d, want 3", d.Len())
	}
	if !d.Delete(3) || d.Delete(3) {
		t.Fatal("Delete semantics broken")
	}
	if st := d.Stats(); st.Inserts == 0 || st.Searches == 0 {
		t.Fatalf("Stats not forwarded: %+v", st)
	}
	count := 0
	d.Range(0, 100, func(core.Element) bool { count++; return true })
	if count != 2 {
		t.Fatalf("Range visited %d, want 2", count)
	}
	if d.Records() == 0 {
		t.Fatal("mutations did not reach the log")
	}
	if err := d.Err(); err != nil {
		t.Fatalf("Err = %v", err)
	}
}

func TestSharedReadsProbeAndForwarding(t *testing.T) {
	dir := t.TempDir()
	shared := openDict(t, filepath.Join(dir, "s.wal"), cola.NewCOLA(nil), 0)
	defer mustClose(t, shared)
	if !shared.SharedReads() || !core.SharedReads(shared) {
		t.Fatal("durable over COLA must report shared reads")
	}

	excl := openDict(t, filepath.Join(dir, "e.wal"), hideSharedReader(cola.NewCOLA(nil)), 0)
	defer mustClose(t, excl)
	if excl.SharedReads() || core.SharedReads(excl) {
		t.Fatal("durable over a hidden-SharedReader inner must report exclusive reads")
	}
	// Brackets on the exclusive wrapper are no-ops, not panics.
	excl.BeginSharedReads()
	excl.EndSharedReads()

	deam := openDict(t, filepath.Join(dir, "d.wal"), cola.NewDeamortized(nil), 0)
	defer mustClose(t, deam)
	if deam.SharedReads() {
		t.Fatal("durable over deamortized COLA must report exclusive reads")
	}
}

// TestSharedSearchesRaceLoggedInserts is the -race stress of the
// durable wrapper's RLock fast path: concurrent readers race a writer
// whose every mutation goes through the write-ahead log, plus an
// aggregation poller. Run it against both the shared and the exclusive
// configuration.
func TestSharedSearchesRaceLoggedInserts(t *testing.T) {
	for _, tc := range []struct {
		name  string
		inner core.Dictionary
	}{
		{"shared", cola.NewCOLA(nil)},
		{"exclusive", hideSharedReader(cola.NewCOLA(nil))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "race.wal")
			d := openDict(t, path, tc.inner, 64) // checkpoints race the traffic too
			defer mustClose(t, d)

			const keyspace = 1 << 11
			for k := uint64(0); k < keyspace; k += 2 {
				d.Insert(k, k)
			}
			perG := 3000
			if testing.Short() {
				perG = 600
			}
			var wg sync.WaitGroup
			for w := 0; w < 5; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := workload.NewRNG(uint64(w) + 3)
					for i := 0; i < perG; i++ {
						k := rng.Uint64() % keyspace
						if v, ok := d.Search(k); ok && v != k && v != k+1 {
							t.Errorf("Search(%d) = %d", k, v)
							return
						}
						if i%128 == 0 {
							d.Range(k, k+64, func(core.Element) bool { return true })
							_ = d.Len()
							_ = d.Stats()
						}
					}
				}(w)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := workload.NewRNG(555)
				for i := 0; i < perG; i++ {
					k := rng.Uint64() % keyspace
					if rng.Uint64()%4 == 3 {
						d.Delete(k)
					} else {
						d.Insert(k, k+1)
					}
				}
			}()
			wg.Wait()

			if err := d.Err(); err != nil {
				t.Fatalf("Err after stress = %v", err)
			}
			d.Insert(keyspace+5, 1)
			if _, ok := d.Search(keyspace + 5); !ok {
				t.Fatal("post-stress Search lost an insert")
			}
		})
	}
}

// TestRecoveryAfterSharedTraffic proves the durability contract is
// untouched by the read fast path: reopen the same WAL and find every
// acknowledged mutation.
func TestRecoveryAfterSharedTraffic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.wal")
	d := openDict(t, path, cola.NewCOLA(nil), 0)
	const n = 1 << 10
	for i := uint64(0); i < n; i++ {
		d.Insert(i, i*3)
	}
	// Concurrent shared reads between the writes, then close WITHOUT a
	// checkpoint: recovery must come purely from the log.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := uint64(0); i < n; i++ {
				d.Search(i)
			}
		}(w)
	}
	wg.Wait()
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	inner := cola.NewCOLA(nil)
	d2 := openDict(t, path, inner, 0)
	defer mustClose(t, d2)
	if d2.Len() != n {
		t.Fatalf("recovered Len = %d, want %d", d2.Len(), n)
	}
	for i := uint64(0); i < n; i++ {
		if v, ok := d2.Search(i); !ok || v != i*3 {
			t.Fatalf("recovered Search(%d) = (%d,%v), want (%d,true)", i, v, ok, i*3)
		}
	}
}

// TestCheckpointResetsSchedule pins the automatic checkpoint cadence.
func TestCheckpointResetsSchedule(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.wal")
	d := openDict(t, path, cola.NewCOLA(nil), 4)
	defer mustClose(t, d)
	for i := uint64(0); i < 10; i++ {
		d.Insert(i, i)
	}
	// 10 records with a period of 4: two automatic checkpoints, log
	// truncated at 4 and 8, leaving 2 records.
	if got := d.Records(); got != 2 {
		t.Fatalf("Records = %d after periodic checkpoints, want 2", got)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if got := d.Records(); got != 0 {
		t.Fatalf("Records = %d after manual checkpoint, want 0", got)
	}
}

// TestFailedCheckpointRearmsSchedule: a failing automatic checkpoint is
// retried once per CheckpointEvery records, not on every record after
// the first failure (which made each PUT a whole-structure encode under
// the write lock for as long as the disk stayed full); the first error
// stays in Err, no write is lost, and once snapshots succeed again the
// schedule carries on and the log empties.
func TestFailedCheckpointRearmsSchedule(t *testing.T) {
	const every = 4
	path := filepath.Join(t.TempDir(), "f.wal")
	inner := cola.NewCOLA(nil)
	w, _, err := wal.Open(path, replayInto{inner})
	if err != nil {
		t.Fatal(err)
	}
	attempts, failing := 0, true
	first := errors.New("no space left on device")
	d := New(Options{
		Inner:           inner,
		Log:             w,
		CheckpointPath:  path + ".ckpt",
		CheckpointEvery: every,
		WriteSnapshot: func(out io.Writer) error {
			attempts++
			if failing {
				if attempts == 1 {
					return first
				}
				return errors.New("still no space")
			}
			_, err := inner.WriteTo(out)
			return err
		},
	})
	defer mustClose(t, d)

	for i := uint64(0); i < 3*every; i++ {
		d.Insert(i, i)
	}
	if attempts != 3 {
		t.Fatalf("%d checkpoint attempts over %d records at a period of %d, want 3", attempts, 3*every, every)
	}
	if err := d.Err(); !errors.Is(err, first) {
		t.Fatalf("Err = %v, want the first failure", err)
	}
	if got := d.Records(); got != 3*every {
		t.Fatalf("Records = %d, want all %d still logged", got, 3*every)
	}

	failing = false
	for i := uint64(3 * every); i < 4*every; i++ {
		d.Insert(i, i)
	}
	if attempts != 4 || d.Records() != 0 {
		t.Fatalf("after recovery: %d attempts, %d records logged; want 4 and 0", attempts, d.Records())
	}
	if err := d.Err(); !errors.Is(err, first) {
		t.Fatalf("Err = %v after recovery, want the first failure retained", err)
	}
	for i := uint64(0); i < 4*every; i++ {
		if v, ok := d.Search(i); !ok || v != i {
			t.Fatalf("Search(%d) = (%d, %v)", i, v, ok)
		}
	}
}

// TestMonitoringAccessorsShareTheLock: Err and Records, like Len, take
// the read side, so polling them runs alongside shared searches instead
// of draining them.
func TestMonitoringAccessorsShareTheLock(t *testing.T) {
	d := openDict(t, filepath.Join(t.TempDir(), "m.wal"), cola.NewCOLA(nil), 0)
	defer mustClose(t, d)
	d.Insert(1, 1)

	held, release := make(chan struct{}), make(chan struct{})
	go d.g.View(func() { close(held); <-release }) // a search in flight
	<-held
	defer close(release)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := d.Err(); err != nil {
			t.Errorf("Err = %v", err)
		}
		if got := d.Records(); got != 1 {
			t.Errorf("Records = %d, want 1", got)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Err/Records wait for readers to drain: they take the exclusive lock")
	}
}

// BenchmarkCheckpoint is one whole checkpoint of a million-key gcola to
// a real file: container, codec, fsync, rename, directory fsync and log
// reset. MB/s counts the checkpoint file's bytes.
func BenchmarkCheckpoint(b *testing.B) {
	const n = 1 << 20
	inner := cola.NewCOLA(nil)
	seq := workload.NewRandomUnique(14)
	elems := make([]core.Element, n)
	for i := range elems {
		k := seq.Next()
		elems[i] = core.Element{Key: k, Value: k}
	}
	inner.BulkLoad(elems)
	path := filepath.Join(b.TempDir(), "b.wal")
	w, _, err := wal.Open(path, replayInto{inner})
	if err != nil {
		b.Fatal(err)
	}
	spec := &snap.Spec{Kind: "gcola"}
	d := New(Options{
		Inner:          inner,
		Log:            w,
		CheckpointPath: path + ".ckpt",
		WriteSnapshot: func(out io.Writer) error {
			_, err := snap.Encode(out, spec, inner)
			return err
		},
	})
	defer mustClose(b, d)
	if err := d.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	info, err := os.Stat(path + ".ckpt")
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(info.Size())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
}
