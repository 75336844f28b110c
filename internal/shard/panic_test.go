package shard

import (
	"io"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cola"
	"repro/internal/core"
	"repro/internal/dam"
	"repro/internal/durable"
	"repro/internal/syncdict"
	"repro/internal/wal"
)

// tripwire makes an inner's Insert, InsertBatch and Search panic once
// while armed, the way a spilled gcola panics on a read error.
type tripwire struct{ armed bool }

func (t *tripwire) trip() {
	if t.armed {
		t.armed = false
		panic("tripwire")
	}
}

// sharedTrap is shared-read safe: the embedded gcola brings its
// Begin/EndSharedReads along.
type sharedTrap struct {
	*cola.GCOLA
	*tripwire
}

func (p sharedTrap) Insert(k, v uint64)             { p.trip(); p.GCOLA.Insert(k, v) }
func (p sharedTrap) InsertBatch(es []core.Element)  { p.trip(); p.GCOLA.InsertBatch(es) }
func (p sharedTrap) Search(k uint64) (uint64, bool) { p.trip(); return p.GCOLA.Search(k) }

// exclusiveTrap hides the gcola's SharedReader, so its reads stay
// exclusive; batches fall back to the Insert loop.
type exclusiveTrap struct {
	core.Dictionary
	*tripwire
}

func (p exclusiveTrap) Insert(k, v uint64)             { p.trip(); p.Dictionary.Insert(k, v) }
func (p exclusiveTrap) Search(k uint64) (uint64, bool) { p.trip(); return p.Dictionary.Search(k) }

type nopReplay struct{}

func (nopReplay) ApplyInsert([]core.Element) {}
func (nopReplay) ApplyDelete([]uint64)       {}

// TestPanickingInnerReleasesLock: after a recovered panic in the inner
// structure, every wrapper's lock is free again — the next Insert
// finishes instead of blocking on a lock (or a shared-read epoch) the
// panic left held.
func TestPanickingInnerReleasesLock(t *testing.T) {
	inners := []struct {
		name string
		make func(*tripwire) core.Dictionary
	}{
		{"shared", func(tw *tripwire) core.Dictionary { return sharedTrap{cola.NewCOLA(nil), tw} }},
		{"exclusive", func(tw *tripwire) core.Dictionary { return exclusiveTrap{cola.NewCOLA(nil), tw} }},
	}
	wrappers := []struct {
		name string
		wrap func(*testing.T, core.Dictionary) core.Dictionary
	}{
		{"map", func(_ *testing.T, inner core.Dictionary) core.Dictionary {
			return New(WithShards(1), WithDictionary(func(int, *dam.Space) core.Dictionary { return inner }))
		}},
		{"syncdict", func(_ *testing.T, inner core.Dictionary) core.Dictionary { return syncdict.New(inner) }},
		{"durable", func(t *testing.T, inner core.Dictionary) core.Dictionary {
			path := filepath.Join(t.TempDir(), "trap.wal")
			w, _, err := wal.Open(path, nopReplay{})
			if err != nil {
				t.Fatal(err)
			}
			// Close the log directly: the wrapper's Close would wait for
			// the lock this test may find leaked.
			t.Cleanup(func() {
				if err := w.Close(); err != nil {
					t.Error(err)
				}
			})
			return durable.New(durable.Options{Inner: inner, Log: w, CheckpointPath: path + ".ckpt",
				WriteSnapshot: func(io.Writer) error { return nil }})
		}},
	}
	ops := []struct {
		name string
		do   func(core.Dictionary)
	}{
		{"Insert", func(d core.Dictionary) { d.Insert(1, 1) }},
		{"InsertBatch", func(d core.Dictionary) { core.InsertBatch(d, []core.Element{{Key: 2, Value: 2}}) }},
		{"Search", func(d core.Dictionary) { d.Search(1) }},
	}
	for _, in := range inners {
		for _, w := range wrappers {
			for _, op := range ops {
				t.Run(in.name+"/"+w.name+"/"+op.name, func(t *testing.T) {
					tw := &tripwire{}
					d := w.wrap(t, in.make(tw))
					tw.armed = true
					func() {
						defer func() {
							if recover() == nil {
								t.Fatal("the armed inner did not panic")
							}
						}()
						op.do(d)
					}()
					done := make(chan struct{})
					go func() {
						defer close(done)
						d.Insert(3, 3)
					}()
					select {
					case <-done:
					case <-time.After(2 * time.Second):
						t.Fatal("Insert still blocked 2 s after a recovered panic: the panic left the lock held")
					}
				})
			}
		}
	}
}
