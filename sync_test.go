package repro

import (
	"sync"
	"testing"

	"repro/internal/workload"
)

func TestSynchronizedBasics(t *testing.T) {
	s := Synchronized(MustBuild("cola"))
	s.Insert(1, 10)
	if v, ok := s.Search(1); !ok || v != 10 {
		t.Fatalf("Search = (%d,%v)", v, ok)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
	count := 0
	s.Range(0, 10, func(Element) bool { count++; return true })
	if count != 1 {
		t.Fatalf("Range visited %d", count)
	}
	if !s.Delete(1) {
		t.Fatal("Delete failed")
	}
	if s.Delete(1) {
		t.Fatal("double Delete succeeded")
	}
	if s.Unwrap() == nil {
		t.Fatal("Unwrap returned nil")
	}
}

func TestSynchronizedDeleteOnNonDeleter(t *testing.T) {
	s := Synchronized(MustBuild("swbst", WithFanout(8)))
	s.Insert(1, 1)
	// SWBST's Delete is not exposed through core.Deleter... it has
	// Delete(uint64) bool, so it does satisfy Deleter; use the shuttle
	// tree, which genuinely does not support deletes.
	sh := Synchronized(MustBuild("shuttle", WithFanout(8)))
	sh.Insert(2, 2)
	if sh.Delete(2) {
		t.Fatal("Delete on a non-Deleter returned true")
	}
	if _, ok := sh.Search(2); !ok {
		t.Fatal("key vanished")
	}
	_ = s
}

// TestSynchronizedForwardsCapabilities checks the wrapper no longer
// drops the wrapped structure's capabilities: Stats, Transfers, and
// InsertBatch reach the inner structure under the lock, and degrade to
// zero values when the inner structure lacks them.
func TestSynchronizedForwardsCapabilities(t *testing.T) {
	// Inner with everything: a sharded map with per-shard DAM stores
	// (Statser, TransferCounter, BatchInserter, Deleter).
	inner := MustBuild("sharded", WithShards(2), WithShardDAM(DefaultBlockBytes, 1<<14))
	s := Synchronized(inner)

	batch := make([]Element, 0, 50_000)
	for i := uint64(0); i < 50_000; i++ {
		batch = append(batch, Element{Key: i, Value: i})
	}
	s.InsertBatch(batch)
	if s.Len() != len(batch) {
		t.Fatalf("Len = %d after InsertBatch, want %d", s.Len(), len(batch))
	}
	if st := s.Stats(); st.Inserts == 0 {
		t.Error("Stats not forwarded: zero inserts recorded")
	}
	if s.Transfers() == 0 {
		t.Error("Transfers not forwarded: zero despite per-shard DAM stores")
	}
	if c := CapsOf(s); !c.Delete || !c.Stats || !c.Batch || !c.SharedReads {
		t.Errorf("CapsOf = %v, want delete, batch, stats, shared-reads", c)
	}

	// Via the interfaces, as generic callers see it.
	var d Dictionary = s
	if st, ok := d.(Statser); !ok || st.Stats().Inserts == 0 {
		t.Error("Statser not visible through the Dictionary interface")
	}
	if tc, ok := d.(TransferCounter); !ok || tc.Transfers() == 0 {
		t.Error("TransferCounter not visible through the Dictionary interface")
	}

	// Inner with none of it: swbst keeps no counters and owns no store.
	bare := Synchronized(MustBuild("swbst", WithFanout(8)))
	bare.Insert(1, 1)
	if st := bare.Stats(); st != (Stats{}) {
		t.Errorf("Stats over swbst = %+v, want zero", st)
	}
	if bare.Transfers() != 0 {
		t.Error("Transfers over swbst nonzero")
	}
	if c := CapsOf(bare); c.Stats || !c.SharedReads {
		t.Errorf("CapsOf over swbst = %v: claims forwarded Stats or denies shared reads", c)
	}
	bare.InsertBatch([]Element{{Key: 2, Value: 20}, {Key: 3, Value: 30}})
	if bare.Len() != 3 {
		t.Fatalf("fallback InsertBatch: Len = %d, want 3", bare.Len())
	}
}

// TestSharedReadsFacadeProbe pins the instance-level capability probe
// (CapsOf, the one public probe) across leaf structures and wrappers.
func TestSharedReadsFacadeProbe(t *testing.T) {
	if !CapsOf(MustBuild("cola")).SharedReads {
		t.Fatal("COLA must probe shared-read capable")
	}
	if CapsOf(MustBuild("deamortized")).SharedReads {
		t.Fatal("deamortized COLA must probe exclusive")
	}
	if !CapsOf(MustBuild("sharded", WithShards(2))).SharedReads {
		t.Fatal("sharded map over COLA must probe shared-read capable")
	}
	if !CapsOf(Synchronized(MustBuild("btree"))).SharedReads {
		t.Fatal("synchronized B-tree must probe shared-read capable")
	}
	if CapsOf(Synchronized(MustBuild("deamortized"))).SharedReads {
		t.Fatal("synchronized deamortized COLA must probe exclusive")
	}
	// The shuttle tree is conditional: safe without a space only.
	if !CapsOf(MustBuild("shuttle", WithFanout(8))).SharedReads {
		t.Fatal("unaccounted shuttle tree must probe shared-read capable")
	}
	store := NewStore(DefaultBlockBytes, 1<<16)
	accounted := MustBuild("shuttle", WithFanout(8), WithSpace(store.Space("s")))
	if CapsOf(accounted).SharedReads {
		t.Fatal("DAM-charged shuttle tree must probe exclusive (lazy layout placement on the probe path)")
	}
}

// TestSynchronizedConcurrentMixed hammers the wrapper from many
// goroutines; run with -race to verify mutual exclusion.
func TestSynchronizedConcurrentMixed(t *testing.T) {
	s := Synchronized(MustBuild("cola"))
	workers, perG := 8, 2000
	if testing.Short() {
		perG = 400
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := workload.NewRNG(uint64(w) + 1)
			for i := 0; i < perG; i++ {
				k := rng.Uint64() % 4096
				switch rng.Uint64() % 5 {
				case 0, 1:
					s.Insert(k, k)
				case 2:
					s.Search(k)
				case 3:
					s.Range(k, k+64, func(Element) bool { return true })
				case 4:
					s.Delete(k)
				}
			}
		}(w)
	}
	wg.Wait()
	// The wrapper must still be coherent after the stress.
	s.Insert(1, 1)
	if _, ok := s.Search(1); !ok {
		t.Fatal("post-stress Search lost a fresh insert")
	}
	found := 0
	s.Range(0, 4096, func(Element) bool { found++; return true })
	if found == 0 {
		t.Fatal("concurrent inserts lost")
	}
}

// TestShardedConcurrentMixed is the same stress aimed at the sharded
// map through the facade re-exports, so -race exercises the per-shard
// locking discipline alongside the global-mutex wrapper's.
func TestShardedConcurrentMixed(t *testing.T) {
	m := MustBuild("sharded", WithShards(8), WithBatchSize(64)).(*ShardedMap)
	workers, perG := 8, 2000
	if testing.Short() {
		perG = 400
	}
	loader := m.NewLoader()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := workload.NewRNG(uint64(w) + 101)
			for i := 0; i < perG; i++ {
				k := rng.Uint64() % 4096
				switch rng.Uint64() % 6 {
				case 0, 1:
					m.Insert(k, k)
				case 2:
					m.Search(k)
				case 3:
					m.Range(k, k+64, func(Element) bool { return true })
				case 4:
					m.Delete(k)
				case 5:
					loader.C() <- Element{Key: k, Value: k}
				}
			}
		}(w)
	}
	wg.Wait()
	loader.Close()
	m.Insert(9999999, 7)
	if v, ok := m.Search(9999999); !ok || v != 7 {
		t.Fatalf("post-stress Search = (%d,%v)", v, ok)
	}
	found := 0
	m.Range(0, 4096, func(Element) bool { found++; return true })
	if found == 0 {
		t.Fatal("concurrent inserts lost")
	}
}

// TestShardedFacade checks the re-exported constructor and options
// compose: a B-tree-backed sharded map with per-shard DAM accounting.
func TestShardedFacade(t *testing.T) {
	m := MustBuild("sharded",
		WithShards(4),
		WithDictionary(func(_ int, sp *Space) Dictionary {
			return MustBuild("btree", WithSpace(sp))
		}),
		WithShardDAM(DefaultBlockBytes, 1<<16),
	).(*ShardedMap)
	for i := uint64(0); i < 4096; i++ {
		m.Insert(i, i)
	}
	if m.Len() != 4096 {
		t.Fatalf("Len = %d", m.Len())
	}
	if m.Transfers() == 0 {
		t.Fatal("DAM-charged sharded map reports zero transfers")
	}
	var prev uint64
	count := 0
	m.Range(100, 199, func(e Element) bool {
		if count > 0 && e.Key <= prev {
			t.Fatalf("Range out of order: %d after %d", e.Key, prev)
		}
		prev = e.Key
		count++
		return true
	})
	if count != 100 {
		t.Fatalf("Range visited %d, want 100", count)
	}
}
