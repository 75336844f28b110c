package cola

import (
	"bytes"
	"io"
	"math/bits"
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// prefillGCOLA inserts n distinct random keys and returns the keys.
// DAM accounting is off (nil space): these tests protect the
// structure's own allocation behaviour, not the simulator's.
func prefillGCOLA(t *testing.T, c *GCOLA, n int) []uint64 {
	t.Helper()
	seq := workload.NewRandomUnique(7)
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = seq.Next()
		c.Insert(keys[i], keys[i])
	}
	return keys
}

// TestSearchAllocsSteadyState asserts the zero-allocation contract of
// the search hot path, with lookahead pointers present (the paper's
// default density, so the fractional-cascading window path is what
// runs, not the basic-COLA fallback).
func TestSearchAllocsSteadyState(t *testing.T) {
	c := New(Options{Growth: 2, PointerDensity: DefaultPointerDensity})
	keys := prefillGCOLA(t, c, 1<<13)

	la := 0
	for l := range c.levels {
		la += c.levels[l].la
	}
	if la == 0 {
		t.Fatal("precondition: no lookahead pointers present; the test would exercise the wrong path")
	}

	i := 0
	avg := testing.AllocsPerRun(1000, func() {
		c.Search(keys[i%len(keys)])
		i++
	})
	if avg != 0 {
		t.Fatalf("GCOLA.Search allocates %.2f allocs/op in steady state, want 0", avg)
	}
}

// TestSpilledSearchAllocs extends the zero-allocation contract to the
// out-of-core search path, inside and outside a shared-read epoch: with
// a page cache that holds everything (every lookup a hit) and with the
// smallest one there is (nearly every lookup a miss, read into the page
// it evicts). The window is a stack buffer and a miss recycles a page,
// so neither may allocate once the cache's pages exist.
func TestSpilledSearchAllocs(t *testing.T) {
	for _, tc := range []struct {
		name       string
		cacheBytes int64
	}{
		{"all hits", 8 << 20},
		{"steady-state misses", 1},
	} {
		c := openSpilled(t, Options{Growth: 2, PointerDensity: DefaultPointerDensity, SpillCacheBytes: tc.cacheBytes})
		keys := prefillGCOLA(t, c, 1<<12)
		for _, k := range keys { // fault in every page the cache will ever hold
			c.Search(k)
		}
		i := 0
		measure := func() float64 {
			return testing.AllocsPerRun(1000, func() {
				c.Search(keys[i%len(keys)])
				i++
			})
		}
		for _, epoch := range []bool{false, true} {
			c.ResetSpillCounters()
			var avg float64
			if epoch {
				c.BeginSharedReads()
				avg = measure()
				c.EndSharedReads()
			} else {
				avg = measure()
			}
			if avg != 0 {
				t.Errorf("%s, epoch=%v: spilled Search allocates %.2f allocs/op, want 0", tc.name, epoch, avg)
			}
			reads, _ := c.ActualTransfers()
			if hits := tc.cacheBytes > 1; hits != (reads == 0) {
				t.Errorf("%s, epoch=%v: %d chunk reads; the test is on the wrong path", tc.name, epoch, reads)
			}
		}
	}
}

// TestSpilledMergeAllocs extends the allocation contract to the
// out-of-core write path: once the ladder's slabs and the spill store's
// run buffers exist, a cascade into a spilled level allocates what
// opening and committing its files takes — readers, a writer, names,
// handles — and nothing that grows with the cells it moves. A merge into
// level t rewrites every spilled level up to t (the target, and the
// lookahead samples of the levels above it), so the allowance is 2 KiB a
// level: merges into levels 10 to 15, whose images grow from 36 KiB to
// over 1 MiB, must all stay inside it.
func TestSpilledMergeAllocs(t *testing.T) {
	c := openSpilled(t, Options{Growth: 2, PointerDensity: DefaultPointerDensity})
	seq := workload.NewRandomUnique(17)
	insert := func() { k := seq.Next(); c.Insert(k, k) }
	n := 0
	for ; n < 1<<15; n++ { // the deepest ladder of the run: every buffer now exists
		insert()
	}
	var ms runtime.MemStats
	merges := 0
	for n++; n < 1<<16; n++ {
		level := bits.TrailingZeros(uint(n)) // distinct keys: the binary counter's carry
		if level < 10 {
			insert()
			continue
		}
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		insert()
		runtime.ReadMemStats(&ms)
		if got, bound := ms.TotalAlloc-before, uint64(level+1)<<11; got > bound {
			t.Errorf("the merge into level %d (%d cells) allocated %d bytes, want at most %d", level, c.levels[level].used(), got, bound)
		}
		merges++
	}
	if merges < 31 {
		t.Fatalf("only %d deep merges measured; the test is on the wrong path", merges)
	}
	c.checkInvariants()
}

// TestInsertAllocsSteadyState asserts that inserts between level-growth
// boundaries are allocation-free: the merge ladder, run gathering,
// lookahead stripping, and pointer distribution must all run out of the
// per-tree scratch. The prefill is sized to 2^14+1 elements so the next
// level allocation sits at ~2^15 inserts, far beyond the measured
// window.
func TestInsertAllocsSteadyState(t *testing.T) {
	c := New(Options{Growth: 2, PointerDensity: DefaultPointerDensity})
	prefillGCOLA(t, c, 1<<14+1)

	seq := workload.NewRandomUnique(11)
	avg := testing.AllocsPerRun(1<<12, func() {
		k := seq.Next()
		c.Insert(k, k)
	})
	if avg != 0 {
		t.Fatalf("GCOLA.Insert allocates %.2f allocs/op in steady state, want 0", avg)
	}
}

// TestRangeAllocsSteadyState asserts that Range's cursor setup and
// k-way merge reuse the pooled per-call cursor buffers.
func TestRangeAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	c := New(Options{Growth: 2, PointerDensity: DefaultPointerDensity})
	keys := prefillGCOLA(t, c, 1<<12)

	var sum uint64
	fn := func(e core.Element) bool { sum += e.Value; return true }
	i := 0
	avg := testing.AllocsPerRun(500, func() {
		lo := keys[i%len(keys)]
		c.Range(lo, lo+1<<20, fn)
		i++
	})
	if avg != 0 {
		t.Fatalf("GCOLA.Range allocates %.2f allocs/op in steady state, want 0", avg)
	}
	_ = sum
}

// prefillDict drives n distinct random keys into any dictionary and
// returns the keys, mirroring prefillGCOLA for the deamortized kinds.
func prefillDict(t *testing.T, d core.Dictionary, n int) []uint64 {
	t.Helper()
	seq := workload.NewRandomUnique(7)
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = seq.Next()
		d.Insert(keys[i], keys[i])
	}
	return keys
}

// TestDeamortizedSearchAllocs pins the deamortized COLA's search path at
// zero allocations: its level walk touches only the two fixed arrays per
// level.
func TestDeamortizedSearchAllocs(t *testing.T) {
	d := NewDeamortized(nil)
	keys := prefillDict(t, d, 1<<13)
	i := 0
	avg := testing.AllocsPerRun(1000, func() {
		d.Search(keys[i%len(keys)])
		i++
	})
	if avg != 0 {
		t.Fatalf("Deamortized.Search allocates %.2f allocs/op, want 0", avg)
	}
}

// TestDeamortizedLASearchAllocs pins the deamortized-lookahead search
// path at zero allocations: the per-level visible-slot ordering lives in
// a stack buffer (visibleNewestFirst), not a fresh slice per level.
func TestDeamortizedLASearchAllocs(t *testing.T) {
	d := NewDeamortizedLookahead(nil)
	keys := prefillDict(t, d, 1<<13)
	i := 0
	avg := testing.AllocsPerRun(1000, func() {
		d.Search(keys[i%len(keys)])
		i++
	})
	if avg != 0 {
		t.Fatalf("DeamortizedLookahead.Search allocates %.2f allocs/op, want 0", avg)
	}
}

// TestDeamortizedRangeAllocs pins both deamortized kinds' Range at zero
// allocations in steady state: cursors come from their sync.Pools.
func TestDeamortizedRangeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	for _, tc := range []struct {
		name string
		d    core.Dictionary
	}{
		{"deamortized", NewDeamortized(nil)},
		{"deamortized-la", NewDeamortizedLookahead(nil)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			keys := prefillDict(t, tc.d, 1<<12)
			var sum uint64
			fn := func(e core.Element) bool { sum += e.Value; return true }
			i := 0
			avg := testing.AllocsPerRun(500, func() {
				lo := keys[i%len(keys)]
				tc.d.Range(lo, lo+1<<20, fn)
				i++
			})
			if avg != 0 {
				t.Fatalf("%s Range allocates %.2f allocs/op in steady state, want 0", tc.name, avg)
			}
			_ = sum
		})
	}
}

// TestMergeScratchDoesNotAliasLevels guards the scratch ownership rule:
// after any operation, no level's backing array may alias the merge
// scratch buffers (a merge's last step writes level storage, and only
// its last step).
func TestMergeScratchDoesNotAliasLevels(t *testing.T) {
	c := New(Options{Growth: 2, PointerDensity: DefaultPointerDensity})
	seq := workload.NewRandomUnique(13)
	for i := 0; i < 1<<10; i++ {
		k := seq.Next()
		c.Insert(k, k)
		if i%97 == 0 {
			c.checkInvariants()
		}
	}
	aliases := func(a, b []entry) bool {
		return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
	}
	for l := range c.levels {
		data := c.levels[l].data
		for _, slab := range slices.Concat(c.scratch.slabs, [][]entry{c.scratch.la}) {
			if aliases(data, slab) {
				t.Fatalf("level %d backing array aliases merge scratch", l)
			}
		}
	}
	c.checkInvariants()
}

// TestSnapshotCodecAllocs pins the codec's memory contract: encoding
// allocates nothing once a slab is pooled, and decoding allocates per
// level (the arrays it fills), never per cell — an eightfold larger
// structure costs a handful more allocations, not eight times as many.
func TestSnapshotCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop the pooled slab at random")
	}
	opt := Options{Growth: 2, PointerDensity: DefaultPointerDensity}
	decodeAllocs := make(map[int]float64)
	for _, n := range []int{1 << 14, 1 << 17} {
		c := loadedForSnapshot(New(opt), n)
		var payload bytes.Buffer
		if _, err := c.WriteTo(&payload); err != nil {
			t.Fatal(err)
		}
		if avg := testing.AllocsPerRun(10, func() {
			if _, err := c.WriteTo(io.Discard); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Fatalf("WriteTo of %d keys allocates %.1f times, want 0", n, avg)
		}
		r := bytes.NewReader(nil)
		decodeAllocs[n] = testing.AllocsPerRun(10, func() {
			r.Reset(payload.Bytes())
			if _, err := New(opt).ReadFrom(r); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := decodeAllocs[1<<14], decodeAllocs[1<<17]; large > small+8 {
		t.Fatalf("ReadFrom allocates %.0f times for 2^14 keys and %.0f for 2^17: it scales with cells, not levels", small, large)
	}
}
