package cola

import (
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/dam"
	"repro/internal/workload"
)

func TestNewPanics(t *testing.T) {
	cases := map[string]Options{
		"growth<2": {Growth: 1},
		"p<0":      {Growth: 2, PointerDensity: -0.1},
		"p>0.5":    {Growth: 2, PointerDensity: 0.6},
	}
	for name, opt := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: want panic", name)
				}
			}()
			New(opt)
		}()
	}
}

func TestCapacityFormula(t *testing.T) {
	// Level sizes from the paper: 1 for level 0, 2(g-1)g^(l-1) for l>0.
	c := New(Options{Growth: 2})
	wants := []int{1, 2, 4, 8, 16, 32}
	for l, want := range wants {
		if got := c.realCapacity(l); got != want {
			t.Errorf("g=2 realCapacity(%d) = %d, want %d", l, got, want)
		}
	}
	c4 := New(Options{Growth: 4})
	wants4 := []int{1, 6, 24, 96, 384}
	for l, want := range wants4 {
		if got := c4.realCapacity(l); got != want {
			t.Errorf("g=4 realCapacity(%d) = %d, want %d", l, got, want)
		}
	}
}

func TestLookaheadCapacityFormula(t *testing.T) {
	c := New(Options{Growth: 2, PointerDensity: 0.1})
	// floor(0.1 * 2^l) for l >= 1.
	wants := []int{0, 0, 0, 0, 1, 3, 6, 12}
	for l, want := range wants {
		if got := c.lookaheadCapacity(l); got != want {
			t.Errorf("lookaheadCapacity(%d) = %d, want %d", l, got, want)
		}
	}
}

func TestInsertSearchSmall(t *testing.T) {
	c := NewCOLA(nil)
	keys := []uint64{5, 3, 9, 1, 7, 2, 8, 4, 6, 0}
	for i, k := range keys {
		c.Insert(k, k*10)
		c.checkInvariants()
		if got := c.Len(); got != i+1 {
			t.Fatalf("Len after %d inserts = %d", i+1, got)
		}
	}
	for _, k := range keys {
		v, ok := c.Search(k)
		if !ok || v != k*10 {
			t.Fatalf("Search(%d) = (%d,%v), want (%d,true)", k, v, ok, k*10)
		}
	}
	if _, ok := c.Search(100); ok {
		t.Fatal("Search(100) found a missing key")
	}
}

func TestBinaryCounterInvariant(t *testing.T) {
	// For g=2 with distinct keys, level l is occupied by real elements
	// iff bit l of... (capacity formula shifted: level 0 holds 1, level
	// l>=1 holds 2^l): total occupancy must always equal N and each
	// level must be either empty or within capacity.
	c := NewBasic(nil)
	const n = 300
	for i := 0; i < n; i++ {
		c.Insert(uint64(i*2654435761), uint64(i))
		c.checkInvariants()
		total := 0
		for l := range c.levels {
			total += c.levels[l].real
		}
		if total != i+1 {
			t.Fatalf("after %d inserts, stored %d reals", i+1, total)
		}
	}
}

func TestUpdateSemantics(t *testing.T) {
	for _, g := range []int{2, 3, 4, 8} {
		c := New(Options{Growth: g, PointerDensity: 0.1})
		c.Insert(42, 1)
		c.Insert(42, 2)
		if v, ok := c.Search(42); !ok || v != 2 {
			t.Fatalf("g=%d: Search(42) = (%d,%v), want (2,true)", g, v, ok)
		}
		// Force merges past the duplicate to confirm newest still wins.
		for i := uint64(100); i < 200; i++ {
			c.Insert(i, i)
		}
		if v, ok := c.Search(42); !ok || v != 2 {
			t.Fatalf("g=%d after merges: Search(42) = (%d,%v), want (2,true)", g, v, ok)
		}
		c.Compact()
		if v, ok := c.Search(42); !ok || v != 2 {
			t.Fatalf("g=%d after compact: Search(42) = (%d,%v)", g, v, ok)
		}
		if c.Len() != 101 {
			t.Fatalf("g=%d: Len = %d, want 101", g, c.Len())
		}
	}
}

func TestDelete(t *testing.T) {
	c := NewCOLA(nil)
	for i := uint64(0); i < 100; i++ {
		c.Insert(i, i)
	}
	if !c.Delete(50) {
		t.Fatal("Delete(50) = false, want true")
	}
	if c.Delete(50) {
		t.Fatal("second Delete(50) = true, want false")
	}
	if c.Delete(1000) {
		t.Fatal("Delete(1000) of missing key = true")
	}
	if _, ok := c.Search(50); ok {
		t.Fatal("Search(50) found a deleted key")
	}
	if c.Len() != 99 {
		t.Fatalf("Len = %d, want 99", c.Len())
	}
	// Re-insert after delete.
	c.Insert(50, 555)
	if v, ok := c.Search(50); !ok || v != 555 {
		t.Fatalf("Search(50) after re-insert = (%d,%v), want (555,true)", v, ok)
	}
	if c.Len() != 100 {
		t.Fatalf("Len = %d, want 100", c.Len())
	}
	c.Compact()
	c.checkInvariants()
	if v, ok := c.Search(50); !ok || v != 555 {
		t.Fatalf("after compact Search(50) = (%d,%v)", v, ok)
	}
	if c.Len() != 100 {
		t.Fatalf("after compact Len = %d, want 100", c.Len())
	}
}

func TestDeleteEverything(t *testing.T) {
	c := NewCOLA(nil)
	const n = 64
	for i := uint64(0); i < n; i++ {
		c.Insert(i, i)
	}
	for i := uint64(0); i < n; i++ {
		if !c.Delete(i) {
			t.Fatalf("Delete(%d) failed", i)
		}
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d, want 0", c.Len())
	}
	for i := uint64(0); i < n; i++ {
		if _, ok := c.Search(i); ok {
			t.Fatalf("Search(%d) found deleted key", i)
		}
	}
	c.Compact()
	c.checkInvariants()
	count := 0
	c.Range(0, ^uint64(0), func(core.Element) bool { count++; return true })
	if count != 0 {
		t.Fatalf("Range found %d elements after deleting all", count)
	}
}

func TestRangeBasics(t *testing.T) {
	c := NewCOLA(nil)
	for i := uint64(0); i < 200; i += 2 {
		c.Insert(i, i+1)
	}
	var got []core.Element
	c.Range(10, 20, func(e core.Element) bool {
		got = append(got, e)
		return true
	})
	want := []uint64{10, 12, 14, 16, 18, 20}
	if len(got) != len(want) {
		t.Fatalf("Range returned %d elements, want %d: %v", len(got), len(want), got)
	}
	for i, e := range got {
		if e.Key != want[i] || e.Value != want[i]+1 {
			t.Fatalf("Range[%d] = %v, want {%d:%d}", i, e, want[i], want[i]+1)
		}
	}
}

func TestRangeEarlyStop(t *testing.T) {
	c := NewCOLA(nil)
	for i := uint64(0); i < 100; i++ {
		c.Insert(i, i)
	}
	count := 0
	c.Range(0, 99, func(core.Element) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early-stop Range visited %d, want 5", count)
	}
}

func TestRangeSkipsTombstonesAndDuplicates(t *testing.T) {
	c := NewCOLA(nil)
	for i := uint64(0); i < 50; i++ {
		c.Insert(i, i)
	}
	c.Insert(25, 999) // update buried in a newer level
	c.Delete(30)
	var keys []uint64
	var vals []uint64
	c.Range(20, 35, func(e core.Element) bool {
		keys = append(keys, e.Key)
		vals = append(vals, e.Value)
		return true
	})
	want := []uint64{20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 31, 32, 33, 34, 35}
	if len(keys) != len(want) {
		t.Fatalf("keys = %v, want %v", keys, want)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("keys = %v, want %v", keys, want)
		}
		wantVal := want[i]
		if want[i] == 25 {
			wantVal = 999
		}
		if vals[i] != wantVal {
			t.Fatalf("value for key %d = %d, want %d", keys[i], vals[i], wantVal)
		}
	}
}

func TestEmptyStructure(t *testing.T) {
	c := NewCOLA(nil)
	if _, ok := c.Search(1); ok {
		t.Fatal("empty Search found something")
	}
	if c.Len() != 0 {
		t.Fatal("empty Len != 0")
	}
	c.Range(0, ^uint64(0), func(core.Element) bool {
		t.Fatal("empty Range yielded an element")
		return false
	})
	c.Compact() // must not panic on empty
	if c.Delete(5) {
		t.Fatal("Delete on empty returned true")
	}
}

func TestGrowthFactors(t *testing.T) {
	for _, g := range []int{2, 3, 4, 8, 16} {
		c := New(Options{Growth: g, PointerDensity: 0.1})
		const n = 1 << 10
		seq := workload.NewRandomUnique(uint64(g))
		keys := workload.Take(seq, n)
		for _, k := range keys {
			c.Insert(k, k^0xFF)
		}
		c.checkInvariants()
		for _, k := range keys {
			if v, ok := c.Search(k); !ok || v != k^0xFF {
				t.Fatalf("g=%d: Search(%d) = (%d,%v)", g, k, v, ok)
			}
		}
		if c.Len() != n {
			t.Fatalf("g=%d: Len = %d, want %d", g, c.Len(), n)
		}
	}
}

func TestPointerDensities(t *testing.T) {
	for _, p := range []float64{0, 0.05, 0.1, 0.25, 0.5} {
		c := New(Options{Growth: 2, PointerDensity: p})
		const n = 1 << 11
		seq := workload.NewRandomUnique(7)
		keys := workload.Take(seq, n)
		for _, k := range keys {
			c.Insert(k, k)
		}
		c.checkInvariants()
		for _, k := range keys {
			if _, ok := c.Search(k); !ok {
				t.Fatalf("p=%v: lost key %d", p, k)
			}
		}
		// Missing keys must stay missing.
		miss := workload.NewRandomUnique(8)
		for i := 0; i < 100; i++ {
			k := miss.Next() | 1<<63 // distinct namespace from seed-7 keys w.h.p.
			if _, ok := c.Search(k); ok {
				if v, _ := c.Search(k); v != 0 {
					t.Fatalf("p=%v: phantom key %d", p, k)
				}
			}
		}
	}
}

func TestSortedInsertOrders(t *testing.T) {
	const n = 1 << 10
	for name, seq := range map[string]workload.Sequence{
		"ascending":  workload.NewAscending(),
		"descending": workload.NewDescending(n),
	} {
		c := NewCOLA(nil)
		for i := 0; i < n; i++ {
			c.Insert(seq.Next(), uint64(i))
		}
		c.checkInvariants()
		for k := uint64(0); k < n; k++ {
			if _, ok := c.Search(k); !ok {
				t.Fatalf("%s: lost key %d", name, k)
			}
		}
		// Full range scan must be sorted and complete.
		var prev uint64
		count := 0
		c.Range(0, ^uint64(0), func(e core.Element) bool {
			if count > 0 && e.Key <= prev {
				t.Fatalf("%s: range out of order: %d after %d", name, e.Key, prev)
			}
			prev = e.Key
			count++
			return true
		})
		if count != n {
			t.Fatalf("%s: range yielded %d, want %d", name, count, n)
		}
	}
}

func TestDAMChargingHappens(t *testing.T) {
	store := dam.NewStore(4096, 1<<16)
	c := NewCOLA(store.Space("cola"))
	for i := uint64(0); i < 10000; i++ {
		c.Insert(i, i)
	}
	if store.Transfers() == 0 {
		t.Fatal("no transfers recorded for an out-of-cache insert workload")
	}
	before := store.Transfers()
	c.Search(5000)
	if store.Transfers() == before {
		t.Fatal("search charged no transfers")
	}
}

func TestAmortizedInsertTransfersLogarithmic(t *testing.T) {
	// Lemma 19: insertion costs amortized O((log N)/B) transfers. With
	// 32-byte elements and 4096-byte blocks, B = 128 elements, so for
	// N = 2^16 we expect roughly log2(N)/128 ≈ 0.13 transfers/insert.
	// Allow generous slack but fail if the measured rate is off by an
	// order of magnitude (e.g. O(1) or O(N^eps) behaviour).
	store := dam.NewStore(4096, 1<<17) // small cache forces out-of-core merging
	c := NewCOLA(store.Space("cola"))
	const n = 1 << 16
	seq := workload.NewRandomUnique(3)
	for i := 0; i < n; i++ {
		k := seq.Next()
		c.Insert(k, k)
	}
	perInsert := float64(store.Transfers()) / float64(n)
	elemsPerBlock := 4096.0 / 32.0
	bound := 16.0 / elemsPerBlock * 8 // 16 = log2 N, slack factor 8
	if perInsert > bound {
		t.Fatalf("amortized transfers/insert = %v, want <= %v", perInsert, bound)
	}
}

func TestStatsTracking(t *testing.T) {
	c := NewCOLA(nil)
	for i := uint64(0); i < 100; i++ {
		c.Insert(i, i)
	}
	c.Search(5)
	c.Delete(5)
	st := c.Stats()
	if st.Inserts != 100 {
		t.Errorf("Inserts = %d, want 100", st.Inserts)
	}
	// Delete performs an internal search; at least the two explicit ones.
	if st.Searches < 2 {
		t.Errorf("Searches = %d, want >= 2", st.Searches)
	}
	if st.Deletes != 1 {
		t.Errorf("Deletes = %d, want 1", st.Deletes)
	}
	if st.Moves == 0 {
		t.Error("Moves = 0, want > 0 after merges")
	}
	if st.MaxMoves == 0 || st.MaxMoves > st.Moves {
		t.Errorf("MaxMoves = %d out of range (Moves = %d)", st.MaxMoves, st.Moves)
	}
}

func TestCompactSingleLevel(t *testing.T) {
	c := NewCOLA(nil)
	const n = 1000
	seq := workload.NewRandomUnique(11)
	for i := 0; i < n; i++ {
		k := seq.Next()
		c.Insert(k, k)
	}
	c.Compact()
	c.checkInvariants()
	occupied := 0
	for l := range c.levels {
		if c.levels[l].real > 0 {
			occupied++
		}
	}
	if occupied != 1 {
		t.Fatalf("levels with real elements after Compact = %d, want 1", occupied)
	}
	if c.Len() != n {
		t.Fatalf("Len after Compact = %d, want %d", c.Len(), n)
	}
}

// TestEntryIs24Bytes pins the RAM cell layout: one pointer slot, no
// padding. A field that re-pads the cell costs every RAM level a third
// more memory and merge bandwidth.
func TestEntryIs24Bytes(t *testing.T) {
	if got := unsafe.Sizeof(entry{}); got != 24 {
		t.Fatalf("entry is %d bytes, want 24: see DESIGN.md, \"Scale adaptations and divergences\", on the 24-byte RAM cell", got)
	}
}
