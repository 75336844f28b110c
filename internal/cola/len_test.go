package cola

import (
	"testing"

	"repro/internal/dam"
	"repro/internal/workload"
)

// occupiedLevels counts non-empty levels.
func occupiedLevels(c *GCOLA) int {
	n := 0
	for l := range c.levels {
		if !c.levels[l].empty() {
			n++
		}
	}
	return n
}

// TestLenExactAfterBottomMerge pins the reconciliation guarantee of the
// GCOLA type comment: a small keyspace drives constant duplicate-key
// updates and deletes (the workload that historically made Len drift
// until Compact), and at every state where the structure has
// consolidated into at most one occupied level — i.e. immediately after
// any merge whose target was the bottom-most occupied level — Len must
// equal the oracle exactly, with no Compact call.
func TestLenExactAfterBottomMerge(t *testing.T) {
	for _, g := range []int{2, 4} {
		c := New(Options{Growth: g, PointerDensity: DefaultPointerDensity})
		oracle := make(map[uint64]uint64)
		rng := workload.NewRNG(0xBADC0DE + uint64(g))
		bottomChecks, drifted := 0, false
		for i := 0; i < 20000; i++ {
			k := rng.Uint64() % 512
			if rng.Uint64()%8 == 7 {
				_, present := oracle[k]
				if got := c.Delete(k); got != present {
					t.Fatalf("g=%d op %d: Delete(%d) = %v, oracle present=%v", g, i, k, got, present)
				}
				delete(oracle, k)
			} else {
				v := rng.Uint64()
				c.Insert(k, v)
				oracle[k] = v
			}
			if occupiedLevels(c) <= 1 {
				bottomChecks++
				if c.Len() != len(oracle) {
					t.Fatalf("g=%d op %d: Len = %d after bottom merge, oracle has %d",
						g, i, c.Len(), len(oracle))
				}
			} else if c.Len() != len(oracle) {
				drifted = true // expected between bottom merges; see below
			}
		}
		if bottomChecks == 0 {
			t.Fatalf("g=%d: workload never consolidated into one level; the test checked nothing", g)
		}
		if !drifted {
			t.Logf("g=%d: Len never drifted between merges (workload too tame to exercise the caveat)", g)
		}
		// And Compact remains the anytime reconciliation.
		c.Compact()
		if c.Len() != len(oracle) {
			t.Fatalf("g=%d: Len after Compact = %d, oracle has %d", g, c.Len(), len(oracle))
		}
		c.checkInvariants()
	}
}

// TestLenExactDistinctKeys: with distinct keys Len is exact at every
// step, bottom merges or not — the counter path must not double-adjust
// now that the incoming entry is counted before the merge routes it.
func TestLenExactDistinctKeys(t *testing.T) {
	c := NewCOLA(nil)
	seq := workload.NewRandomUnique(99)
	for i := 1; i <= 1<<12; i++ {
		k := seq.Next()
		c.Insert(k, k)
		if c.Len() != i {
			t.Fatalf("Len = %d after %d distinct inserts", c.Len(), i)
		}
	}
}

// TestLenDeleteReinsertAcrossMerges drives the tombstone flows
// (delete, re-insert, delete again) through merges and checks the final
// reconciliation.
func TestLenDeleteReinsertAcrossMerges(t *testing.T) {
	c := NewCOLA(nil)
	const n = 1 << 10
	for i := uint64(0); i < n; i++ {
		c.Insert(i, i)
	}
	for i := uint64(0); i < n; i += 2 {
		if !c.Delete(i) {
			t.Fatalf("Delete(%d) = false", i)
		}
	}
	for i := uint64(0); i < n; i += 4 {
		c.Insert(i, i+1)
	}
	c.Compact()
	want := n/2 + n/4
	if c.Len() != want {
		t.Fatalf("Len = %d, want %d", c.Len(), want)
	}
	c.checkInvariants()
}

// TestCompactLeavesOneLevelAlone pins Compact's early return: a structure
// that a bottom merge just left in one level (with its lookahead samples
// above) is not rewritten — no move, no charge, no spill I/O — in RAM or
// spilled, while anything short of that state still takes the full merge
// and comes out the same.
func TestCompactLeavesOneLevelAlone(t *testing.T) {
	for _, spilled := range []bool{false, true} {
		store := dam.NewStore(4096, 1<<15)
		opt := Options{Growth: 2, PointerDensity: DefaultPointerDensity, Space: store.Space("cola")}
		var c *GCOLA
		if spilled {
			c = openSpilled(t, opt)
		} else {
			c = New(opt)
		}
		for i := uint64(0); i < 1024; i++ { // 2^10: the last carry reaches the bottom
			c.Insert(i*3, i)
		}
		c.checkInvariants()
		if !c.compacted(10, 1024) {
			t.Fatalf("spilled=%v: 1024 distinct keys did not end in one level", spilled)
		}
		moves, transfers := c.Stats().Moves, store.Transfers()
		reads, writes := c.ActualTransfers()
		c.Compact()
		if r, w := c.ActualTransfers(); c.Stats().Moves != moves || store.Transfers() != transfers || r != reads || w != writes {
			t.Fatalf("spilled=%v: Compact of a one-level structure moved %d cells, charged %d transfers, did %d+%d chunk I/Os",
				spilled, c.Stats().Moves-moves, store.Transfers()-transfers, r-reads, w-writes)
		}

		// A wrong live count, a missing row of samples, a second occupied
		// level: each one takes the full merge, which leaves one level
		// again with the count put right.
		want := 1024
		for _, spoil := range []struct {
			name string
			do   func()
		}{
			{"live count off", func() { c.n += 7 }},
			{"samples missing", func() { c.clearLevel(6) }},
			{"a key in level zero", func() { c.Insert(1, 1); want++ }},
		} {
			spoil.do()
			before := c.Stats().Moves
			c.Compact()
			if c.Stats().Moves == before {
				t.Fatalf("spilled=%v, %s: Compact returned early", spilled, spoil.name)
			}
			c.checkInvariants()
			bottom := len(c.levels) - 1
			for c.levels[bottom].empty() {
				bottom--
			}
			if c.Len() != want || !c.compacted(bottom, want) {
				t.Fatalf("spilled=%v, %s: after the full merge Len = %d, want %d in one level", spilled, spoil.name, c.Len(), want)
			}
		}
	}
}
