package cola

import (
	"math/bits"
	"testing"

	"repro/internal/core"
	"repro/internal/dam"
)

// rangeFixture is 2^16 distinct keys (a permutation of [0, 2^16), value
// 3k+1) in a DAM-accounted dictionary. A power of two is the worst case
// for Range: the last insert merges everything into one level, and
// every level below it is rebuilt holding lookahead cells only.
const rangeFixtureKeys = 1 << 16

func fillRangeFixture(d core.Dictionary) {
	for i := uint64(0); i < rangeFixtureKeys; i++ {
		k := i * 40503 % rangeFixtureKeys // odd multiplier: a permutation
		d.Insert(k, 3*k+1)
	}
}

// checkRange runs Range(lo, hi) and compares it with the fixture's
// oracle: every key of [lo, hi] below 2^16, ascending, with its value.
func checkRange(t *testing.T, d core.Dictionary, lo, hi uint64) (returned int) {
	t.Helper()
	next := lo
	d.Range(lo, hi, func(e core.Element) bool {
		if e.Key != next || e.Value != 3*e.Key+1 {
			t.Fatalf("Range(%d, %d) element %d = %+v, want key %d", lo, hi, returned, e, next)
		}
		next++
		returned++
		return true
	})
	want := uint64(0)
	if lo < rangeFixtureKeys {
		want = min(hi, rangeFixtureKeys-1) - lo + 1
	}
	if uint64(returned) != want {
		t.Fatalf("Range(%d, %d) returned %d elements, want %d", lo, hi, returned, want)
	}
	return returned
}

// rangeWindows returns 64-key windows placed around the key span
// [first, last] of one lookahead-only array: ending before it,
// straddling its start, inside it, straddling its end, and after it.
func rangeWindows(first, last uint64) [][2]uint64 {
	var ws [][2]uint64
	for _, lo := range []uint64{first - 100, first - 32, (first + last) / 2, last - 32, last + 1} {
		if lo > rangeFixtureKeys { // wrapped below zero
			lo = 0
		}
		ws = append(ws, [2]uint64{lo, lo + 63})
	}
	return ws
}

// TestRangeCostBoundedByAnswer pins what a short Range may cost: a
// binary search per array plus work proportional to what it returns.
// The bound is in charged cells — every charge on the Range path is one
// cell — and fails if the lookahead skip ever again walks a
// lookahead-only level to its end (about 7,000 cells here, not 300).
// Results are checked against the oracle for windows on every side of
// each lookahead-only level's key span. The deamortized structure never
// charged its cursor advances, so there the bound only guards the
// binary searches; what covers its skip loop is the oracle, over
// windows on every side of each visible array's key span.
func TestRangeCostBoundedByAnswer(t *testing.T) {
	t.Run("gcola", func(t *testing.T) {
		store := dam.NewStore(dam.DefaultBlockBytes, 1<<20)
		c := New(Options{Growth: 2, PointerDensity: DefaultPointerDensity, Space: store.Space("cola")})
		fillRangeFixture(c)
		c.checkInvariants()

		probes, laOnly := 0, 0
		var windows [][2]uint64
		for l := range c.levels {
			lv := &c.levels[l]
			if lv.empty() {
				continue
			}
			probes += bits.Len(uint(lv.used()))
			if lv.real == 0 {
				laOnly++
				windows = append(windows, rangeWindows(c.cellAt(l, lv.start).key, c.cellAt(l, lv.cells-1).key)...)
			}
		}
		if laOnly < 8 {
			t.Fatalf("precondition: only %d lookahead-only levels", laOnly)
		}
		for _, w := range windows {
			before, _ := store.Accesses()
			returned := checkRange(t, c, w[0], w[1])
			after, _ := store.Accesses()
			if cost, bound := int(after-before), 2*(probes+returned); cost > bound {
				t.Fatalf("Range(%d, %d) charged %d cells for %d elements; bound %d", w[0], w[1], cost, returned, bound)
			}
		}
	})

	t.Run("deamortized-la", func(t *testing.T) {
		store := dam.NewStore(dam.DefaultBlockBytes, 1<<20)
		d := NewDeamortizedLookahead(store.Space("dla"))
		fillRangeFixture(d)

		probes := 0
		var windows [][2]uint64
		for k := range d.levels {
			for s := range d.levels[k].slots {
				sl := &d.levels[k].slots[s]
				if !sl.visible || !sl.occupied() {
					continue
				}
				probes += bits.Len(uint(len(sl.data)))
				windows = append(windows, rangeWindows(sl.data[0].key, sl.data[len(sl.data)-1].key)...)
			}
		}
		for _, w := range windows {
			before, _ := store.Accesses()
			returned := checkRange(t, d, w[0], w[1])
			after, _ := store.Accesses()
			if cost, bound := int(after-before), 2*(probes+returned); cost > bound {
				t.Fatalf("Range(%d, %d) charged %d cells for %d elements; bound %d", w[0], w[1], cost, returned, bound)
			}
		}
	})
}
