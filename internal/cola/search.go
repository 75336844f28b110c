package cola

import (
	"sync"

	"repro/internal/core"
)

// lowerBound is the first index in [lo, hi) of level l whose key is >=
// target, for Range's cursors; Search has the same loop in its kernel
// (searchLevel). Every probe is charged at its actual position: the
// probe path is key-dependent, so distinct searches diverge into
// distinct blocks after the first few (shared, cache-resident)
// midpoints — exactly the O(log(range/B)) uncached-transfer profile of
// a real binary search. A synthetic probe chain (e.g. always halving
// leftward) would charge the same cells for every search over the same
// window, and an LRU cache would then make all but the first binary
// search free, silently erasing the very cost lookahead pointers exist
// to avoid. A hand-rolled loop instead of sort.Search: the closure
// sort.Search needs would be heap-allocated on every call, and searches
// are a zero-allocation hot path (see the AllocsPerRun tests).
//
//repro:charges opt.Space (one cell per probe)
func (c *GCOLA) lowerBound(l, lo, hi int, target uint64) int {
	// A RAM level is probed in its own array; a spilled one through the
	// page cache with the identical charge sequence (the probe positions
	// depend only on the window and the keys, not on where the level
	// lives).
	data := c.levels[l].data
	i, j := lo, hi
	for i < j {
		mid := int(uint(i+j) >> 1)
		c.chargeRead(l, mid, 1)
		var k uint64
		if data != nil {
			k = data[mid].key
		} else {
			k = c.cellAt(l, mid).key
		}
		if k >= target {
			j = mid
		} else {
			i = mid + 1
		}
	}
	return i
}

// Search implements core.Dictionary. Levels are probed smallest (newest)
// to largest; the first real or tombstone entry matching the key decides.
// When lookahead pointers are present, the window searched in level l+1
// is bounded by the pointers bracketing the key's position in level l
// (Lemma 20); when a level has no pointers (tiny levels, p = 0, or a gap
// of empty levels) the whole level is binary searched, which is the
// "basic COLA" fallback.
//
// Search mutates nothing but the atomic search counter and the DAM
// charge stream, so bracketed concurrent searches are safe (the
// core.SharedReader contract).
func (c *GCOLA) Search(key uint64) (uint64, bool) {
	c.searches.Add(1)
	// Spilled levels are the tail from the spill depth on; they have a
	// search kernel of their own (searchSpilledLevels), so the loop below
	// only ever sees RAM levels.
	ram := len(c.levels)
	if c.ext != nil && c.opt.SpillDepth < ram {
		ram = c.opt.SpillDepth
	}
	lo, hi := -1, -1 // window into the upcoming level; -1 means unknown
	for l := 0; l < ram; l++ {
		if c.levels[l].empty() {
			lo, hi = -1, -1
			continue
		}
		val, state, nlo, nhi := c.searchLevel(l, key, lo, hi)
		switch state {
		case foundReal:
			return val, true
		case foundTombstone:
			return 0, false
		}
		lo, hi = nlo, nhi
	}
	if ram < len(c.levels) {
		return c.searchSpilledLevels(ram, key, lo, hi)
	}
	return 0, false
}

// Contains reports whether key is present.
func (c *GCOLA) Contains(key uint64) bool {
	_, ok := c.Search(key)
	return ok
}

type searchState uint8

const (
	notFound searchState = iota
	foundReal
	foundTombstone
)

// searchLevel is the RAM search kernel: it searches level l for key
// within window [lo, hi) (absolute cell indices; -1 for unknown) and
// returns the match state plus the window for level l+1 derived from
// the bracketing lookahead pointers. It reads the level's own array and
// nothing else — no call and no cell copy per probe; an unaccounted
// structure pays chargeRead's inlined guard. searchLevelSpilled is its
// out-of-core twin: any change to the probe or charge sequence here
// must be made there too (TestSpillParityWithRAM and
// TestSpilledSearchKernelMatchesRAM hold the two together, and
// TestSearchMatchesReference holds this one to the kernel it replaced).
// Two kernels remain because the spilled one reads only the probed keys
// out of a window's raw bytes; decoding the window into cells to run
// this loop over it measured 3.5 µs more per search (DESIGN.md).
//
//repro:charges opt.Space (one cell per probe, scan reads)
func (c *GCOLA) searchLevel(l int, key uint64, lo, hi int) (uint64, searchState, int, int) {
	lv := &c.levels[l]
	data := lv.data
	if lo < 0 || lo < lv.start {
		lo = lv.start
	}
	if hi < 0 || hi > lv.cells {
		hi = lv.cells
	}
	if lo > hi {
		lo = hi
	}

	// Binary search for the first cell with key >= target. Each probe is
	// charged as a one-cell read; the DAM store coalesces same-block
	// probes into one transfer, so the charge model matches a real
	// binary search's block behaviour (see lowerBound).
	i, j := lo, hi
	for i < j {
		mid := int(uint(i+j) >> 1)
		c.chargeRead(l, mid, 1)
		if data[mid].key >= key {
			j = mid
		} else {
			i = mid + 1
		}
	}
	pos := i

	// Scan forward over cells with the exact key: lookahead entries for
	// the key may precede the real entry (the merge emits them first).
	// The scan deliberately ignores the hi bound: a window's right edge
	// is "one past a lookahead anchor", and when the anchor's key equals
	// the target the real entry can sit just past it.
	state := notFound
	var val uint64
	scanEnd := pos
	for i := pos; i < len(data); i++ {
		e := &data[i]
		if e.key != key {
			break
		}
		scanEnd = i + 1
		if e.kind == kindLookahead {
			continue
		}
		if e.kind == kindReal {
			val, state = e.val, foundReal
		} else {
			state = foundTombstone
		}
		break
	}
	if scanEnd > pos {
		c.chargeRead(l, pos, scanEnd-pos)
	}
	if state != notFound {
		return val, state, -1, -1
	}
	if lv.la == 0 {
		// No lookahead entries: nothing to derive a window from (and no
		// point scanning for a right bound).
		return 0, notFound, -1, -1
	}

	// Derive the next level's window. Left bound: the left copy carried
	// by the predecessor cell (all its anchors have keys < target).
	nlo := -1
	if pos > lv.start {
		nlo = int(data[pos-1].left)
	}
	// Right bound: scan forward for the first lookahead entry at or after
	// pos; everything at or after its target in level l+1 has keys >=
	// the lookahead's key >= target, so the window closes just past it.
	// This is the paper's "we compute right-hand lookahead pointers on
	// the fly by scanning subsequent levels".
	nhi := -1
	scanned := 0
	for i := pos; i < len(data); i++ {
		scanned++
		if e := &data[i]; e.kind == kindLookahead {
			nhi = int(e.ptr) + 1
			break
		}
	}
	if scanned > 0 {
		c.chargeRead(l, pos, scanned)
	}
	return 0, notFound, nlo, nhi
}

// cursorBuf is the per-call cursor set of one Range; pooled (rather
// than per-tree scratch) so bracketed concurrent Ranges and reentrant
// Ranges from inside fn each get their own, while steady-state calls
// stay allocation-free. Capacity is retained across uses and is bounded
// by the level count, i.e. O(log N).
type cursorBuf struct {
	c []rangeCursor
}

var cursorPool = sync.Pool{New: func() any { return new(cursorBuf) }}

// Range implements core.Dictionary: a k-way merge across the occupied
// levels with newest-wins resolution, skipping lookahead entries and
// tombstoned keys. Like Search, Range is safe for bracketed concurrent
// use: its cursors are pooled per call and it mutates nothing else.
//
//repro:charges opt.Space (one cell per cursor advance)
func (c *GCOLA) Range(lo, hi uint64, fn func(core.Element) bool) {
	cb := cursorPool.Get().(*cursorBuf)
	defer func() {
		cb.c = cb.c[:0]
		cursorPool.Put(cb)
	}()
	cursors := cb.c[:0]
	for l := range c.levels {
		lv := &c.levels[l]
		if lv.empty() {
			continue
		}
		// Position each cursor at the first cell with key >= lo.
		p := c.lowerBound(l, lv.start, lv.cells, lo)
		if p < lv.cells {
			cursors = append(cursors, rangeCursor{level: l, pos: p})
		}
	}
	cb.c = cursors

	// A spilled cursor's cell is copied out through cellAt; a RAM
	// cursor's is read where it lies.
	var spilled entry
	for {
		// Pick the smallest key among cursors; ties resolved by the
		// smallest (newest) level. A cursor whose next cell is past hi is
		// finished — levels are sorted, so nothing later can qualify —
		// and is dropped, as is one that ran off its level's end.
		best := -1
		var bestCell entry
		live := cursors[:0]
		for _, cur := range cursors {
			lv := &c.levels[cur.level]
			// Skip lookahead cells, but never beyond hi: below a big merge
			// whole levels hold nothing else.
			for ; cur.pos < lv.cells; cur.pos++ {
				e := &spilled
				if lv.data != nil {
					e = &lv.data[cur.pos]
				} else {
					spilled = c.cellAt(cur.level, cur.pos)
				}
				if e.key > hi {
					cur.pos = lv.cells
					break
				}
				if e.kind != kindLookahead {
					if best < 0 || e.key < bestCell.key || (e.key == bestCell.key && cur.level < live[best].level) {
						best = len(live)
						bestCell = *e
					}
					break
				}
				c.chargeRead(cur.level, cur.pos, 1)
			}
			if cur.pos < lv.cells {
				live = append(live, cur)
			}
		}
		cursors = live
		if best < 0 {
			return
		}
		// Emit the newest entry for its key and advance every cursor past
		// that key.
		c.chargeRead(cursors[best].level, cursors[best].pos, 1)
		for i := range cursors {
			cur := &cursors[i]
			lv := &c.levels[cur.level]
			for ; cur.pos < lv.cells; cur.pos++ {
				var k uint64
				if lv.data != nil {
					k = lv.data[cur.pos].key
				} else {
					k = c.cellAt(cur.level, cur.pos).key
				}
				if k != bestCell.key {
					break
				}
			}
		}
		if bestCell.kind == kindTombstone {
			continue
		}
		if !fn(core.Element{Key: bestCell.key, Value: bestCell.val}) {
			return
		}
	}
}
