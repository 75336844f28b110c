package cola

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dam"
	"repro/internal/workload"
)

// The reference: the RAM read path this package had before the kernel
// in search.go — a lowerBound call per level, a cellAt call and a cell
// copy per scanned cell, an unconditional charge call per probe — kept
// here so that the kernel and Range can be held to it answer for answer
// and charge for charge.

// refChargeRead is the charge helper of that read path.
func (c *GCOLA) refChargeRead(l, i, n int) {
	if n > 0 {
		c.opt.Space.Read(c.cellOffset(l, i), int64(n)*core.ElementBytes)
	}
}

//repro:charges opt.Space (one cell per probe)
func (c *GCOLA) refLowerBound(l, lo, hi int, target uint64) int {
	if data := c.levels[l].data; data != nil {
		i, j := lo, hi
		for i < j {
			mid := int(uint(i+j) >> 1)
			c.refChargeRead(l, mid, 1)
			if data[mid].key >= target {
				j = mid
			} else {
				i = mid + 1
			}
		}
		return i
	}
	i, j := lo, hi
	for i < j {
		mid := int(uint(i+j) >> 1)
		c.refChargeRead(l, mid, 1)
		if c.cellAt(l, mid).key >= target {
			j = mid
		} else {
			i = mid + 1
		}
	}
	return i
}

func (c *GCOLA) refSearch(key uint64) (uint64, bool) {
	lo, hi := -1, -1
	for l := range c.levels {
		if c.levels[l].empty() {
			lo, hi = -1, -1
			continue
		}
		val, state, nlo, nhi := c.refSearchLevel(l, key, lo, hi)
		switch state {
		case foundReal:
			return val, true
		case foundTombstone:
			return 0, false
		}
		lo, hi = nlo, nhi
	}
	return 0, false
}

func (c *GCOLA) refSearchLevel(l int, key uint64, lo, hi int) (uint64, searchState, int, int) {
	lv := &c.levels[l]
	if lo < 0 || lo < lv.start {
		lo = lv.start
	}
	if hi < 0 || hi > lv.cells {
		hi = lv.cells
	}
	if lo > hi {
		lo = hi
	}
	pos := c.refLowerBound(l, lo, hi, key)

	state := notFound
	var val uint64
	scanEnd := pos
	for i := pos; i < lv.cells; i++ {
		e := c.cellAt(l, i)
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
		c.refChargeRead(l, pos, scanEnd-pos)
	}
	if state != notFound {
		return val, state, -1, -1
	}
	if lv.la == 0 {
		return 0, notFound, -1, -1
	}

	nlo := -1
	if pos > lv.start {
		nlo = int(c.cellAt(l, pos-1).left)
	}
	nhi := -1
	scanned := 0
	for i := pos; i < lv.cells; i++ {
		scanned++
		if e := c.cellAt(l, i); e.kind == kindLookahead {
			nhi = int(e.ptr) + 1
			break
		}
	}
	if scanned > 0 {
		c.refChargeRead(l, pos, scanned)
	}
	return 0, notFound, nlo, nhi
}

func (c *GCOLA) refRange(lo, hi uint64, fn func(core.Element) bool) {
	var cursors []rangeCursor
	for l := range c.levels {
		lv := &c.levels[l]
		if lv.empty() {
			continue
		}
		p := c.refLowerBound(l, lv.start, lv.cells, lo)
		if p < lv.cells {
			cursors = append(cursors, rangeCursor{level: l, pos: p})
		}
	}
	for {
		best := -1
		var bestKey uint64
		live := cursors[:0]
		for _, cur := range cursors {
			lv := &c.levels[cur.level]
			for ; cur.pos < lv.cells; cur.pos++ {
				e := c.cellAt(cur.level, cur.pos)
				if e.key > hi {
					cur.pos = lv.cells
					break
				}
				if e.kind != kindLookahead {
					if best < 0 || e.key < bestKey || (e.key == bestKey && cur.level < live[best].level) {
						best = len(live)
						bestKey = e.key
					}
					break
				}
				c.refChargeRead(cur.level, cur.pos, 1)
			}
			if cur.pos < lv.cells {
				live = append(live, cur)
			}
		}
		cursors = live
		if best < 0 {
			return
		}
		e := c.cellAt(cursors[best].level, cursors[best].pos)
		c.refChargeRead(cursors[best].level, cursors[best].pos, 1)
		for i := range cursors {
			cur := &cursors[i]
			lv := &c.levels[cur.level]
			for cur.pos < lv.cells && c.cellAt(cur.level, cur.pos).key == bestKey {
				cur.pos++
			}
		}
		if e.kind == kindTombstone {
			continue
		}
		if !fn(core.Element{Key: e.key, Value: e.val}) {
			return
		}
	}
}

// searchCase is one generated structure: its geometry and the
// operations that build it, two bytes each (see apply). Probes are not
// part of a case: every structure is probed at every key any of its
// cells holds and at both neighbours, which reaches a lookahead
// anchor's key at either edge of a window without naming it.
type searchCase struct {
	growth  int
	density float64
	ops     []byte
}

var searchDensities = []float64{0, DefaultPointerDensity, 0.5}

// searchCaseMaxInserts bounds a case's inserts, so that probing every
// cell stays cheap enough to fuzz.
const searchCaseMaxInserts = 3000

// Operation codes; an operation is a code and an argument byte.
const (
	opInsert  = iota // one key: 3*arg, so that neighbours of stored keys are absent
	opDelete         // one key: 3*arg
	opBurst          // 8*arg+1 inserts of generated keys, to carry cells into deeper levels
	opCompact        // arg unused
	opKinds
)

// apply runs the case's operations on c.
func (sc searchCase) apply(c *GCOLA) {
	rng := workload.NewRNG(uint64(len(sc.ops)) + 1)
	inserts := 0
	for i := 0; i+1 < len(sc.ops); i += 2 {
		arg := uint64(sc.ops[i+1])
		switch sc.ops[i] % opKinds {
		case opInsert:
			if inserts++; inserts <= searchCaseMaxInserts {
				c.Insert(3*arg, arg<<8|uint64(i))
			}
		case opDelete:
			c.Delete(3 * arg)
		case opBurst:
			for n := 8*arg + 1; n > 0 && inserts < searchCaseMaxInserts; n, inserts = n-1, inserts+1 {
				k := 3 * (rng.Uint64() % 2048)
				c.Insert(k, k<<8|uint64(i))
			}
		case opCompact:
			c.Compact()
		}
	}
}

// searchTwins builds the case twice, each structure charging a DAM
// store of its own whose blocks are one cell and whose cache is two of
// them: any probe reordered, merged or dropped changes its counters.
func searchTwins(sc searchCase) (kern, ref *GCOLA, kernStore, refStore *dam.Store) {
	kernStore, refStore = dam.NewStore(core.ElementBytes, 2*core.ElementBytes), dam.NewStore(core.ElementBytes, 2*core.ElementBytes)
	kern = New(Options{Growth: sc.growth, PointerDensity: sc.density, Space: kernStore.Space("kernel")})
	ref = New(Options{Growth: sc.growth, PointerDensity: sc.density, Space: refStore.Space("reference")})
	sc.apply(kern)
	sc.apply(ref)
	return kern, ref, kernStore, refStore
}

// chargeDiff describes how the kernel's store and the reference's have
// been charged differently; "" when they have not.
func chargeDiff(kern, ref *dam.Store) string {
	kr, kw := kern.Accesses()
	rr, rw := ref.Accesses()
	if kern.Transfers() == ref.Transfers() && kr == rr && kw == rw {
		return ""
	}
	return fmt.Sprintf("charges differ: %d transfers, %d reads, %d writes; the reference %d, %d, %d",
		kern.Transfers(), kr, kw, ref.Transfers(), rr, rw)
}

// searchAnswer is what a Search returned.
type searchAnswer struct {
	val uint64
	ok  bool
}

// indexedSpillDepth is the first spilled level of indexedTwin: from
// level 7 on (g = 2), 5 (g = 3) and 4 (g = 4) a level spans chunks.
const indexedSpillDepth = 2

// indexedTwin builds the case once more as the out-of-core structure
// whose searches the spill index steers: unaccounted, spilled from level
// indexedSpillDepth on, at the smallest page cache. Close it when done.
func indexedTwin(t testing.TB, sc searchCase) *GCOLA {
	t.Helper()
	c, err := Open(Options{Growth: sc.growth, PointerDensity: sc.density,
		SpillDir: t.TempDir(), SpillDepth: indexedSpillDepth, SpillCacheBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	sc.apply(c)
	c.checkInvariants() // the index, too
	return c
}

// runSearchCase holds the kernel's structure to the reference's: every
// Search, every searchLevel over generated windows and every Range must
// return the same and leave the stores charged the same. The indexed
// spilled twin must answer every probe as the reference does. It returns
// the kernel's structure and the probes with their answers.
func runSearchCase(t testing.TB, sc searchCase) (*GCOLA, []uint64, []searchAnswer) {
	t.Helper()
	kern, ref, kernStore, refStore := searchTwins(sc)
	kern.checkInvariants()
	if d := chargeDiff(kernStore, refStore); d != "" {
		t.Fatalf("before the first probe: %s", d)
	}
	indexed := indexedTwin(t, sc)
	defer indexed.Close()

	seen := map[uint64]bool{0: true, ^uint64(0): true}
	probes := []uint64{0, ^uint64(0)}
	for l := range kern.levels {
		for _, e := range levelCells(kern, l) {
			for _, k := range []uint64{e.key - 1, e.key, e.key + 1} {
				if !seen[k] {
					seen[k] = true
					probes = append(probes, k)
				}
			}
		}
	}
	answers := make([]searchAnswer, len(probes))
	for i, k := range probes {
		kv, kok := kern.Search(k)
		rv, rok := ref.refSearch(k)
		if kv != rv || kok != rok {
			t.Fatalf("Search(%d) = (%d, %v), the reference (%d, %v)", k, kv, kok, rv, rok)
		}
		if d := chargeDiff(kernStore, refStore); d != "" {
			t.Fatalf("Search(%d): %s", k, d)
		}
		if iv, iok := indexed.Search(k); iv != rv || iok != rok {
			t.Fatalf("indexed spilled Search(%d) = (%d, %v), the reference (%d, %v)", k, iv, iok, rv, rok)
		}
		answers[i] = searchAnswer{kv, kok}
	}

	// The kernel alone, over windows no search of this structure may
	// have produced: unknown on either side, clamped, inverted, empty.
	rng := workload.NewRNG(uint64(len(probes)))
	for l := range kern.levels {
		lv := &kern.levels[l]
		if lv.empty() {
			continue
		}
		for n := 0; n < 64; n++ {
			key := probes[rng.Intn(len(probes))]
			lo, hi := rng.Intn(lv.cells+3)-1, rng.Intn(lv.cells+3)-1
			kv, ks, klo, khi := kern.searchLevel(l, key, lo, hi)
			rv, rs, rlo, rhi := ref.refSearchLevel(l, key, lo, hi)
			if kv != rv || ks != rs || klo != rlo || khi != rhi {
				t.Fatalf("level %d key %d window [%d, %d): kernel (%d, %d, [%d, %d)), reference (%d, %d, [%d, %d))",
					l, key, lo, hi, kv, ks, klo, khi, rv, rs, rlo, rhi)
			}
			if d := chargeDiff(kernStore, refStore); d != "" {
				t.Fatalf("level %d key %d window [%d, %d): %s", l, key, lo, hi, d)
			}
		}
	}

	// The index's narrowing must leave a level search as it was. At every
	// chunk boundary of the indexed twin's levels, for the keys either side
	// of it and their neighbours: a level the index skips holds no real or
	// tombstone cell for the key, and one it narrows returns what the
	// kernel returns over the whole level — answer and next window.
	var w spillWindow
	for l := range indexed.levels {
		ilv := &indexed.levels[l]
		if !ilv.idx.valid {
			continue
		}
		cells := levelCells(indexed, l)
		for j := 0; j < len(cells); j += spillChunkCells {
			keys := []uint64{cells[j].key - 1, cells[j].key, cells[j].key + 1}
			if j > 0 {
				keys = append(keys, cells[j-1].key)
			}
			for _, key := range keys {
				kv, ks, klo, khi := kern.searchLevel(l, key, -1, -1)
				ref.refSearchLevel(l, key, -1, -1) // keeps the twin stores level
				lo, hi, maybe := ilv.idx.window(ilv, key, -1, -1)
				if !maybe {
					if ks != notFound {
						t.Fatalf("level %d key %d: the index skips a level that holds the key", l, key)
					}
					continue
				}
				iv, is, ilo, ihi := indexed.searchLevelSpilled(&w, l, key, lo, hi)
				if iv != kv || is != ks || ilo != klo || ihi != khi {
					t.Fatalf("level %d key %d narrowed to [%d, %d): (%d, %d, [%d, %d)), the whole level (%d, %d, [%d, %d))",
						l, key, lo, hi, iv, is, ilo, ihi, kv, ks, klo, khi)
				}
			}
		}
	}

	// Range: points, short spans, scans cut short, and everything.
	var got, want []core.Element
	ranges := [][2]uint64{{0, ^uint64(0)}}
	for i := 0; i < len(probes); i += 7 {
		for _, span := range []uint64{0, 12, 600} {
			ranges = append(ranges, [2]uint64{probes[i], max(probes[i], probes[i]+span)})
		}
	}
	for i, r := range ranges {
		limit := len(probes)
		if i%3 == 2 {
			limit = 3
		}
		got, want = got[:0], want[:0]
		kern.Range(r[0], r[1], func(e core.Element) bool { got = append(got, e); return len(got) < limit })
		ref.refRange(r[0], r[1], func(e core.Element) bool { want = append(want, e); return len(want) < limit })
		if len(got) != len(want) {
			t.Fatalf("Range(%d, %d): %d elements, the reference %d", r[0], r[1], len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("Range(%d, %d)[%d] = %+v, the reference %+v", r[0], r[1], j, got[j], want[j])
			}
		}
		if d := chargeDiff(kernStore, refStore); d != "" {
			t.Fatalf("Range(%d, %d): %s", r[0], r[1], d)
		}
	}
	return kern, probes, answers
}

// ops builds an operation list from (code, argument) pairs.
func ops(pairs ...int) []byte {
	out := make([]byte, len(pairs))
	for i, v := range pairs {
		out[i] = byte(v)
	}
	return out
}

// searchTable is the hand-made shapes; FuzzSearchMatchesReference starts
// from them. Every one runs at each growth factor and pointer density.
func searchTable() map[string][]byte {
	return map[string][]byte{
		"empty":        nil,
		"level 0 only": ops(opInsert, 5),
		"two levels":   ops(opInsert, 5, opInsert, 9),
		// 1 + 8*31+1 + 8*15+1 + ... cells: reals on most levels.
		"ladder":                       ops(opBurst, 255, opBurst, 31, opBurst, 15, opBurst, 3, opInsert, 1),
		"short ladder":                 ops(opBurst, 12, opInsert, 200),
		"compacted":                    ops(opBurst, 255, opBurst, 100, opCompact, 0),
		"compacted, then a few on top": ops(opBurst, 200, opCompact, 0, opBurst, 1, opInsert, 77),
		// Empty levels between the occupied ones, so that a search enters a
		// level with no window: a carry empties every level below its
		// target, and small levels hold no lookahead cell at any density.
		"gaps of empty levels": ops(opBurst, 127, opBurst, 0, opBurst, 0),
		"one key on many levels": ops(opInsert, 40, opBurst, 0, opInsert, 40, opBurst, 1, opInsert, 40,
			opBurst, 3, opInsert, 40, opBurst, 15, opInsert, 40, opBurst, 63, opInsert, 40),
		"tombstone over real":         ops(opBurst, 40, opInsert, 50, opBurst, 20, opDelete, 50, opBurst, 2),
		"real over tombstone":         ops(opBurst, 40, opInsert, 50, opBurst, 20, opDelete, 50, opBurst, 2, opInsert, 50),
		"real over tombstone, deeper": ops(opBurst, 40, opInsert, 50, opBurst, 20, opDelete, 50, opBurst, 9, opInsert, 50, opBurst, 4),
		"every small key deleted": ops(opBurst, 60, opDelete, 0, opDelete, 1, opDelete, 2, opDelete, 3, opDelete, 4,
			opDelete, 5, opDelete, 6, opDelete, 7, opDelete, 8, opDelete, 9, opDelete, 10, opDelete, 11),
		"deleted, then compacted": ops(opBurst, 60, opDelete, 3, opDelete, 4, opCompact, 0, opInsert, 3),
		// At g = 2, p = 0.5 the 256 keys fill level 8 and leave level 7 its
		// samples of every fourth; the 128 re-inserted keys then merge into
		// level 7 beside them, a lookahead cell and a real of one key
		// either side of the chunk boundary at the level's cell 128.
		"lookahead and real across a chunk boundary": append(run(opInsert, 0, 256, 1), run(opInsert, 1, 129, 1)...),
		// The same level 8, then every eighth key deleted: the 32
		// tombstones meet level 5's samples of every sixteenth key.
		"tombstones behind lookahead cells": append(run(opInsert, 0, 256, 1), run(opDelete, 7, 256, 8)...),
	}
}

// run is the operation code applied to the arguments from, from+step, ...
// below to.
func run(code, from, to, step int) []byte {
	var out []byte
	for arg := from; arg < to; arg += step {
		out = append(out, byte(code), byte(arg))
	}
	return out
}

// TestSearchMatchesReference is the differential test of the RAM search
// kernel and Range: every shape of the table, at growth factors 2 to 4
// and pointer densities 0, 0.1 and 0.5, against the read path they
// replaced — results and charge stream. The shapes are then searched
// again from four goroutines inside a shared-read bracket: the answers
// must hold and Stats().Searches must count every one.
func TestSearchMatchesReference(t *testing.T) {
	for name, program := range searchTable() {
		for growth := 2; growth <= 4; growth++ {
			for _, density := range searchDensities {
				t.Run(fmt.Sprintf("%s/g=%d/p=%g", name, growth, density), func(t *testing.T) {
					kern, probes, answers := runSearchCase(t, searchCase{growth: growth, density: density, ops: program})
					if testing.Short() && growth > 2 {
						return
					}
					before := kern.Stats().Searches
					const readers = 4
					kern.BeginSharedReads()
					var wg sync.WaitGroup
					for r := 0; r < readers; r++ {
						wg.Add(1)
						go func() {
							defer wg.Done()
							for n := r % 2; n < len(probes); n += 2 { // two readers on every probe
								i := (n + r*len(probes)/readers) % len(probes)
								if v, ok := kern.Search(probes[i]); (searchAnswer{v, ok}) != answers[i] {
									t.Errorf("concurrent Search(%d) = (%d, %v), want %+v", probes[i], v, ok, answers[i])
									return
								}
							}
						}()
					}
					wg.Wait()
					kern.EndSharedReads()
					if got, want := kern.Stats().Searches-before, uint64(readers/2*len(probes)); got != want {
						t.Fatalf("Stats().Searches grew by %d over %d concurrent searches", got, want)
					}
				})
			}
		}
	}
}

// decodeSearchCase reads a fuzz input: a geometry byte, then operations.
func decodeSearchCase(data []byte) (searchCase, bool) {
	if len(data) == 0 {
		return searchCase{}, false
	}
	return searchCase{
		growth:  2 + int(data[0])%3,
		density: searchDensities[int(data[0]/3)%len(searchDensities)],
		ops:     data[1:],
	}, true
}

// FuzzSearchMatchesReference throws generated operation sequences at the
// differential check.
func FuzzSearchMatchesReference(f *testing.F) {
	geometry := byte(0) // the test above runs every shape at every geometry; a seed each is enough here
	for _, program := range searchTable() {
		f.Add(append([]byte{geometry % 9}, program...))
		geometry++
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if sc, ok := decodeSearchCase(data); ok {
			runSearchCase(t, sc)
		}
	})
}

// indexEdges counts two shapes the spill index must not be fooled by in
// the spilled levels of c: an equal-key run that straddles a chunk
// boundary and holds a real or tombstone cell, and a tombstone behind a
// lookahead cell of its key.
func indexEdges(c *GCOLA) (straddles, tombstones int) {
	for l := range c.levels {
		if c.levels[l].ext == nil {
			continue
		}
		cells := levelCells(c, l)
		for j := 1; j < len(cells); j++ {
			prev, e := cells[j-1], cells[j]
			if prev.key != e.key {
				continue
			}
			if j%spillChunkCells == 0 && (prev.kind != kindLookahead || e.kind != kindLookahead) {
				straddles++
			}
			if prev.kind == kindLookahead && e.kind == kindTombstone {
				tombstones++
			}
		}
	}
	return straddles, tombstones
}

// TestSearchTableReachesIndexEdges makes sure that the two shapes of
// searchTable built for indexEdges' cases reach them as the indexed
// spilled twin (at g = 2, p = 0.5), so that TestSearchMatchesReference
// holds the indexed search to the reference across both.
func TestSearchTableReachesIndexEdges(t *testing.T) {
	table := searchTable()
	for _, tc := range []struct {
		shape    string
		straddle bool
	}{
		{"lookahead and real across a chunk boundary", true},
		{"tombstones behind lookahead cells", false},
	} {
		c := indexedTwin(t, searchCase{growth: 2, density: 0.5, ops: table[tc.shape]})
		straddles, tombstones := indexEdges(c)
		c.Close()
		if tc.straddle && straddles == 0 || !tc.straddle && tombstones == 0 {
			t.Errorf("%q: %d straddling equal-key runs, %d tombstones behind a lookahead cell", tc.shape, straddles, tombstones)
		}
	}
}
