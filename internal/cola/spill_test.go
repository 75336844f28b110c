package cola

import (
	"bytes"
	"os"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dam"
	"repro/internal/extmem"
	"repro/internal/workload"
)

// openSpilled returns a spilled GCOLA over a test temp dir, closed on
// cleanup, with a deliberately tiny page cache so reads actually hit
// the files.
func openSpilled(t *testing.T, opt Options) *GCOLA {
	t.Helper()
	opt.SpillDir = t.TempDir()
	if opt.SpillDepth == 0 {
		opt.SpillDepth = 3
	}
	if opt.SpillCacheBytes == 0 {
		opt.SpillCacheBytes = 1 // floored to extmem.MinCacheChunks chunks
	}
	c, err := Open(opt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() {
		if err := c.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return c
}

// TestSpillParityWithRAM drives an identical mixed workload through an
// in-RAM and a spilled GCOLA, each charging its own DAM store with the
// same geometry, and requires identical observable behaviour AND a
// bit-identical predicted transfer count: the spill mode must change
// where bytes live, never what the DAM model charges.
func TestSpillParityWithRAM(t *testing.T) {
	ramStore := dam.NewStore(4096, 1<<15)
	spillStore := dam.NewStore(4096, 1<<15)
	ram := New(Options{Growth: 2, PointerDensity: DefaultPointerDensity, Space: ramStore.Space("cola")})
	sp := openSpilled(t, Options{Growth: 2, PointerDensity: DefaultPointerDensity, Space: spillStore.Space("cola")})

	const n = 5000
	seq := workload.NewRandomUnique(7)
	keys := make([]uint64, 0, n)
	run := func(f func(c *GCOLA)) {
		f(ram)
		f(sp)
	}
	for i := 0; i < n; i++ {
		k := seq.Next()
		keys = append(keys, k)
		run(func(c *GCOLA) { c.Insert(k, k+1) })
		// Sprinkle in duplicate updates, deletes, and point reads.
		switch i % 97 {
		case 13:
			run(func(c *GCOLA) { c.Insert(keys[i/2], 42) })
		case 31:
			run(func(c *GCOLA) { c.Delete(keys[i/3]) })
		case 59:
			run(func(c *GCOLA) { c.Search(keys[i/4]) })
		}
	}
	sp.checkInvariants()
	ram.checkInvariants()

	if ram.Len() != sp.Len() {
		t.Fatalf("Len: ram %d, spilled %d", ram.Len(), sp.Len())
	}
	for _, k := range keys {
		rv, rok := ram.Search(k)
		sv, sok := sp.Search(k)
		if rv != sv || rok != sok {
			t.Fatalf("Search(%d): ram (%d,%v), spilled (%d,%v)", k, rv, rok, sv, sok)
		}
		// Search by search, not just in total: the windowed kernel must
		// charge exactly what the RAM kernel charges.
		if ramStore.Transfers() != spillStore.Transfers() {
			t.Fatalf("Search(%d): predicted transfers diverge: ram %d, spilled %d",
				k, ramStore.Transfers(), spillStore.Transfers())
		}
	}
	// Full range scans must agree element for element.
	var got, want []core.Element
	ram.Range(0, ^uint64(0), func(e core.Element) bool { want = append(want, e); return true })
	sp.Range(0, ^uint64(0), func(e core.Element) bool { got = append(got, e); return true })
	if len(got) != len(want) {
		t.Fatalf("Range: ram %d elements, spilled %d", len(want), len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Range[%d]: ram %+v, spilled %+v", i, want[i], got[i])
		}
	}
	// The DAM prediction must not depend on where levels live.
	if ramStore.Transfers() != spillStore.Transfers() {
		t.Fatalf("predicted transfers diverge: ram %d, spilled %d",
			ramStore.Transfers(), spillStore.Transfers())
	}
	// The spilled structure really is out of core: files on disk, actual
	// chunk I/O performed.
	files, bytes, err := sp.SpillFileStats()
	if err != nil {
		t.Fatalf("SpillFileStats: %v", err)
	}
	if files == 0 || bytes == 0 {
		t.Fatalf("spilled structure has no spill files (files=%d bytes=%d)", files, bytes)
	}
	reads, writes := sp.ActualTransfers()
	if reads == 0 || writes == 0 {
		t.Fatalf("spilled structure performed no actual I/O (reads=%d writes=%d)", reads, writes)
	}
	if r, w := ram.ActualTransfers(); r != 0 || w != 0 {
		t.Fatalf("in-RAM structure reports actual I/O (reads=%d writes=%d)", r, w)
	}

	// Compact must agree too (it exercises the spilled bottom-merge path).
	run(func(c *GCOLA) { c.Compact() })
	sp.checkInvariants()
	if ram.Len() != sp.Len() {
		t.Fatalf("Len after Compact: ram %d, spilled %d", ram.Len(), sp.Len())
	}
	if ramStore.Transfers() != spillStore.Transfers() {
		t.Fatalf("predicted transfers diverge after Compact: ram %d, spilled %d",
			ramStore.Transfers(), spillStore.Transfers())
	}
}

// craftedTwins lays the same two levels by hand into an in-RAM and a
// spilled GCOLA, each charging a DAM store of its own with a starved
// cache, so the spilled search kernel can be driven into its corners.
// Level 10 holds 1,000 reals, key 100(i+1) at logical cell 126+i — file
// cell i, so chunk boundaries fall at i = 128, 256, ... Level 9 holds a
// lookahead cell for every 20th of them, reals at keys 100m+50, and two
// things no merge would build: 100 lookahead cells of key 50,000 ahead
// of a real with that key, and 80 lookahead cells of key 70,000 with no
// real behind them — both runs longer than the search window — and,
// for m in (800, 900), a real at every 100m+50 and not one lookahead
// cell, so a right-bound scan from there outruns the window too. Key
// 90,000 is deleted: level 9 holds its tombstone. Level 8 holds a
// lookahead cell for every 4th cell of level 9 and reals at keys
// 100m+25, exactly 256 cells: two whole chunks, so a search that falls
// off its end has no cell left to fetch.
func craftedTwins(t *testing.T) (ram, sp *GCOLA, ramStore, spStore *dam.Store) {
	t.Helper()
	ramStore = dam.NewStore(4096, 4*4096)
	spStore = dam.NewStore(4096, 4*4096)
	ram = New(Options{Growth: 2, PointerDensity: DefaultPointerDensity, Space: ramStore.Space("cola")})
	sp = openSpilled(t, Options{Growth: 2, PointerDensity: DefaultPointerDensity, Space: spStore.Space("cola")})

	var lower, upper []entry
	for m := 1; m <= 1000; m++ {
		key, at := uint64(100*m), int32(126+m-1)
		upper = append(upper, entry{key: key, val: key + 1, kind: kindReal})
		runs := 0
		switch m {
		case 500:
			runs = 100
		case 700:
			runs = 80
		}
		desert := m > 800 && m < 900
		if m%20 == 0 && !desert {
			runs++
		}
		for ; runs > 0; runs-- {
			lower = append(lower, entry{key: key, left: at, kind: kindLookahead})
		}
		switch {
		case m == 500:
			lower = append(lower, entry{key: key, val: 77, kind: kindReal})
		case m == 900:
			lower = append(lower, entry{key: key, kind: kindTombstone})
		}
		if m%4 == 1 || desert {
			lower = append(lower, entry{key: key + 50, val: key + 51, kind: kindReal})
		}
	}
	for _, c := range []*GCOLA{ram, sp} {
		c.ensureLevel(10)
		if c.levels[10].cells-len(upper) != 126 {
			t.Fatalf("level 10 would start at %d, the fixture assumes 126", c.levels[10].cells-len(upper))
		}
	}
	start9 := ram.levels[9].cells - len(lower)
	var top []entry
	for at := 3; at < len(lower); at += 4 {
		top = append(top, entry{key: lower[at].key, left: int32(start9 + at), kind: kindLookahead})
	}
	for m := uint64(1); len(top) < 2*spillChunkCells; m++ {
		top = append(top, entry{key: 100*m + 25, val: 100*m + 26, kind: kindReal})
	}
	sort.SliceStable(top, func(a, b int) bool { return top[a].key < top[b].key })
	ram.installLevel(10, upper)
	ram.installLevel(9, lower)
	ram.installLevel(8, top)
	sp.installLevel(10, upper)
	sp.installLevel(9, lower)
	sp.installLevel(8, top)
	return ram, sp, ramStore, spStore
}

// TestSpilledSearchKernelMatchesRAM drives searchLevelSpilled and
// searchLevel over the crafted twins with windows chosen to hit every
// branch of the windowed kernel — a window across a chunk boundary, on
// the level's first and last cell, unknown, clamped, and equal-key runs
// that outrun the buffer into the per-cell fallback — and requires the
// same answer, the same next window and the same DAM charges each time.
// Where the geometry fixes it, the page lookups are pinned too: one per
// level, two only when the cells needed straddle a chunk boundary.
func TestSpilledSearchKernelMatchesRAM(t *testing.T) {
	ram, sp, ramStore, spStore := craftedTwins(t)
	start9, cells9 := ram.levels[9].start, ram.levels[9].cells
	// First cells of the two runs; asked of both twins so that their
	// charge streams stay level.
	run5, run7 := ram.lowerBound(9, start9, cells9, 50000), ram.lowerBound(9, start9, cells9, 70000)
	if sp.lowerBound(9, start9, cells9, 50000) != run5 || sp.lowerBound(9, start9, cells9, 70000) != run7 {
		t.Fatal("lowerBound disagrees between the twins")
	}

	for _, tc := range []struct {
		name    string
		l       int
		key     uint64
		lo, hi  int
		lookups int // page lookups expected of the spilled kernel; -1 when the probe path decides
	}{
		{"inside one chunk, hit", 10, 5000, 126 + 40, 126 + 62, 1},
		{"inside one chunk, miss", 10, 5050, 126 + 40, 126 + 62, 1},
		{"across a chunk boundary, hit before it", 10, 12800, 126 + 118, 126 + 140, 2},
		{"across a chunk boundary, hit on it", 10, 12900, 126 + 118, 126 + 140, 2},
		{"across a chunk boundary, miss", 10, 12950, 126 + 118, 126 + 140, 2},
		{"window ends at a chunk boundary", 10, 12750, 126 + 110, 126 + 127, 1},
		{"first cell, hit", 10, 100, 126, 126 + 20, 1},
		{"below the first cell", 10, 7, 126, 126 + 20, 1},
		{"last cell, hit", 10, 100000, 1126 - 20, 1126, 1},
		{"past the last cell", 10, 100001, 1126 - 20, 1126, 1},
		{"empty window at the level's end", 10, 100001, 1126, 1126, 1},
		{"window below the occupied range", 10, 300, 3, 126 + 9, 1},
		{"inverted window", 10, 5000, 126 + 60, 126 + 40, 1},
		{"unknown window, hit", 10, 33300, -1, -1, -1},
		{"unknown window, miss", 10, 33333, -1, -1, -1},
		{"unknown window, below everything", 10, 1, -1, -1, -1},
		{"unknown window, above everything", 10, 1 << 40, -1, -1, -1},
		{"level 9 first cell", 9, 150, start9, start9 + 10, 1},
		{"level 9 below the first cell", 9, 1, start9, start9 + 10, 1},
		{"level 9 last cell", 9, ram.cellAt(9, cells9-1).key, cells9 - 10, cells9, 1},
		{"level 9 past the last cell", 9, 1 << 40, cells9 - 10, cells9, 1},
		{"window starts on a chunk boundary, lands past it", 9, ram.cellAt(9, start9+133).key, start9 + 128, start9 + 140, 1},
		{"window starts on a chunk boundary, lands on it", 9, ram.cellAt(9, start9+128).key - 1, start9 + 128, start9 + 140, 2},
		{"level 9 unknown, real hit", 9, 12150, -1, -1, -1},
		{"level 9 unknown, miss between lookaheads", 9, 12160, -1, -1, -1},
		{"level 9 lookahead key without a real", 9, 4000, -1, -1, -1},
		{"long lookahead run ending in a real", 9, 50000, run5 - 3, run5 + 5, -1},
		{"long lookahead run, unknown window", 9, 50000, -1, -1, -1},
		{"long lookahead run with no real", 9, 70000, run7 - 3, run7 + 5, -1},
		{"long lookahead run with no real, unknown window", 9, 70000, -1, -1, -1},
		{"just below the long run", 9, 49999, run5 - 3, run5 + 5, -1},
		{"no lookahead cell for 99 cells", 9, 80160, -1, -1, -1},
		{"off the end of a level of whole chunks", 8, 1 << 40, -1, -1, -1},
		{"empty window off the end of a level of whole chunks", 8, 1 << 40, 1 << 20, 1 << 20, 1},
		{"tombstone behind a lookahead cell", 9, 90000, -1, -1, -1},
	} {
		var w spillWindow
		before := sp.ext.CacheHits() + sp.ext.ChunkReads()
		rv, rs, rlo, rhi := ram.searchLevel(tc.l, tc.key, tc.lo, tc.hi)
		sv, ss, slo, shi := sp.searchLevelSpilled(&w, tc.l, tc.key, tc.lo, tc.hi)
		if rv != sv || rs != ss || rlo != slo || rhi != shi {
			t.Errorf("%s: ram (%d, %d, [%d, %d)), spilled (%d, %d, [%d, %d))", tc.name, rv, rs, rlo, rhi, sv, ss, slo, shi)
		}
		ra, _ := ramStore.Accesses()
		sa, _ := spStore.Accesses()
		if ramStore.Transfers() != spStore.Transfers() || ra != sa {
			t.Fatalf("%s: charges diverge: ram %d transfers / %d reads, spilled %d / %d",
				tc.name, ramStore.Transfers(), ra, spStore.Transfers(), sa)
		}
		if got := int(sp.ext.CacheHits() + sp.ext.ChunkReads() - before); tc.lookups >= 0 && got != tc.lookups {
			t.Errorf("%s: %d page lookups, want %d", tc.name, got, tc.lookups)
		}
	}

	// Whole searches: levels 0-7 are empty, so level 8 is entered with an
	// unknown window and levels 9 and 10 through the pointers above them.
	for k := uint64(0); k <= 100100; k += 25 {
		rv, rok := ram.Search(k)
		sv, sok := sp.Search(k)
		if rv != sv || rok != sok {
			t.Fatalf("Search(%d): ram (%d,%v), spilled (%d,%v)", k, rv, rok, sv, sok)
		}
		inUpper := k%100 == 0 && k >= 100 && k <= 100000 && k != 90000
		inLower := k%100 == 50 && k < 100000 && (k%400 == 150 || k > 80100 && k < 90000)
		inTop := k%100 == 25 && k >= 125 && k <= 100*uint64(ram.levels[8].real)+25
		if wantOK := inUpper || inLower || inTop; rok != wantOK {
			t.Fatalf("Search(%d) found=%v, want %v", k, rok, wantOK)
		}
		if ramStore.Transfers() != spStore.Transfers() {
			t.Fatalf("Search(%d): predicted transfers diverge: ram %d, spilled %d", k, ramStore.Transfers(), spStore.Transfers())
		}
		// The real behind the run of 100 lookahead cells is only reachable
		// through the per-cell fallback.
		if k == 50000 && sv != 77 {
			t.Fatalf("Search(50000) = %d, want the level-9 real behind the lookahead run", sv)
		}
	}
}

// TestSpillAnnihilationEmptiesLevels deletes every key and compacts: the
// all-tombstone bottom merge must leave the spilled structure empty with
// no leftover level images.
func TestSpillAnnihilationEmptiesLevels(t *testing.T) {
	c := openSpilled(t, Options{Growth: 2, PointerDensity: DefaultPointerDensity})
	const n = 300
	for i := uint64(0); i < n; i++ {
		c.Insert(i, i)
	}
	files, _, _ := c.SpillFileStats()
	if files == 0 {
		t.Fatal("workload too small to spill; raise n")
	}
	for i := uint64(0); i < n; i++ {
		if !c.Delete(i) {
			t.Fatalf("Delete(%d) missed", i)
		}
	}
	c.Compact()
	c.checkInvariants()
	if c.Len() != 0 {
		t.Fatalf("Len = %d after deleting everything", c.Len())
	}
	files, bytes, err := c.SpillFileStats()
	if err != nil {
		t.Fatalf("SpillFileStats: %v", err)
	}
	if files != 0 || bytes != 0 {
		t.Fatalf("annihilating compaction left %d spill files (%d bytes)", files, bytes)
	}
	// The structure remains usable.
	c.Insert(1, 2)
	if v, ok := c.Search(1); !ok || v != 2 {
		t.Fatalf("Search after re-insert = (%d,%v)", v, ok)
	}
}

// TestSpillBulkLoad bulk-loads enough elements to land the install in a
// spilled level directly.
func TestSpillBulkLoad(t *testing.T) {
	c := openSpilled(t, Options{Growth: 2, PointerDensity: DefaultPointerDensity})
	elems := make([]core.Element, 0, 2000)
	for i := uint64(0); i < 2000; i++ {
		elems = append(elems, core.Element{Key: i * 3, Value: i})
	}
	c.InsertBatch(elems)
	c.checkInvariants()
	if c.Len() != len(elems) {
		t.Fatalf("Len = %d, want %d", c.Len(), len(elems))
	}
	if files, _, _ := c.SpillFileStats(); files == 0 {
		t.Fatal("bulk load of 2000 elements did not spill")
	}
	for _, e := range elems {
		if v, ok := c.Search(e.Key); !ok || v != e.Value {
			t.Fatalf("Search(%d) = (%d,%v), want (%d,true)", e.Key, v, ok, e.Value)
		}
	}
}

// TestSpillSnapshotRoundTrip checks that snapshot bytes do not depend on
// where levels live and that a snapshot loads correctly into either
// home, indexes included: RAM->spilled, spilled->RAM, spilled->spilled.
func TestSpillSnapshotRoundTrip(t *testing.T) {
	ram := New(Options{Growth: 2, PointerDensity: DefaultPointerDensity})
	sp := openSpilled(t, Options{Growth: 2, PointerDensity: DefaultPointerDensity})
	seq := workload.NewRandomUnique(11)
	keys := make([]uint64, 0, 3000)
	for i := 0; i < 3000; i++ {
		k := seq.Next()
		keys = append(keys, k)
		ram.Insert(k, k^7)
		sp.Insert(k, k^7)
	}
	var ramBuf, spBuf bytes.Buffer
	if _, err := ram.WriteTo(&ramBuf); err != nil {
		t.Fatalf("ram WriteTo: %v", err)
	}
	if _, err := sp.WriteTo(&spBuf); err != nil {
		t.Fatalf("spilled WriteTo: %v", err)
	}
	if !bytes.Equal(ramBuf.Bytes(), spBuf.Bytes()) {
		t.Fatal("snapshot bytes differ between RAM and spilled structures")
	}

	check := func(name string, c *GCOLA) {
		t.Helper()
		c.checkInvariants()
		if c.Len() != ram.Len() {
			t.Fatalf("%s: Len = %d, want %d", name, c.Len(), ram.Len())
		}
		for _, k := range keys[:200] {
			if v, ok := c.Search(k); !ok || v != k^7 {
				t.Fatalf("%s: Search(%d) = (%d,%v)", name, k, v, ok)
			}
		}
	}
	intoRAM := New(Options{Growth: 2, PointerDensity: DefaultPointerDensity})
	if _, err := intoRAM.ReadFrom(bytes.NewReader(spBuf.Bytes())); err != nil {
		t.Fatalf("spilled->RAM ReadFrom: %v", err)
	}
	check("spilled->RAM", intoRAM)
	// ReadFrom indexes the large RAM levels as the merges that wrote them
	// did (checkInvariants above requires it level by level).
	if indexedRAMLevels(intoRAM) == 0 || indexedRAMLevels(intoRAM) != indexedRAMLevels(ram) {
		t.Fatalf("spilled->RAM: %d indexed RAM levels, the saved structure %d", indexedRAMLevels(intoRAM), indexedRAMLevels(ram))
	}

	intoSpill := openSpilled(t, Options{Growth: 2, PointerDensity: DefaultPointerDensity})
	if _, err := intoSpill.ReadFrom(bytes.NewReader(ramBuf.Bytes())); err != nil {
		t.Fatalf("RAM->spilled ReadFrom: %v", err)
	}
	check("RAM->spilled", intoSpill)
	if files, _, _ := intoSpill.SpillFileStats(); files == 0 {
		t.Fatal("loading a deep snapshot into a spilled structure created no spill files")
	}
	// ReadFrom writes each image's index with it (checkInvariants above
	// held every valid one to its image): searches after the load still
	// skip the levels that cannot hold their key, reading about one chunk
	// each, not one per spilled level.
	for l, lv := range intoSpill.levels {
		if lv.ext != nil && !lv.idx.valid {
			t.Fatalf("RAM->spilled: level %d loaded without its index", l)
		}
	}
	intoSpill.DropSpillCache()
	intoSpill.ResetSpillCounters()
	for _, k := range keys {
		intoSpill.Search(k)
	}
	if reads, _ := intoSpill.ActualTransfers(); float64(reads) > 1.2*float64(len(keys)) {
		t.Fatalf("RAM->spilled: %d chunk reads over %d searches, want at most 1.2 each", reads, len(keys))
	}

	// A failed load must leave no spill files behind.
	trunc := spBuf.Bytes()[:spBuf.Len()-13]
	broken := openSpilled(t, Options{Growth: 2, PointerDensity: DefaultPointerDensity})
	if _, err := broken.ReadFrom(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated snapshot loaded without error")
	}
	if files, _, _ := broken.SpillFileStats(); files != 0 {
		t.Fatalf("failed ReadFrom left %d spill files behind", files)
	}
}

// TestSpillSharedReadStress runs bracketed concurrent searches and range
// scans over a spilled structure under the race detector: the striped
// page cache, filling from every goroutine at once, must hold up. The
// unaccounted structure's searches go through its spill index; the
// accounted one keeps none and reads every level it visits.
func TestSpillSharedReadStress(t *testing.T) {
	for _, tc := range []struct {
		name  string
		space *dam.Space
	}{
		{"unaccounted", nil},
		{"accounted", dam.NewStore(4096, 1<<15).Space("cola")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := openSpilled(t, Options{Growth: 2, PointerDensity: DefaultPointerDensity, Space: tc.space})
			const n = 4000
			seq := workload.NewRandomUnique(13)
			keys := make([]uint64, 0, n)
			stored := make(map[uint64]bool, n)
			for i := 0; i < n; i++ {
				k := seq.Next()
				keys = append(keys, k)
				stored[k] = true
				c.Insert(k, k+1)
			}
			if indexed := indexBytes(c) > 0; indexed != (tc.space == nil) {
				t.Fatalf("spill index built: %v", indexed)
			}
			c.BeginSharedReads()
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(seed int) {
					defer wg.Done()
					x := uint64(seed)*2654435761 + 1
					for i := 0; i < 500; i++ {
						x = x*6364136223846793005 + 1442695040888963407
						k := keys[int(x>>33)%len(keys)]
						if v, ok := c.Search(k); !ok || v != k+1 {
							t.Errorf("Search(%d) = (%d,%v) during epoch", k, v, ok)
							return
						}
						if !stored[k+1] && c.Contains(k+1) {
							t.Errorf("Search(%d) found an absent key during epoch", k+1)
							return
						}
						if i%50 == 0 {
							c.Range(k, k+1000, func(core.Element) bool { return true })
						}
					}
				}(g)
			}
			wg.Wait()
			c.EndSharedReads()
			c.checkInvariants()
		})
	}
}

// TestSpillOpenValidation covers the spill configuration errors.
func TestSpillOpenValidation(t *testing.T) {
	if _, err := Open(Options{Growth: 2, SpillDepth: 3}); err == nil {
		t.Fatal("accepted a spill depth without a spill directory")
	}
	if _, err := Open(Options{Growth: 2, SpillCacheBytes: 1 << 20}); err == nil {
		t.Fatal("accepted a spill cache budget without a spill directory")
	}
	if _, err := Open(Options{Growth: 2, SpillDir: t.TempDir(), SpillDepth: -1}); err == nil {
		t.Fatal("accepted a negative spill depth")
	}
	c, err := Open(Options{Growth: 2, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatalf("Open with defaults: %v", err)
	}
	if c.opt.SpillDepth != DefaultSpillDepth || c.opt.SpillCacheBytes != DefaultSpillCacheBytes {
		t.Fatalf("defaults not applied: depth=%d cache=%d", c.opt.SpillDepth, c.opt.SpillCacheBytes)
	}
	if !c.Spilled() {
		t.Fatal("Spilled() = false for a spill-configured structure")
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := c.Close(); err != nil { // idempotent
		t.Fatalf("second Close: %v", err)
	}
}

// TestSpillCloseRemovesDir verifies Close tears down the private spill
// directory.
func TestSpillCloseRemovesDir(t *testing.T) {
	parent := t.TempDir()
	c, err := Open(Options{Growth: 2, SpillDir: parent, SpillDepth: 2})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := uint64(0); i < 500; i++ {
		c.Insert(i, i)
	}
	dir := c.ext.Dir()
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("spill dir %s survives Close (stat err %v)", dir, err)
	}
}

// indexBytes is the RAM the spill index of c holds.
func indexBytes(c *GCOLA) int64 {
	var n int64
	for _, lv := range c.levels {
		n += int64(cap(lv.idx.fences))*8 + int64(cap(lv.idx.blooms))*int64(len(chunkBloom{}))*8
	}
	return n
}

// TestSpillIndexChunkReads pins the I/O the spill index saves, at equal
// memory. Two spilled structures hold the same 2^16 - 1 keys, so that
// every level holds real cells and a search must be turned away from
// each level that does not hold its key. The unaccounted one keeps an
// index and the smallest page cache; its accounted twin keeps no index
// and gets the same cache plus the index's bytes. Over uniform searches
// for keys they hold, the indexed structure must read at most 1.2 chunks
// a search, and the twin at least twice as many: the bytes do more as
// fences and filters than as page cache.
func TestSpillIndexChunkReads(t *testing.T) {
	const n = 1<<16 - 1
	indexed := openSpilled(t, Options{Growth: 2, PointerDensity: DefaultPointerDensity})
	keys := prefillGCOLA(t, indexed, n)
	spent := indexBytes(indexed)
	if spent == 0 {
		t.Fatal("the unaccounted structure built no index")
	}
	store := dam.NewStore(4096, 1<<20)
	twin := openSpilled(t, Options{Growth: 2, PointerDensity: DefaultPointerDensity, Space: store.Space("twin"),
		SpillCacheBytes: extmem.MinCacheChunks*extmem.DefaultChunkBytes + spent})
	prefillGCOLA(t, twin, n)
	if b := indexBytes(twin); b != 0 {
		t.Fatalf("the accounted twin built a %d-byte index", b)
	}

	const searches = 20000
	perSearch := func(c *GCOLA) float64 {
		rng := workload.NewRNG(3)
		for i := 0; i < searches/10; i++ { // warm the cache
			c.Search(keys[rng.Intn(len(keys))])
		}
		c.ResetSpillCounters()
		for i := 0; i < searches; i++ {
			if k := keys[rng.Intn(len(keys))]; !c.Contains(k) {
				t.Fatalf("Search(%d) missed a stored key", k)
			}
		}
		reads, _ := c.ActualTransfers()
		return float64(reads) / searches
	}
	got, base := perSearch(indexed), perSearch(twin)
	t.Logf("chunk reads per search: indexed %.3f (index %d KiB), accounted twin %.3f (cache %d KiB)",
		got, spent>>10, base, twin.opt.SpillCacheBytes>>10)
	if got > 1.2 {
		t.Errorf("indexed: %.3f chunk reads per search, want at most 1.2", got)
	}
	if base < 2*got {
		t.Errorf("accounted twin with the index's bytes as cache: %.3f chunk reads per search, want at least 2x the indexed %.3f", base, got)
	}
}

// TestSpillIndexInvalidDuringRewrite covers the state a failed rewrite
// leaves behind. At g = 3 a merge can target a level that already holds
// an image; writeSpilledLevel starts that level's index over before the
// first cell and marks it valid only at the commit, so a rewrite that
// fails half-way keeps the old image under a half-rebuilt index. Here
// the index of such a level is started over and half refilled with
// other keys, as the failed rewrite would leave it: searches must
// ignore it and still find every key of the old image. Marked valid,
// the same index must lose keys — the check can tell.
func TestSpillIndexInvalidDuringRewrite(t *testing.T) {
	c := openSpilled(t, Options{Growth: 3, PointerDensity: DefaultPointerDensity})
	seq := workload.NewRandomUnique(31)
	var keys []uint64
	for len(c.levels) <= 7 || c.levels[7].ext == nil || c.levels[0].empty() || c.mergeTarget() != 7 {
		k := seq.Next()
		keys = append(keys, k)
		c.Insert(k, k+1)
	}
	lv := &c.levels[7]
	if !lv.idx.valid {
		t.Fatal("level 7 carries no valid spill index")
	}
	ix := c.startIndex(lv)
	for j := 0; j < lv.used()/2; j++ {
		ix.add(j, uint64(j), kindReal)
	}
	c.checkInvariants()
	missed := func() (n int) {
		for _, k := range keys {
			if v, ok := c.Search(k); !ok || v != k+1 {
				n++
			}
		}
		return n
	}
	if n := missed(); n != 0 {
		t.Fatalf("%d of %d keys lost under a level's invalid index", n, len(keys))
	}
	ix.valid = true
	if missed() == 0 {
		t.Fatal("a half-rebuilt index marked valid lost no key: the test cannot tell")
	}
}

// TestSpillIndexEqualKeyRunOrder holds the index to the key's whole
// equal-key run, whatever order its cells come in. A merge emits a key's
// lookahead cells before its real one, but a loaded snapshot is only
// checked for key order, so a real can precede a lookahead cell of its
// key. Here one does, as the last cell of a chunk whose successor starts
// with that lookahead cell: the real must still be found.
func TestSpillIndexEqualKeyRunOrder(t *testing.T) {
	c := openSpilled(t, Options{Growth: 2, PointerDensity: DefaultPointerDensity})
	const l, k = 8, 1000
	c.ensureLevel(l + 1)
	cells := make([]entry, 0, 2*spillChunkCells)
	for i := uint64(0); i < spillChunkCells-1; i++ {
		cells = append(cells, entry{key: i, val: i + 1, left: -1})
	}
	cells = append(cells, entry{key: k, val: k + 1, left: -1}, entry{key: k, left: int32(c.levels[l+1].cells - 1), kind: kindLookahead})
	for i := uint64(k + 1); len(cells) < 2*spillChunkCells; i++ {
		cells = append(cells, entry{key: i, val: i + 1, left: -1})
	}
	c.installLevel(l, cells)
	lv := &c.levels[l]
	if lv.la != 1 || !lv.idx.valid || lv.idx.fences[1] != k {
		t.Fatalf("level %d: %d lookahead cells, index valid %v, second fence %d; the fixture wants 1, a valid index, %d",
			l, lv.la, lv.idx.valid, lv.idx.fences[1], k)
	}
	for _, want := range cells {
		if want.kind == kindLookahead {
			continue
		}
		if v, ok := c.Search(want.key); !ok || v != want.val {
			t.Fatalf("Search(%d) = (%d, %v), want (%d, true)", want.key, v, ok, want.val)
		}
	}
}

// TestChunkBloomFalsePositives pins the rate at which one chunk's Bloom
// block admits keys it does not hold, the number a model of the indexed
// search's reads is built from. Blocks are filled with a full chunk's
// 128 keys and with the 116 reals a chunk holds beside the paper's
// density of lookahead cells, and each is probed with as many further
// keys of its set. The sets: uniform keys; dense sequential keys and
// multiples of 2^10, 2^20 and 2^32, each probed with the keys that
// follow the block's own (those a search of the neighbouring chunk asks
// for); and the keys one shard of a two-way and of a sixteen-way
// shard.Map holds, which routes by the top bits of a Fibonacci multiply
// (shard.fibMult): a filter that takes its word from those bits serves
// such a shard from a fraction of its words. Every rate must stay under
// the bound, a little above the 3.27–3.32% and 2.54–2.57% the block
// measures at 128 and 116 keys; every key a block holds must be
// admitted.
func TestChunkBloomFalsePositives(t *testing.T) {
	const (
		blocks  = 8192
		fibMult = 0x9E3779B97F4A7C15
	)
	bounds := []struct {
		n     int
		bound float64
	}{{spillChunkCells, 0.036}, {116, 0.028}}
	for _, tc := range []struct {
		name   string
		stride uint64                // 0: uniform keys
		in     func(key uint64) bool // nil: every key of the stride
	}{
		{"uniform", 0, nil},
		{"sequential", 1, nil},
		{"multiples of 2^10", 1 << 10, nil},
		{"multiples of 2^20", 1 << 20, nil},
		{"multiples of 2^32", 1 << 32, nil},
		{"one shard of two, sequential", 1, func(k uint64) bool { return k*fibMult>>63 == 0 }},
		{"one shard of sixteen, uniform", 0, func(k uint64) bool { return k*fibMult>>60 == 3 }},
	} {
		for _, b := range bounds {
			n, bound := b.n, b.bound
			rng := workload.NewRNG(5)
			var last uint64
			next := func() uint64 {
				for {
					if tc.stride == 0 {
						last = rng.Uint64()
					} else {
						last += tc.stride
					}
					if tc.in == nil || tc.in(last) {
						return last
					}
				}
			}
			admitted := 0
			held := make([]uint64, n)
			for b := 0; b < blocks; b++ {
				var bl chunkBloom
				for i := range held {
					held[i] = next()
					bl.add(held[i])
				}
				for _, k := range held {
					if !bl.has(k) {
						t.Fatalf("%s, %d keys: a block does not admit its key %d", tc.name, n, k)
					}
				}
				for range held {
					if bl.has(next()) {
						admitted++
					}
				}
			}
			rate := float64(admitted) / float64(blocks*n)
			t.Logf("%s, %d keys: %.2f%% false positives", tc.name, n, 100*rate)
			if rate > bound {
				t.Errorf("%s, %d keys: %.2f%% false positives, want at most %.1f%%", tc.name, n, 100*rate, 100*bound)
			}
		}
	}
}
