// Package cola implements the lookahead-array family of Section 3 of
// "Cache-Oblivious Streaming B-trees" (Bender et al., SPAA 2007):
//
//   - GCOLA: the growth-factor-g lookahead array with pointer density p,
//     the implementation studied in the paper's Section 4. With g = 2 it
//     is the cache-oblivious lookahead array (COLA); with p = 0 it
//     degrades to the "basic COLA" whose searches binary-search every
//     level.
//   - Deamortized: the basic-COLA deamortization of Theorem 22
//     (safe/unsafe levels, O(log N) worst-case moves per insert).
//   - DeamortizedLookahead: the Theorem 24 deamortization with three
//     arrays per level and shadow/visible array states.
//
// All variants charge their memory traffic to a dam.Space so experiments
// can count block transfers in the DAM model; a nil space disables
// accounting.
package cola

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/dam"
	"repro/internal/extmem"
)

// Entry kinds. A level's array interleaves real elements and redundant
// lookahead entries in key order; tombstones are real entries marking a
// deletion (a documented extension — the paper analyzes only inserts,
// searches, and range queries).
const (
	kindReal uint8 = iota
	kindLookahead
	kindTombstone
)

// entry is one 32-byte array cell. The paper pads 16-byte elements to 32
// bytes and uses 64 of the padding bits for a copy of the closest real
// lookahead pointer to the left (field left) or, for redundant elements,
// for the lookahead pointer itself (field ptr).
type entry struct {
	key  uint64
	val  uint64
	ptr  int32 // kindLookahead: absolute index of the sampled cell in the next level
	left int32 // absolute index into next level of nearest lookahead at or before this cell; -1 if none
	kind uint8
}

// level is one array of the lookahead structure. Occupied cells live
// right-justified in data[start:], matching the paper ("we maintain the
// elements right justified in their array").
//
// A level lives in exactly one of two homes. In RAM, data holds the
// full cell array (len(data) == cells). Spilled — when the owning GCOLA
// has a spill store and the level index is at or past the spill depth —
// data is nil and the occupied window lives left-justified in an extmem
// level image: logical cell i (start <= i < cells) is file cell
// i - start, so the right-justified geometry, the DAM offsets, and
// every charge stay identical while only the occupied cells hit disk.
// ext is nil while a spilled level is empty (no file); idx is the
// image's derived in-RAM index (see chunkIndex). GCOLA.cellAt reads
// one cell from either home; the read path does not go through it for a
// RAM level — Search has a kernel per home (searchLevel over data itself,
// searchLevelSpilled over a copied window) and Range reads data directly.
type level struct {
	// data is the level's cell array in the DAM model: every index,
	// range, copy, or append on it must happen inside a //repro:charges
	// accessor (machine-checked by reprolint's damcharge analyzer).
	//repro:accounted
	data  []entry
	ext   *extmem.Level // spilled image of data[start:]; nil in RAM or when empty
	cells int           // total capacity in cells (== len(data) for RAM levels)
	start int           // first occupied cell; cells when empty
	real  int           // occupied real+tombstone cells (excludes lookahead entries)
	la    int           // occupied lookahead cells
	idx   chunkIndex    // spilled and unaccounted: fences and filters of the image
}

func (lv *level) used() int   { return lv.cells - lv.start }
func (lv *level) empty() bool { return lv.start == lv.cells }

// Options configures a GCOLA.
type Options struct {
	// Growth factor g >= 2. Level 0 holds one element; level l >= 1 holds
	// 2(g-1)g^(l-1) real elements. g = 2 gives the COLA.
	Growth int
	// PointerDensity p in [0, 0.5]: level l additionally holds
	// floor(p * realCapacity(l)) redundant lookahead entries. p = 0
	// disables fractional cascading (the "basic COLA"). The paper uses
	// p = 0.1.
	PointerDensity float64
	// Space receives DAM-model charge records; nil disables accounting.
	Space *dam.Space

	// SpillDir, when non-empty, turns on the out-of-core mode: levels at
	// index SpillDepth and deeper live in chunk-aligned files under a
	// private subdirectory of SpillDir (see internal/extmem) instead of
	// RAM slices. The merge ladder streams spilled levels sequentially;
	// Search and Range read through extmem's page cache. The DAM charge
	// stream is bit-identical to the in-RAM structure's, so the spill
	// store's actual-I/O counters can be compared against the DAM
	// prediction directly. Like Space, the spill configuration is runtime
	// wiring: it is not recorded in snapshots.
	SpillDir string
	// SpillDepth is the first level index backed by files; 0 means
	// DefaultSpillDepth. Must be >= 1 — level 0 receives single-cell
	// writes and always stays in RAM. Ignored unless SpillDir is set.
	SpillDepth int
	// SpillCacheBytes is the extmem page-cache budget (floored at
	// extmem.MinCacheChunks chunks); 0 means DefaultSpillCacheBytes.
	// Ignored unless SpillDir is set.
	SpillCacheBytes int64
}

// DefaultSpillDepth keeps the first 8 levels (a few KiB at g = 2) in
// RAM when spilling is enabled without an explicit depth.
const DefaultSpillDepth = 8

// DefaultSpillCacheBytes is the default extmem page-cache budget.
const DefaultSpillCacheBytes = 256 << 10

// DefaultPointerDensity is the pointer density used throughout the
// paper's experiments.
const DefaultPointerDensity = 0.1

// GCOLA is a lookahead array with growth factor g and pointer density p.
//
// Len is exact for workloads whose Insert calls use distinct keys, after
// Compact, and after any merge whose target is the bottom-most occupied
// level (such a merge sees the whole structure, so the count is
// reconciled authoritatively against the merged output). Between such
// merges, a key re-inserted while an older copy sits in a level the
// next merges do not reach is counted once per un-reconciled copy;
// copies that meet in a merge reconcile immediately.
//
// GCOLA is single-threaded for mutations, but its read path (Search,
// Range) follows the core.SharedReader contract: bracketed by
// Begin/EndSharedReads and with writers excluded, any number of
// goroutines may search concurrently — the search counter is atomic,
// Range runs out of pooled per-call cursors, DAM charges go through the
// store's frozen shared-read epoch, and spilled reads go through
// extmem's lock-striped page cache.
type GCOLA struct {
	opt    Options
	levels []level
	n      int // live-key count, reconciled during merges

	// ext is the spill store backing levels at or past opt.SpillDepth;
	// nil for a fully in-RAM structure. Close releases it.
	ext *extmem.Store

	// stats carries every counter except Searches, which lives in its
	// own atomic so concurrent bracketed searches never race Stats()
	// readers (the rest of the struct is only written under mutation
	// exclusion).
	stats    core.Stats
	searches atomic.Uint64

	// offsets[l] is the byte offset of level l in the DAM space, from the
	// deterministic capacity formula; filled alongside levels.
	offsets []int64

	// scratch holds the buffers the merge and pointer-distribution paths
	// reuse across calls, so steady-state operations do not allocate.
	// See the mergeScratch comment for the ownership rules.
	scratch mergeScratch
}

// rangeCursor tracks one level's position during Range's k-way merge.
type rangeCursor struct {
	level int
	pos   int
}

// mergeScratch is the per-tree reusable buffer set. Ownership rules
// (also documented in DESIGN.md):
//
//   - Scratch-backed memory is valid only inside the GCOLA call that
//     filled it. A merge's last step writes level storage (or the spill
//     writer's buffer), never scratch, so no level's array is ever a
//     scratch buffer and nothing retains a scratch alias.
//   - Every step of a ladder owns its slabs, so the slab a step reads and
//     the slab it writes never coincide; slabs are mergeSlabCells cells
//     whatever the levels hold, so a tree's scratch is a few KiB per
//     level and grows only when a merge is deeper than any before it.
//   - Only mutation paths (Insert/Delete/Compact) touch the scratch, and
//     those remain single-threaded; the shared-read path must not —
//     Range's cursors are pooled per call (see cursorPool) so bracketed
//     concurrent reads never contend on per-tree state.
type mergeScratch struct {
	one [1]entry // backing array for the incoming-entry run
	//repro:scratch
	steps []mergeStep // the ladder of the merge in progress, newest run first
	//repro:scratch
	slabs [][]entry // handed out in order to the ladder in progress: step outputs, spilled runs' cells
	nslab int       // slabs handed out so far
	//repro:scratch
	la []entry // lookahead sample buffer for distributePointers
}

var (
	_ core.Dictionary   = (*GCOLA)(nil)
	_ core.Deleter      = (*GCOLA)(nil)
	_ core.Statser      = (*GCOLA)(nil)
	_ core.SharedReader = (*GCOLA)(nil)
)

// New returns an empty g-COLA. It panics if opt.Growth < 2, the pointer
// density is outside [0, 0.5], or the spill configuration is invalid —
// use Open for an error instead of a panic (spilling touches the
// filesystem, so its failures are ordinary errors, not programmer
// bugs).
func New(opt Options) *GCOLA {
	c, err := Open(opt)
	if err != nil {
		panic(err.Error())
	}
	return c
}

// Open returns an empty g-COLA, creating the spill store when
// opt.SpillDir is set. The caller owns the result; a spilling structure
// holds an open directory of level files until Close.
func Open(opt Options) (*GCOLA, error) {
	if opt.Growth < 2 {
		return nil, errors.New("cola: growth factor must be at least 2")
	}
	if opt.PointerDensity < 0 || opt.PointerDensity > 0.5 {
		return nil, errors.New("cola: pointer density must be in [0, 0.5]")
	}
	c := &GCOLA{opt: opt}
	if opt.SpillDir == "" {
		if opt.SpillDepth != 0 || opt.SpillCacheBytes != 0 {
			return nil, errors.New("cola: spill depth/cache options require a spill directory")
		}
		return c, nil
	}
	if c.opt.SpillDepth == 0 {
		c.opt.SpillDepth = DefaultSpillDepth
	}
	if c.opt.SpillDepth < 1 {
		return nil, fmt.Errorf("cola: spill depth %d must be at least 1 (level 0 stays in RAM)", c.opt.SpillDepth)
	}
	if c.opt.SpillCacheBytes == 0 {
		c.opt.SpillCacheBytes = DefaultSpillCacheBytes
	}
	s, err := extmem.Open(extmem.Config{
		Dir:        c.opt.SpillDir,
		ChunkBytes: extmem.DefaultChunkBytes,
		CacheBytes: c.opt.SpillCacheBytes,
	})
	if err != nil {
		return nil, fmt.Errorf("cola: opening spill store: %w", err)
	}
	c.ext = s
	return c, nil
}

// Close releases the spill store, removing its on-disk level files; a
// fully in-RAM structure has nothing to release and Close is a no-op.
// A spilling structure must not be used after Close.
func (c *GCOLA) Close() error {
	if c.ext == nil {
		return nil
	}
	s := c.ext
	c.ext = nil
	return s.Close()
}

// spilledLevel reports whether level l is backed by the spill store.
func (c *GCOLA) spilledLevel(l int) bool {
	return c.ext != nil && l >= c.opt.SpillDepth
}

// Spilled reports whether the structure runs in out-of-core mode.
func (c *GCOLA) Spilled() bool { return c.ext != nil }

// ActualTransfers implements core.ActualTransferCounter: real aligned
// chunk reads and writes performed by the spill store — the measured
// counterpart of the DAM-charged prediction in the owning dam.Space.
// Both counts are zero for a fully in-RAM structure.
func (c *GCOLA) ActualTransfers() (reads, writes uint64) {
	if c.ext == nil {
		return 0, 0
	}
	return c.ext.ChunkReads(), c.ext.ChunkWrites()
}

// SpillFileStats reports the spill files on disk and their total bytes;
// zeros for an in-RAM structure.
func (c *GCOLA) SpillFileStats() (files int, bytes int64, err error) {
	if c.ext == nil {
		return 0, 0, nil
	}
	return c.ext.FileStats()
}

// ResetSpillCounters zeroes the spill store's I/O counters (cache
// contents and files untouched), so a measurement phase can start from
// zero the way dam.Space.ResetCounters allows for the predicted stream.
func (c *GCOLA) ResetSpillCounters() {
	if c.ext != nil {
		c.ext.ResetCounters()
	}
}

// DropSpillCache empties the spill page cache so a measurement starts
// cold, mirroring dam.Store.DropCache.
func (c *GCOLA) DropSpillCache() {
	if c.ext != nil {
		c.ext.DropCache()
	}
}

// SpillCacheChunks reports the spill page-cache budget in chunks (0 for
// an in-RAM structure) and the chunk size in bytes.
func (c *GCOLA) SpillCacheChunks() (chunks, chunkBytes int) {
	if c.ext == nil {
		return 0, 0
	}
	return c.ext.CacheChunks(), c.ext.ChunkBytes()
}

// NewCOLA returns the cache-oblivious lookahead array: growth factor 2
// with the paper's default pointer density.
func NewCOLA(space *dam.Space) *GCOLA {
	return New(Options{Growth: 2, PointerDensity: DefaultPointerDensity, Space: space})
}

// NewBasic returns the "basic COLA": growth factor 2 and no lookahead
// pointers, so searches binary-search every level (O(log^2 N) probes).
func NewBasic(space *dam.Space) *GCOLA {
	return New(Options{Growth: 2, Space: space})
}

// Growth reports the growth factor g.
func (c *GCOLA) Growth() int { return c.opt.Growth }

// Levels reports how many levels have been allocated.
func (c *GCOLA) Levels() int { return len(c.levels) }

// Stats implements core.Statser. Safe to call concurrently with
// bracketed shared reads: Searches is loaded atomically and the other
// counters only change under mutation exclusion.
func (c *GCOLA) Stats() core.Stats {
	st := c.stats
	st.Searches = c.searches.Load()
	return st
}

// BeginSharedReads implements core.SharedReader by opening a shared
// epoch on the owning DAM store (a no-op without accounting) and, in
// out-of-core mode, on the spill store, which from then on refuses
// writers (its page cache keeps filling on misses). See the GCOLA type
// comment for the bracket contract.
func (c *GCOLA) BeginSharedReads() {
	c.opt.Space.BeginSharedReads()
	c.ext.BeginSharedReads()
}

// EndSharedReads closes the bracket opened by BeginSharedReads.
func (c *GCOLA) EndSharedReads() {
	c.opt.Space.EndSharedReads()
	c.ext.EndSharedReads()
}

// realCapacity returns the number of real elements level l can hold:
// 1 for level 0, 2(g-1)g^(l-1) for l >= 1 (the paper's level sizes).
func (c *GCOLA) realCapacity(l int) int {
	if l == 0 {
		return 1
	}
	capacity := 2 * (c.opt.Growth - 1)
	for i := 1; i < l; i++ {
		capacity *= c.opt.Growth
	}
	return capacity
}

// lookaheadCapacity returns the redundant-entry budget of level l.
func (c *GCOLA) lookaheadCapacity(l int) int {
	if l == 0 {
		return 0
	}
	return int(c.opt.PointerDensity * float64(c.realCapacity(l)))
}

// totalCapacity is the allocated array size of level l.
func (c *GCOLA) totalCapacity(l int) int {
	return c.realCapacity(l) + c.lookaheadCapacity(l)
}

// ensureLevel allocates levels up through index l. Spilled levels get
// no RAM cell array — their occupied window materializes as an extmem
// image on first install.
func (c *GCOLA) ensureLevel(l int) {
	for len(c.levels) <= l {
		idx := len(c.levels)
		capTotal := c.totalCapacity(idx)
		var off int64
		if idx > 0 {
			off = c.offsets[idx-1] + int64(c.totalCapacity(idx-1))*core.ElementBytes
		}
		lv := level{cells: capTotal, start: capTotal}
		if !c.spilledLevel(idx) {
			lv.data = make([]entry, capTotal)
		}
		c.levels = append(c.levels, lv)
		c.offsets = append(c.offsets, off)
	}
}

// cellOffset is the byte offset of cell i of level l in the DAM space.
func (c *GCOLA) cellOffset(l, i int) int64 {
	return c.offsets[l] + int64(i)*core.ElementBytes
}

// chargeRead charges reading cells [i, i+n) of level l. It and
// chargeWrite are a guard small enough to be inlined around an
// out-of-line body, so a structure without accounting pays one
// predictable branch per charge, not a call; the guard lives here and
// call sites stay unconditional.
func (c *GCOLA) chargeRead(l, i, n int) {
	if c.opt.Space != nil {
		c.charge(l, i, n, false)
	}
}

// chargeWrite charges writing cells [i, i+n) of level l.
func (c *GCOLA) chargeWrite(l, i, n int) {
	if c.opt.Space != nil {
		c.charge(l, i, n, true)
	}
}

// charge is the body of chargeRead and chargeWrite.
//
//go:noinline
func (c *GCOLA) charge(l, i, n int, write bool) {
	if n <= 0 {
		return
	}
	if write {
		c.opt.Space.Write(c.cellOffset(l, i), int64(n)*core.ElementBytes)
	} else {
		c.opt.Space.Read(c.cellOffset(l, i), int64(n)*core.ElementBytes)
	}
}

// Len implements core.Dictionary; see the type comment for exactness.
func (c *GCOLA) Len() int { return c.n }

// Insert implements core.Dictionary.
func (c *GCOLA) Insert(key, value uint64) {
	c.stats.Inserts++
	// Count before routing: if the entry triggers a merge reaching the
	// bottom-most occupied level, the merge reconciles n authoritatively
	// against its output (which already contains this entry).
	c.n++
	c.insertEntry(entry{key: key, val: value, kind: kindReal, left: -1})
}

// Delete implements core.Deleter: it searches for the key (so the result
// and the live count are exact) and, if present, inserts a tombstone that
// annihilates the key during future merges.
func (c *GCOLA) Delete(key uint64) bool {
	c.stats.Deletes++
	if _, ok := c.Search(key); !ok {
		return false
	}
	// Count before routing, as in Insert, so a bottom-reaching merge's
	// authoritative reconciliation is not undone afterwards.
	c.n--
	c.insertEntry(entry{key: key, kind: kindTombstone, left: -1})
	return true
}

// insertEntry routes a real or tombstone entry into level 0, cascading a
// merge when level 0 is occupied.
//
//repro:charges opt.Space (level-0 write)
func (c *GCOLA) insertEntry(e entry) {
	movesBefore := c.stats.Moves
	c.ensureLevel(0)
	lv0 := &c.levels[0]
	if lv0.empty() {
		lv0.start = len(lv0.data) - 1
		lv0.data[lv0.start] = e
		lv0.real = 1
		c.chargeWrite(0, lv0.start, 1)
	} else {
		c.mergeDown(e)
	}
	if moved := c.stats.Moves - movesBefore; moved > c.stats.MaxMoves {
		c.stats.MaxMoves = moved
	}
}

// mergeTarget picks the smallest level t >= 1 that can absorb one new
// entry plus the real contents of every level below it. For g = 2 with
// distinct keys this reproduces the binary-counter carry of Lemma 19.
func (c *GCOLA) mergeTarget() int {
	incoming := 1 // the new entry
	for l := 0; ; l++ {
		c.ensureLevel(l)
		if l > 0 && c.levels[l].real+incoming <= c.realCapacity(l) {
			return l
		}
		incoming += c.levels[l].real
	}
}

// mergeDown merges the new entry and levels 0..t-1 into level t, then
// redistributes lookahead pointers down from t. Levels 0..t-1 end empty.
// Level t's own lookahead entries (pointing into level t+1, which is
// untouched) survive.
//
//repro:charges opt.Space (run reads + target write)
func (c *GCOLA) mergeDown(newEntry entry) {
	t := c.mergeTarget()
	// If level t is the bottom of the structure, tombstones are dropped
	// once they have annihilated every older copy of their key.
	atBottom := true
	for l := t + 1; l < len(c.levels); l++ {
		if !c.levels[l].empty() {
			atBottom = false
			break
		}
	}
	c.scratch.one[0] = newEntry
	c.mergeLevels(t, c.scratch.one[:], 0, atBottom)
}

// mergeLevels is the one merge driver, for both homes: it merges the
// incoming run (newest; may be empty), every occupied level below t
// (smaller level = newer) and level t's own cells into level t, empties
// the levels below t, and redistributes lookahead pointers down from t.
// Lookahead cells of the levels below t are dropped on the way (their
// target levels are being restructured); level t's own go by dropTarget.
// A bottom merge also drops tombstones and, seeing the entire structure,
// sets the live count authoritatively: with tombstones gone and no
// lookahead cell possible in a bottom level, the output length IS the
// live-key count, whatever un-reconciled duplicates smaller merges left.
//
// Charges: one range read per non-empty source run, one for the target's
// old content, one range write for the output — at the same logical
// cells wherever the levels live.
//
//repro:charges opt.Space (run reads + target write)
func (c *GCOLA) mergeLevels(t int, incoming []entry, dropTarget uint8, atBottom bool) {
	ladder := &c.scratch
	ladder.reset()
	bound := len(incoming)
	if bound > 0 {
		ladder.start(incoming)
	}
	for l := 0; l <= t; l++ {
		lv := &c.levels[l]
		if lv.empty() {
			continue
		}
		c.chargeRead(l, lv.start, lv.used())
		drop := dropLookahead
		if l < t {
			bound += lv.real
		} else {
			bound += lv.used() // in RAM the target's cells are merged in place: see writeLevel
			drop = dropTarget
		}
		if lv.ext != nil {
			ladder.push(nil, lv.ext.NewReader(0), drop)
		} else {
			ladder.push(lv.data[lv.start:], nil, drop)
		}
	}
	var drop uint8
	if atBottom {
		drop = dropTombstone
	}
	n := c.writeLevel(t, bound, drop)
	c.chargeWrite(t, c.levels[t].start, n)
	c.stats.Moves += uint64(n)
	if atBottom {
		c.n = n
	}
	for l := 0; l < t; l++ {
		c.clearLevel(l)
	}
	c.distributePointers(t)
}

// installLevel writes out, a sorted run that no scratch buffer backs,
// into the empty level l: the ladder of one run.
//
//repro:charges caller:distributePointers and BulkLoad charge the level write
func (c *GCOLA) installLevel(l int, out []entry) {
	c.scratch.reset()
	c.scratch.push(out, nil, 0)
	c.writeLevel(l, len(out), 0)
	clear(c.scratch.steps) // out is the caller's: a bulk load's run must not stay reachable from here
}

// writeLevel runs the scratch ladder into level l's storage — the last
// step's output buffer — and returns the number of cells written; bound
// is the most it can be, drop the kinds of cells left out. Occupancy, the
// counts and the live count's correction come from the steps' running
// state: there is no pass over the finished run.
// In RAM the output goes straight into the level's array from cell
// cells-bound on, right-justified as it stands unless cells were dropped
// on the way (a duplicate, a tombstone, a lookahead cell of the target
// itself); then it is moved up by that many. The level's old cells are
// the oldest run, read from where they are: they sit at the end of the
// array and bound counts every one, so the output could only reach a
// cell not yet read by writing more newer cells than there are — and a
// step is handed nothing from above but cells that are written (see
// push). On disk see writeSpilledLevel.
//
//repro:charges caller:mergeLevels charges the target write, installLevel's callers theirs
func (c *GCOLA) writeLevel(l, bound int, drop uint8) int {
	lv := &c.levels[l]
	if bound > lv.cells {
		panic("cola: merge output exceeds level capacity")
	}
	last := c.scratch.lastStep(drop)
	st := &c.scratch.steps[last]
	n := 0
	if !c.spilledLevel(l) {
		from := lv.cells - bound
		st.buf = lv.data[from:]
		c.scratch.refill(last)
		if n = len(st.out); n < bound {
			copy(lv.data[lv.cells-n:], lv.data[from:from+n])
		}
	} else {
		n = c.writeSpilledLevel(l, last)
	}
	lv.start = lv.cells - n
	lv.la = st.la
	lv.real = n - lv.la
	c.n -= c.scratch.release()
	return n
}

// Compact merges every level into a single level, dropping tombstones and
// duplicates, after which Len is exact for any preceding workload. A
// structure that already is what Compact would leave — as after a bottom
// merge or a bulk load, so what an idle durable store reopens to — is
// left as it stands.
//
//repro:charges opt.Space (level reads + bottom write)
func (c *GCOLA) Compact() {
	totalReal := 0
	bottom := -1
	for l := range c.levels {
		lv := &c.levels[l]
		totalReal += lv.real
		if !lv.empty() {
			bottom = l
		}
	}
	if bottom < 0 || c.compacted(bottom, totalReal) {
		return
	}
	t := bottom
	for c.realCapacity(t) < totalReal {
		t++
	}
	c.ensureLevel(t)
	// The target's own lookahead cells go too: pointers are rebuilt after.
	c.mergeLevels(t, nil, dropLookahead, true)
}

// compacted reports whether the structure, whose deepest occupied level
// is bottom, is one level already: every real cell in the bottom level,
// exactly pointer distribution's samples above it. Such a level is by
// construction a bottom merge's output — no tombstone, no lookahead cell
// of its own, the live count its size; what can be checked of that is.
func (c *GCOLA) compacted(bottom, totalReal int) bool {
	if lv := &c.levels[bottom]; lv.real != totalReal || lv.la != 0 || c.n != lv.real {
		return false
	}
	for l := bottom - 1; l >= 1; l-- {
		if _, samples := c.lookaheadSamples(l); c.levels[l].la != samples {
			return false
		}
	}
	return c.levels[0].empty()
}
