package cola

// The out-of-core half of GCOLA (ISSUE 9 / DESIGN.md E15): levels at or
// past Options.SpillDepth live in chunk-aligned extmem images instead
// of RAM slices. The code here preserves two contracts:
//
//   - The DAM charge stream is bit-identical to the in-RAM structure's:
//     charges are issued at the same logical cell offsets in the same
//     order, so predicted transfer counts do not depend on where a
//     level lives and the spill store's actual-I/O counters can be read
//     against the unchanged prediction.
//   - Merges remain sequential streams, through the one merge of both
//     homes (merge.go). A spilled level is never materialized in RAM: a
//     source's cells are decoded a slab at a time out of an extmem.Reader's
//     run of chunks, a target's encoded into an extmem.LevelWriter's. The
//     slabs are the tree's and the runs of chunks the spill store's, so a
//     merge allocates nothing that grows with the levels it moves.
//
// I/O failures on the read and merge paths panic with the typed extmem
// error inside: core.Dictionary has no error returns, and a torn spill
// file under the structure is as unrecoverable as a corrupted RAM heap.
// Callers that need graceful degradation catch it at the API boundary.

import (
	"encoding/binary"
	"fmt"

	"repro/internal/extmem"
)

// cellKindOffset is where the kind byte sits in an on-disk cell.
const cellKindOffset = entryBytes - 1

// encodeCell packs one entry into its 32-byte on-disk cell: the
// snapshot codec's persisted cell (key u64, val u64, ptr u32, left u32,
// kind u8) then 7 bytes zero padding, at core.ElementBytes so chunk
// geometry matches DAM block geometry. The snapshot codec relies on the
// shared head to transcode spilled levels by copying.
func encodeCell(dst *[extmem.CellBytes]byte, e entry) {
	putEntry(dst[:], e)
	clear(dst[entryBytes:])
}

// decodeCell unpacks one on-disk cell.
func decodeCell(src *[extmem.CellBytes]byte) entry { return getEntry(src[:]) }

// cellAt reads logical cell i of level l from whichever home the level
// lives in: the RAM array directly, or the spilled image through the
// page cache, one lookup per call. Search does not pay that per probe:
// on a spilled level it copies the lookahead window out with one
// extmem.ReadCells (searchLevelSpilled), so one ReadCells — one page
// lookup, two across a chunk boundary — is the actual-I/O analogue of
// all of one level's charged probes, the way the DAM store coalesces
// same-block charges into one transfer. cellAt remains the per-cell
// path for Range's spilled cursors, the invariant checker, and a search
// scan that outruns its window; on a RAM level Search and Range index
// the array themselves. The read path stays allocation-free: the cell
// buffer is a stack array and extmem copies into it.
//
//repro:charges caller:the read paths charge each probed range at the call site (lowerBound, searchLevelSpilled, Range)
func (c *GCOLA) cellAt(l, i int) entry {
	lv := &c.levels[l]
	if lv.ext == nil {
		return lv.data[i]
	}
	var raw [extmem.CellBytes]byte
	if err := lv.ext.ReadCell(i-lv.start, raw[:]); err != nil {
		panic(fmt.Sprintf("cola: level %d spilled read of cell %d: %v", l, i, err))
	}
	return decodeCell(&raw)
}

// searchWindowCells is how many cells of a spilled level one search
// copies out at a time. A lookahead window is about 2/p + 1 cells (23
// at the paper's p = 0.1) and the scans that follow the binary search
// run to the next lookahead cell, about 1/p + 1 further on average, so
// 64 cells (2 KiB of stack, at most two chunks) leave the per-cell
// fallback to the rare long scan; 96 measured no fewer lookups.
const searchWindowCells = 64

// spillWindow is a search's private copy of cells [base, end) of one
// spilled level. It is a copy, not level storage: it lives on the
// searching goroutine's stack and dies with the Search call.
type spillWindow struct {
	base, end int
	raw       [searchWindowCells * extmem.CellBytes]byte
}

// spillChunkCells is the spill store's chunk size in cells; Open fixes
// it by opening the store with extmem.DefaultChunkBytes.
const spillChunkCells = extmem.DefaultChunkBytes / extmem.CellBytes

// load fills the window for a binary search of level l that has
// narrowed to logical cells [i, j): those cells, plus whatever else of
// the chunks they lie in is useful and fits — the predecessor cell i-1
// (the left bound is read from pos-1) when it shares i's chunk, and the
// cells after j-1 to the end of its chunk (the scans run forward from
// pos). The neighbours come at no further page lookup that way, where
// a window of fixed shape would touch a second chunk most of the time;
// the rare scan or predecessor read that leaves the window goes
// through cellAt.
func (w *spillWindow) load(c *GCOLA, l, i, j int) {
	lv := &c.levels[l]
	// File cells: the image holds logical cells [start, cells) from 0.
	used := lv.used()
	from, last := i-lv.start, j-1-lv.start
	if last < from {
		last = from // an empty interval still wants cell pos = i
	}
	if last >= used {
		last = used - 1 // i == cells; the window may then be empty
	}
	if from > 0 && (from-1)/spillChunkCells == from/spillChunkCells {
		from--
	}
	to := (last/spillChunkCells + 1) * spillChunkCells
	if to > used {
		to = used
	}
	if to > from+searchWindowCells {
		to = from + searchWindowCells
	}
	w.base, w.end = lv.start+from, lv.start+to
	if err := lv.ext.ReadCells(from, to-from, w.raw[:(to-from)*extmem.CellBytes]); err != nil {
		panic(fmt.Sprintf("cola: level %d spilled read of cells [%d, %d): %v", l, w.base, w.end, err))
	}
}

// The accessors below read logical cell i of level l out of the window
// when it is there and through the page cache when it is not; only
// cell is ever asked for one before the window (the predecessor).
// Probes and scans compare one field of many cells and want all fields
// of at most one, hence keyAt and kindAt beside cell.

func (w *spillWindow) keyAt(c *GCOLA, l, i int) uint64 {
	if i >= w.end {
		return c.cellAt(l, i).key
	}
	return binary.LittleEndian.Uint64(w.raw[(i-w.base)*extmem.CellBytes:])
}

func (w *spillWindow) kindAt(c *GCOLA, l, i int) uint8 {
	if i >= w.end {
		return c.cellAt(l, i).kind
	}
	return w.raw[(i-w.base)*extmem.CellBytes+cellKindOffset]
}

func (w *spillWindow) cell(c *GCOLA, l, i int) entry {
	if i < w.base || i >= w.end {
		return c.cellAt(l, i)
	}
	off := (i - w.base) * extmem.CellBytes
	return decodeCell((*[extmem.CellBytes]byte)(w.raw[off : off+extmem.CellBytes]))
}

// searchSpilledLevels finishes a Search over the spilled levels from..,
// given the window [lo, hi) the last RAM level derived for level from.
// One window buffer serves every level.
func (c *GCOLA) searchSpilledLevels(from int, key uint64, lo, hi int) (uint64, bool) {
	var w spillWindow
	for l := from; l < len(c.levels); l++ {
		if c.levels[l].empty() {
			lo, hi = -1, -1
			continue
		}
		val, state, nlo, nhi := c.searchLevelSpilled(&w, l, key, lo, hi)
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

// searchLevelSpilled is searchLevel for a spilled level: the same probe
// sequence, equal-key scan, left read and right-bound scan, charged at
// the same logical cells in the same order, but reading from a copy of
// the window instead of one page-cache lookup per cell. While the
// binary search's interval is wider than half the buffer (an unknown
// window after a gap of empty levels) it probes cell by cell; once it
// fits, its cells and their useful neighbours in the same chunks are
// fetched with one ReadCells (spillWindow.load) and everything else
// runs inside the copy, falling back to cellAt only for a cell outside
// it.
//
//repro:charges opt.Space (one cell per probe, scan reads)
func (c *GCOLA) searchLevelSpilled(w *spillWindow, l int, key uint64, lo, hi int) (uint64, searchState, int, int) {
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

	i, j := lo, hi
	for j-i > searchWindowCells/2 {
		mid := int(uint(i+j) >> 1)
		c.chargeRead(l, mid, 1)
		if c.cellAt(l, mid).key >= key {
			j = mid
		} else {
			i = mid + 1
		}
	}
	w.load(c, l, i, j) // j - i <= searchWindowCells/2: every probe left is in it
	for i < j {
		mid := int(uint(i+j) >> 1)
		c.chargeRead(l, mid, 1)
		if w.keyAt(c, l, mid) >= key {
			j = mid
		} else {
			i = mid + 1
		}
	}
	pos := i

	state := notFound
	var val uint64
	scanEnd := pos
	for i := pos; i < lv.cells && w.keyAt(c, l, i) == key; i++ {
		scanEnd = i + 1
		e := w.cell(c, l, i)
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
		return 0, notFound, -1, -1
	}

	nlo := -1
	if pos > lv.start {
		nlo = int(w.cell(c, l, pos-1).left)
	}
	nhi := -1
	scanned := 0
	for i := pos; i < lv.cells; i++ {
		scanned++
		if w.kindAt(c, l, i) == kindLookahead {
			nhi = int(w.cell(c, l, i).ptr) + 1
			break
		}
	}
	if scanned > 0 {
		c.chargeRead(l, pos, scanned)
	}
	return 0, notFound, nlo, nhi
}

// clearLevel empties level l, removing its spill image if one exists.
func (c *GCOLA) clearLevel(l int) {
	lv := &c.levels[l]
	lv.start = lv.cells
	lv.real = 0
	lv.la = 0
	if lv.ext != nil {
		if err := c.ext.RemoveLevel(l); err != nil {
			panic(fmt.Sprintf("cola: removing level %d spill image: %v", l, err))
		}
		lv.ext = nil
	}
}

// writeSpilledLevel is writeLevel's out-of-core half: it encodes the last
// step's output, slab by slab, into the run buffer of a fresh image of
// level l (right-justified by construction — file cell j is logical cell
// start+j) and returns the number of cells written. The level's old
// image is read through its own Reader meanwhile; the new one replaces it
// on Commit — the classic LSM-style level rewrite. Any failure, the
// sources' reads included, aborts the image before the panic leaves; a
// merge that annihilates everything leaves the level without one.
func (c *GCOLA) writeSpilledLevel(l, last int) int {
	w, err := c.ext.NewLevelWriter(l)
	if err != nil {
		panic(fmt.Sprintf("cola: level %d spill writer: %v", l, err))
	}
	defer w.Abort() // a no-op once committed
	n := 0
	for c.scratch.refill(last) {
		cells := c.scratch.steps[last].out
		n += len(cells)
		for len(cells) > 0 {
			room := w.Room()
			k := min(len(cells), len(room)/extmem.CellBytes)
			for i, e := range cells[:k] {
				encodeCell((*[extmem.CellBytes]byte)(room[i*extmem.CellBytes:]), e)
			}
			if err := w.Fill(k); err != nil {
				panic(fmt.Sprintf("cola: level %d spill write: %v", l, err))
			}
			cells = cells[k:]
		}
	}
	if n == 0 {
		c.clearLevel(l)
		return 0
	}
	img, err := w.Commit()
	if err != nil {
		panic(fmt.Sprintf("cola: level %d spill commit: %v", l, err))
	}
	c.levels[l].ext = img
	return n
}
