package cola

import (
	"encoding/binary"
	"fmt"

	"repro/internal/extmem"
)

// distributePointers rebuilds the lookahead entries of every level below
// t after a merge into t, proceeding level by level exactly as Section 4
// describes: "The target level is scanned to copy pointers down one
// level, the next largest level is scanned to copy pointers down to the
// next level, and so on." Level l samples level l+1 at an even stride so
// that the sample fits level l's redundant budget; each sampled cell
// becomes a lookahead entry carrying its absolute index in level l+1.
//
// The scans are geometrically decreasing, so the total cost is dominated
// by the scan of level t, which the amortized analysis of Lemma 19
// already pays for.
//
//repro:charges opt.Space (one range read per source level)
func (c *GCOLA) distributePointers(t int) {
	if c.opt.PointerDensity == 0 {
		return
	}
	for l := t - 1; l >= 1; l-- {
		src := &c.levels[l+1]
		dst := &c.levels[l]
		if !dst.empty() {
			// Only rebuilt immediately after a merge emptied the level;
			// anything else indicates a bookkeeping bug.
			panic("cola: pointer distribution into non-empty level")
		}
		stride, samples := c.lookaheadSamples(l)
		if samples == 0 {
			continue
		}
		used := src.used()
		// Scan the source level (charged as one range read) and emit a
		// sample every stride cells, preferring real cells so pointers
		// land on searchable keys; a lookahead cell is still a valid
		// anchor, so no cell type is skipped when the stride lands on it.
		// A spilled source is streamed like any other sequential pass:
		// counted chunk reads that stay out of the page cache.
		c.chargeRead(l+1, src.start, used)
		out := c.scratch.la[:0]
		if cap(out) < samples {
			out = make([]entry, 0, samples)
		}
		var rd *extmem.Reader
		if src.ext != nil {
			rd = src.ext.NewReader(0)
			rd.Limit(samples * stride) // the last sample ends the pass
		}
		for i := src.start + stride - 1; len(out) < samples; i += stride {
			var key uint64
			if rd == nil {
				key = src.data[i].key
			} else {
				rd.Skip(stride - 1)
				raw, err := rd.NextSlab(1)
				if err != nil {
					panic(fmt.Sprintf("cola: spilled sequential read: %v", err))
				}
				key = binary.LittleEndian.Uint64(raw)
			}
			out = append(out, entry{
				key:  key,
				ptr:  int32(i),
				left: int32(i),
				kind: kindLookahead,
			})
		}
		if rd != nil {
			rd.Close()
		}
		c.installLevel(l, out)
		c.chargeWrite(l, dst.start, len(out))
		c.stats.Moves += uint64(len(out))
		c.scratch.la = out[:0]
	}
}

// lookaheadSamples is the geometry of level l's lookahead cells: level
// l+1 is sampled every stride cells, as often as level l's redundant
// budget allows — not at all without a budget or anything to sample.
func (c *GCOLA) lookaheadSamples(l int) (stride, samples int) {
	budget, used := c.lookaheadCapacity(l), c.levels[l+1].used()
	if budget == 0 || used == 0 {
		return 0, 0
	}
	stride = (used + budget - 1) / budget
	return stride, min(budget, used/stride)
}

// checkInvariants validates the structural invariants of every level and
// panics with a description on violation. Tests call this; production
// paths do not. (It reads cells only through cellAt, so it needs no
// damcharge waiver since the out-of-core refactor.)
func (c *GCOLA) checkInvariants() {
	liveSeen := 0
	for l := range c.levels {
		lv := &c.levels[l]
		if lv.start < 0 || lv.start > lv.cells {
			panic("cola: level start out of range")
		}
		if lv.cells != c.totalCapacity(l) {
			panic("cola: level allocated with wrong capacity")
		}
		if c.spilledLevel(l) {
			if lv.data != nil {
				panic("cola: spilled level holds a RAM image")
			}
			if lv.empty() != (lv.ext == nil) {
				panic("cola: spilled level image/occupancy mismatch")
			}
			if lv.ext != nil && lv.ext.Cells() != lv.used() {
				panic("cola: spilled image size does not match occupancy")
			}
			if c.opt.Space != nil && lv.idx.fences != nil {
				panic("cola: accounted structure keeps a spill index")
			}
		} else {
			if lv.ext != nil || lv.idx.fences != nil {
				panic("cola: RAM level holds a spill image or index")
			}
			if len(lv.data) != lv.cells {
				panic("cola: RAM level storage does not match capacity")
			}
		}
		real := 0
		lastLA := int32(-1)
		var prevKey uint64
		first := true
		for i := lv.start; i < lv.cells; i++ {
			e := c.cellAt(l, i)
			if !first && e.key < prevKey {
				panic("cola: level not sorted")
			}
			prevKey = e.key
			first = false
			if ix := &lv.idx; ix.valid {
				j := i - lv.start
				if j%spillChunkCells == 0 && ix.fences[j/spillChunkCells] != e.key {
					panic("cola: spill index fence is not its chunk's first key")
				}
				if e.kind != kindLookahead && !ix.blooms[j/spillChunkCells].has(e.key) {
					panic("cola: spill index filter misses a key of its chunk")
				}
			}
			switch e.kind {
			case kindLookahead:
				if l+1 >= len(c.levels) {
					panic("cola: lookahead entry with no next level")
				}
				next := &c.levels[l+1]
				if int(e.ptr) < next.start || int(e.ptr) >= next.cells {
					panic("cola: lookahead pointer out of next level's occupied range")
				}
				if c.cellAt(l+1, int(e.ptr)).key != e.key {
					panic("cola: lookahead key does not match target cell")
				}
				if e.ptr < lastLA {
					panic("cola: lookahead pointers not monotone")
				}
				if e.left != e.ptr {
					panic("cola: lookahead left copy must be its own pointer")
				}
				lastLA = e.ptr
			case kindReal, kindTombstone:
				real++
				if e.left != lastLA {
					panic("cola: stale left copy")
				}
			default:
				panic("cola: unknown entry kind")
			}
		}
		if real != lv.real {
			panic("cola: real-count bookkeeping mismatch")
		}
		if real > c.realCapacity(l) {
			panic("cola: level real occupancy exceeds capacity")
		}
		liveSeen += real
	}
	_ = liveSeen
}
