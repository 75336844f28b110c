package cola

import (
	"fmt"
	"math/bits"

	"repro/internal/extmem"
)

// The one merge (DESIGN.md, "The streaming merge"). Every merge the
// structure performs — an insert's cascade, Compact, the install of a
// bulk load or of a level's lookahead samples — is a ladder of two-run
// steps, the paper's two-smallest-at-a-time pattern: run sizes grow
// geometrically, so the ladder moves O(k) cells for k cells in total.
// The steps are pipelined: a step hands the one below a slab of cells at
// a time, so no intermediate run is ever held whole, and the last step's
// output is the target level itself — the level's own array in RAM, the
// spill writer's buffer on disk. A run is a RAM slice or a spilled image
// decoded a slab at a time; nothing else distinguishes the two homes.

// mergeSlabCells is the size of a step's output slab and of a spilled
// run's decode slab: 6 KiB, so a deep ladder's slabs stay cache-resident
// while a kernel call still runs for hundreds of cells.
const mergeSlabCells = 256

// Bits of a drop mask, indexed by entry kind: a cell whose kind's bit is
// set is consumed but not written.
const (
	dropLookahead uint8 = 1 << kindLookahead // a source level's lookahead cells: the levels they point into are being rewritten
	dropTombstone uint8 = 1 << kindTombstone // a bottom merge's tombstones, once they have met every older copy
)

// mergeStep is one rung of the ladder: it merges the output of the step
// above it — everything newer — over its own run, which is cells of a RAM
// level or of a spilled image read through rd, into buf.
type mergeStep struct {
	run     []entry        // the step's own run: cells in hand, not yet consumed
	rd      *extmem.Reader // spilled run: the next cells are decoded from here...
	slab    []entry        // ...into this, a slab at a time
	runDone bool           // nothing comes after run

	drop      uint8 // kinds of the run's cells that are not written
	dropNewer uint8 // kinds of the newer cells that are not: dropTombstone, on a bottom merge's last step

	buf  []entry // what refill fills: a slab, or for a RAM target the level's own cells
	out  []entry // merged cells in hand for the step below: a window of buf
	done bool    // nothing comes after out
	mergeOut
}

// mergeOut is the running state of one step's output, carried across
// kernel calls: each cell's copy of the closest lookahead pointer at or
// to its left, the lookahead count, the live-count correction.
type mergeOut struct {
	last int32 // pointer of the last lookahead cell written; -1 before the first
	la   int   // lookahead cells written
	dups int   // older real copies dropped under a newer real one
}

// put writes *p to *q with its left copy, as a cell of a run with the
// given drop mask, and reports whether the cell is kept (1) or dropped
// (0: the next cell is written over it). A kept lookahead cell becomes
// the left copy of the cells after it. No branch depends on the cell.
// q may be p: the cell is read first.
func (o *mergeOut) put(q, p *entry, drop uint) int {
	kind := uint(p.kind)
	keep := int(^drop >> (kind & 7) & 1)
	isLA := int(kind) & int(kindLookahead) & keep
	m := int32(-isLA)
	o.last = o.last&^m | p.left&m
	o.la += isLA
	*q = *p
	q.left = o.last
	return keep
}

// mergeCells is the kernel: it merges newer run a over older run b into
// out until one of the three is used up, and returns how far it got in
// each. Cells with distinct keys take the branch-free step, whose cost
// does not depend on how the keys interleave: the borrow of bk-ak is 1
// exactly when ak > bk, and indexes the pair of candidates. Equal keys
// take the slow path, with the ladder's rules:
//
//   - a lookahead cell passes through ahead of the resolution of its
//     key (only the preserved target run carries any that are kept);
//   - newer real over older real: update; the older copy is dropped and
//     the live count shrinks by one (Insert counted both copies);
//   - newer tombstone over older real: annihilation; the tombstone is
//     retained for still-older runs (Delete already adjusted the count);
//   - real over tombstone (re-insert after delete) and tombstone over
//     tombstone: the older cell is simply dropped.
//
// aLast and bLast say that nothing follows a and b in their runs: when
// one is used up for good, the rest of the other goes through as far as
// out has room. Cells of a kind in their run's drop mask are consumed
// without being kept. out may overlap b from below (out's cell k at or
// before b's cell j for every k, j reached together): a cell is read
// before the one store that may overwrite it.
func mergeCells(out, a, b []entry, dropA, dropB uint, aLast, bLast bool, o *mergeOut) (i, j, k int) {
	st := mergeOut{last: o.last}
	drops := [2]uint{dropA, dropB}
	for i < len(a) && j < len(b) && k < len(out) {
		pa, pb := &a[i], &b[j]
		ak, bk := pa.key, pb.key
		if ak == bk {
			switch {
			case pa.kind == kindLookahead:
				k += st.put(&out[k], pa, dropA)
				i++
			case pb.kind == kindLookahead:
				k += st.put(&out[k], pb, dropB)
				j++
			default: // both real or tombstone: newer wins, older dropped
				if pa.kind != kindTombstone && pb.kind != kindTombstone {
					st.dups++
				}
				k += st.put(&out[k], pa, dropA)
				i++
				j++
			}
			continue
		}
		_, d := bits.Sub64(bk, ak, 0)
		ps := [2]*entry{pa, pb}
		k += st.put(&out[k], ps[d&1], drops[d&1])
		i += 1 - int(d)
		j += int(d)
	}
	if i == len(a) && aLast {
		for ; j < len(b) && k < len(out); j++ {
			k += st.put(&out[k], &b[j], dropB)
		}
	}
	if j == len(b) && bLast {
		for ; i < len(a) && k < len(out); i++ {
			k += st.put(&out[k], &a[i], dropA)
		}
	}
	o.last = st.last
	o.la += st.la
	o.dups += st.dups
	return i, j, k
}

// refill replaces step i's consumed output window with as much merged
// output as buf holds — short of that only when both inputs are used up —
// and reports whether there is any. Inputs that run dry on the way are
// refilled: the step above by its own refill, a spilled run by readRun.
func (s *mergeScratch) refill(i int) bool {
	st := &s.steps[i]
	if st.buf == nil {
		st.buf = s.slabs[s.nextSlab()]
	}
	var newer []entry
	k := 0
	for k < len(st.buf) {
		newerDone := true
		if i > 0 {
			up := &s.steps[i-1]
			if len(up.out) == 0 && !up.done {
				s.refill(i - 1)
			}
			newer, newerDone = up.out, up.done
		}
		if len(st.run) == 0 && !st.runDone {
			st.readRun()
		}
		if len(newer) == 0 && len(st.run) == 0 {
			st.done = true // nothing in hand after a refill: used up for good
			break
		}
		ni, nj, n := mergeCells(st.buf[k:], newer, st.run, uint(st.dropNewer), uint(st.drop), newerDone, st.runDone, &st.mergeOut)
		if i > 0 {
			s.steps[i-1].out = newer[ni:]
		}
		st.run = st.run[nj:]
		k += n
	}
	st.out = st.buf[:k]
	return k > 0
}

// readRun decodes the next slab of a spilled run; it is only called when
// there is one.
func (st *mergeStep) readRun() {
	raw, err := st.rd.NextSlab(len(st.slab))
	if err != nil {
		panic(fmt.Sprintf("cola: spilled sequential read: %v", err))
	}
	n := len(raw) / extmem.CellBytes
	for i := range st.slab[:n] {
		st.slab[i] = getEntry(raw[i*extmem.CellBytes:])
	}
	st.run, st.runDone = st.slab[:n], st.rd.Remaining() == 0
}

// reset empties the ladder.
func (s *mergeScratch) reset() {
	s.steps, s.nslab = s.steps[:0], 0
}

// nextSlab hands out the ladder's next slab — its index in slabs — made
// on first use.
func (s *mergeScratch) nextSlab() int {
	if s.nslab == len(s.slabs) {
		s.slabs = append(s.slabs, make([]entry, mergeSlabCells))
	}
	s.nslab++
	return s.nslab - 1
}

// start begins the ladder with cells in RAM that are written as they
// are: they stand as the first step's output, with no step run for them.
func (s *mergeScratch) start(cells []entry) {
	s.push(nil, nil, 0)
	st := &s.steps[len(s.steps)-1]
	st.out, st.done = cells, true
}

// push adds the next older run to the ladder — cells in RAM, or a spilled
// image behind rd — as the run of a new step under everything pushed
// before it. Cells of the kinds in drop are not written: every run is
// filtered by a step of its own, so what a step hands the one below is
// what gets written (writeLevel's in-place merge counts on it).
func (s *mergeScratch) push(cells []entry, rd *extmem.Reader, drop uint8) {
	n := len(s.steps)
	if n == cap(s.steps) {
		s.steps = append(s.steps, mergeStep{})
	}
	s.steps = s.steps[:n+1]
	st := &s.steps[n] // as an earlier merge left it: every field is set below, which is cheaper than clearing
	st.run, st.rd, st.drop, st.dropNewer = cells, rd, drop, 0
	st.runDone = rd == nil || rd.Remaining() == 0 // cells in RAM are all in hand
	if rd != nil {
		st.slab = s.slabs[s.nextSlab()]
	}
	st.buf, st.out, st.done = nil, nil, false
	st.mergeOut = mergeOut{last: -1}
}

// lastStep returns the index of the step that writes the merged run, and
// makes it drop cells of the given kinds from whichever side they come.
// Cells the ladder started with and pushed nothing under become its run.
func (s *mergeScratch) lastStep(drop uint8) int {
	last := len(s.steps) - 1
	st := &s.steps[last]
	if last == 0 && st.done {
		st.run, st.out, st.done = st.out, nil, false
	}
	st.drop |= drop
	st.dropNewer |= drop
	return last
}

// release ends the merge: it closes the spilled runs' readers and returns
// the duplicates the steps reconciled. The steps keep pointing at their
// runs until the next merge writes over them (installLevel clears).
func (s *mergeScratch) release() (dups int) {
	for i := range s.steps {
		st := &s.steps[i]
		if st.rd != nil {
			st.rd.Close()
			st.rd = nil
		}
		dups += st.dups
	}
	return dups
}
