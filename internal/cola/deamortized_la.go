package cola

import (
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/dam"
)

// DeamortizedLookahead is the fully deamortized COLA of Theorem 24: each
// level holds three arrays tagged shadow or visible, merges from a level
// whose two visible arrays are full proceed incrementally into a shadow
// array of the next level (preferring one pre-seeded with lookahead
// pointers), and after a merge completes its destination's lookahead
// pointers are copied back into an empty shadow array of the source
// level, "linking" that array to the destination. A shadow array becomes
// visible exactly when a chain of linked arrays reaches it from level 0;
// when a third array at some level would become visible, the two
// previously visible arrays revert to empty shadows (their contents are,
// by Lemma 23's ordering, already visible one level down).
//
// Queries only examine visible arrays, so no level ever appears to be in
// the middle of a merge. Inserts move at most Theta(log N) items plus
// copied pointers, giving an O(log N) worst-case insert while the
// amortized cost stays O((log N)/B) block transfers.
//
// Divergence from the paper, documented in DESIGN.md: the paper samples
// the next level's main and secondary arrays at densities 1/8 and 1/16;
// we maintain one pointer companion per merge destination at stride 8.
// Searches use pointer windows when the searched array is the one the
// window's anchors target, and fall back to whole-array binary search
// otherwise.
type DeamortizedLookahead struct {
	levels []dlaLevel
	n      int
	epoch  uint64
	stats  core.Stats
	space  *dam.Space

	offsets []int64
}

// pointerStride matches the paper's "every eighth element in the (k+1)st
// array also appears in the kth array".
const pointerStride = 8

type dlaLevel struct {
	slots [3]dlaArray
	merge *dlaMerge
}

type dlaArray struct {
	data    []entry
	visible bool
	spent   bool // already merged down; remains visible until demoted by the chain
	link    int  // slot index at the next level this array's pointers target; -1 if none
	epoch   uint64
}

func (a *dlaArray) occupied() bool { return len(a.data) > 0 }

// dlaMerge is the incremental state of a level's merge-and-link cycle:
// phase 0 merges the two visible source arrays (dropping their pointer
// entries) with the destination's pre-seeded pointer run; phase 1 copies
// every eighth cell of the destination back into backSlot.
type dlaMerge struct {
	srcNew, srcOld int // source slots, srcNew elementwise newer
	i, j, p        int // read positions: srcNew reals, srcOld reals, dst pointer run
	dst            int // destination slot at the next level
	ptrRun         []entry
	out            []entry
	phase          int
	copyPos        int // next cell of out to consider for sampling
	backSlot       int // slot at this level receiving copied pointers; -1 before phase 1
}

var (
	_ core.Dictionary = (*DeamortizedLookahead)(nil)
	_ core.Statser    = (*DeamortizedLookahead)(nil)
)

// NewDeamortizedLookahead returns an empty deamortized COLA with
// lookahead pointers, charging traffic to space (nil disables).
func NewDeamortizedLookahead(space *dam.Space) *DeamortizedLookahead {
	return &DeamortizedLookahead{space: space}
}

// Len implements core.Dictionary (exact for distinct keys; duplicate
// inserts reconcile when merges drop shadowed copies).
func (d *DeamortizedLookahead) Len() int { return d.n }

// Stats implements core.Statser.
func (d *DeamortizedLookahead) Stats() core.Stats { return d.stats }

// Levels reports the number of allocated levels.
func (d *DeamortizedLookahead) Levels() int { return len(d.levels) }

// arrayCapacity is the real-element capacity of one array at level k.
func arrayCapacity(k int) int { return 1 << k }

func (d *DeamortizedLookahead) ensureLevel(k int) {
	for len(d.levels) <= k {
		idx := len(d.levels)
		var off int64
		if idx > 0 {
			// Three arrays per level; pointer entries add at most a
			// 1/8 fraction, rounded up in the reserved region.
			prev := int64(arrayCapacity(idx-1)) * 3 * 2 * core.ElementBytes
			off = d.offsets[idx-1] + prev
		}
		lv := dlaLevel{}
		for s := range lv.slots {
			lv.slots[s].link = -1
		}
		d.levels = append(d.levels, lv)
		d.offsets = append(d.offsets, off)
	}
	// Level 0 arrays are always visible.
	d.levels[0].slots[0].visible = true
	d.levels[0].slots[1].visible = true
}

func (d *DeamortizedLookahead) slotOffset(k, s, i int) int64 {
	return d.offsets[k] + int64(s)*int64(arrayCapacity(k))*2*core.ElementBytes +
		int64(i)*core.ElementBytes
}

func (d *DeamortizedLookahead) chargeRead(k, s, i, n int) {
	if n > 0 {
		d.space.Read(d.slotOffset(k, s, i), int64(n)*core.ElementBytes)
	}
}

func (d *DeamortizedLookahead) chargeWrite(k, s, i, n int) {
	if n > 0 {
		d.space.Write(d.slotOffset(k, s, i), int64(n)*core.ElementBytes)
	}
}

// Insert implements core.Dictionary.
func (d *DeamortizedLookahead) Insert(key, value uint64) {
	d.stats.Inserts++
	d.ensureLevel(0)
	lv0 := &d.levels[0]
	slot := -1
	for s := 0; s < 2; s++ {
		if lv0.slots[s].visible && !lv0.slots[s].occupied() {
			slot = s
			break
		}
	}
	if slot < 0 {
		panic("cola: deamortized-lookahead level 0 overflow")
	}
	d.epoch++
	a := &lv0.slots[slot]
	if cap(a.data) < 1 {
		a.data = make([]entry, 0, 1)
	}
	a.data = append(a.data[:0], entry{key: key, val: value, kind: kindReal, left: -1})
	a.epoch = d.epoch
	d.chargeWrite(0, slot, 0, 1)
	d.n++

	budget := 4*len(d.levels) + 8
	moved := d.drain(budget)
	if uint64(moved) > d.stats.MaxMoves {
		d.stats.MaxMoves = uint64(moved)
	}
}

// drain advances merges left to right within the move budget.
func (d *DeamortizedLookahead) drain(budget int) int {
	moved := 0
	for k := 0; k < len(d.levels) && moved < budget; k++ {
		lv := &d.levels[k]
		if lv.merge == nil {
			if !d.unsafe(k) {
				continue
			}
			d.startMerge(k)
		}
		moved += d.stepMerge(k, budget-moved)
	}
	d.stats.Moves += uint64(moved)
	return moved
}

// unsafe reports whether level k has two occupied visible arrays whose
// contents have not already been merged down (the paper's "two of its
// arrays become full"; spent arrays linger visibly until the chain
// demotes them but must not merge twice).
func (d *DeamortizedLookahead) unsafe(k int) bool {
	lv := &d.levels[k]
	full := 0
	for s := range lv.slots {
		sl := &lv.slots[s]
		if sl.visible && sl.occupied() && !sl.spent {
			full++
		}
	}
	return full >= 2
}

// startMerge sets up the incremental merge of level k's two occupied
// visible arrays into a shadow slot of level k+1.
func (d *DeamortizedLookahead) startMerge(k int) {
	d.ensureLevel(k + 1)
	lv := &d.levels[k]
	next := &d.levels[k+1]

	srcs := make([]int, 0, 2)
	for s := range lv.slots {
		sl := &lv.slots[s]
		if sl.visible && sl.occupied() && !sl.spent {
			srcs = append(srcs, s)
		}
	}
	if len(srcs) != 2 {
		panic("cola: startMerge without two full visible arrays")
	}
	srcNew, srcOld := srcs[0], srcs[1]
	if lv.slots[srcOld].epoch > lv.slots[srcNew].epoch {
		srcNew, srcOld = srcOld, srcNew
	}

	// Pick a shadow destination, preferring one already containing
	// lookahead pointers; it must not be the destination or back slot of
	// an in-flight neighbouring merge (Lemma 21's pacing guarantees one
	// exists).
	dst := -1
	for s := range next.slots {
		sl := &next.slots[s]
		if sl.visible || d.slotBusy(k+1, s) {
			continue
		}
		if dst < 0 {
			dst = s
			continue
		}
		if sl.occupied() && !next.slots[dst].occupied() {
			dst = s // pointer-seeded beats empty
		}
	}
	if dst < 0 {
		panic("cola: no shadow destination for deamortized-lookahead merge")
	}

	var ptrRun []entry
	if next.slots[dst].occupied() {
		ptrRun = next.slots[dst].data
	}
	capacity := 2*arrayCapacity(k) + len(ptrRun)
	lv.merge = &dlaMerge{
		srcNew:   srcNew,
		srcOld:   srcOld,
		dst:      dst,
		ptrRun:   ptrRun,
		out:      make([]entry, 0, capacity),
		backSlot: -1,
	}
}

// slotBusy reports whether slot s of level k is the destination or the
// pointer-copy target of an in-flight merge.
func (d *DeamortizedLookahead) slotBusy(k, s int) bool {
	if k > 0 {
		if m := d.levels[k-1].merge; m != nil && m.dst == s {
			return true
		}
	}
	if m := d.levels[k].merge; m != nil && m.backSlot == s {
		return true
	}
	return false
}

// realsOf filters pointer entries out of a source array lazily during the
// merge: source pointer entries target arrays that are being replaced, so
// they are skipped rather than copied.
func skipLA(data []entry, i int) int {
	for i < len(data) && data[i].kind == kindLookahead {
		i++
	}
	return i
}

// stepMerge advances level k's merge by at most budget moves.
func (d *DeamortizedLookahead) stepMerge(k, budget int) int {
	lv := &d.levels[k]
	m := lv.merge
	moved := 0
	if m.phase == 0 {
		moved += d.stepMergePhase(k, m, budget)
	}
	if m.phase == 1 && moved < budget {
		moved += d.stepCopyPhase(k, m, budget-moved)
	}
	return moved
}

// stepMergePhase three-way merges srcNew reals, srcOld reals, and the
// destination's pre-seeded pointer run.
func (d *DeamortizedLookahead) stepMergePhase(k int, m *dlaMerge, budget int) int {
	lv := &d.levels[k]
	a := lv.slots[m.srcNew].data
	b := lv.slots[m.srcOld].data
	moved := 0
	for moved < budget {
		m.i = skipLA(a, m.i)
		m.j = skipLA(b, m.j)
		ai, bj, pp := m.i < len(a), m.j < len(b), m.p < len(m.ptrRun)
		if !ai && !bj && !pp {
			break
		}
		// Choose the smallest key; pointer entries first on ties so real
		// entries follow their anchors.
		const inf = ^uint64(0)
		ka, kb, kp := inf, inf, inf
		if ai {
			ka = a[m.i].key
		}
		if bj {
			kb = b[m.j].key
		}
		if pp {
			kp = m.ptrRun[m.p].key
		}
		switch {
		case pp && kp <= ka && kp <= kb:
			m.out = append(m.out, m.ptrRun[m.p])
			m.p++
		case ai && ka <= kb:
			if bj && ka == kb {
				// Duplicate real key across the sources: newer wins.
				if a[m.i].kind != kindTombstone && b[m.j].kind != kindTombstone {
					d.n--
				}
				m.j++
			}
			m.out = append(m.out, a[m.i])
			d.chargeRead(k, m.srcNew, m.i, 1)
			m.i++
		default:
			m.out = append(m.out, b[m.j])
			d.chargeRead(k, m.srcOld, m.j, 1)
			m.j++
		}
		d.chargeWrite(k+1, m.dst, len(m.out)-1, 1)
		moved++
	}
	if skipLA(a, m.i) >= len(a) && skipLA(b, m.j) >= len(b) && m.p >= len(m.ptrRun) {
		m.phase = 1
		// Pick an empty shadow slot at this level for the copied-back
		// pointers. Level 0 skips pointer copying (its arrays hold one
		// element) but still links, making the destination's chain
		// condition reachable.
		m.backSlot = d.pickBackSlot(k)
	}
	return moved
}

// pickBackSlot selects the slot at level k that will hold pointers copied
// back from the merge destination.
func (d *DeamortizedLookahead) pickBackSlot(k int) int {
	lv := &d.levels[k]
	for s := range lv.slots {
		sl := &lv.slots[s]
		if !sl.visible && !sl.occupied() && !d.slotBusy(k, s) {
			return s
		}
	}
	// All shadow slots hold stale pointers; reuse the stalest.
	for s := range lv.slots {
		sl := &lv.slots[s]
		if !sl.visible && !d.slotBusy(k, s) {
			sl.data = sl.data[:0]
			sl.link = -1
			return s
		}
	}
	panic("cola: no back slot available for pointer copy")
}

// stepCopyPhase samples every pointerStride-th cell of the completed
// destination into the back slot; on completion it links, installs, and
// updates visibility along the chain from level 0.
func (d *DeamortizedLookahead) stepCopyPhase(k int, m *dlaMerge, budget int) int {
	lv := &d.levels[k]
	moved := 0
	if k > 0 {
		back := &lv.slots[m.backSlot]
		for moved < budget && m.copyPos < len(m.out) {
			// Sample the last cell of each stride-sized group.
			end := m.copyPos + pointerStride - 1
			if end >= len(m.out) {
				end = len(m.out) - 1
			}
			e := m.out[end]
			back.data = append(back.data, entry{
				key:  e.key,
				ptr:  int32(end),
				left: int32(end),
				kind: kindLookahead,
			})
			d.chargeRead(k+1, m.dst, end, 1)
			d.chargeWrite(k, m.backSlot, len(back.data)-1, 1)
			m.copyPos = end + 1
			moved++
		}
		if m.copyPos < len(m.out) {
			return moved
		}
	}
	d.finishMerge(k, m)
	return moved
}

// finishMerge installs the destination array, establishes the link, and
// propagates visibility along the linked chain.
func (d *DeamortizedLookahead) finishMerge(k int, m *dlaMerge) {
	lv := &d.levels[k]
	next := &d.levels[k+1]

	d.epoch++
	dstArr := &next.slots[m.dst]
	dstArr.data = m.out
	dstArr.epoch = d.epoch
	fixLeftCopiesSlice(dstArr.data)

	if k == 0 {
		// Level 0's arrays link directly (no pointers to copy), the
		// destination becomes visible in the same propagation pass, so
		// the sources can be emptied immediately with no visibility gap.
		lv.slots[0].link = m.dst
		lv.slots[1].link = m.dst
		lv.slots[m.srcNew].data = lv.slots[m.srcNew].data[:0]
		lv.slots[m.srcOld].data = lv.slots[m.srcOld].data[:0]
	} else {
		back := &lv.slots[m.backSlot]
		back.link = m.dst
		back.epoch = d.epoch
		fixLeftCopiesSlice(back.data)
		// The sources stay visible (queries must keep seeing their
		// contents until the destination's chain completes) but must
		// never merge down a second time.
		lv.slots[m.srcNew].spent = true
		lv.slots[m.srcOld].spent = true
	}

	lv.merge = nil
	d.propagateVisibility()
}

// fixLeftCopiesSlice recomputes each cell's copy of the nearest lookahead
// pointer to its left.
func fixLeftCopiesSlice(data []entry) {
	last := int32(-1)
	for i := range data {
		if data[i].kind == kindLookahead {
			last = data[i].ptr
			data[i].left = data[i].ptr
		} else {
			data[i].left = last
		}
	}
}

// propagateVisibility walks the linked chain from level 0 and makes every
// shadow array on it visible, applying the paper's rule: when a third
// array at a level becomes visible, the other two become empty shadows
// (their contents already live, visibly, one level down).
func (d *DeamortizedLookahead) propagateVisibility() {
	if len(d.levels) == 0 {
		return
	}
	cur := d.levels[0].slots[0].link // both level-0 slots share their link
	for k := 1; k < len(d.levels) && cur >= 0; k++ {
		sl := &d.levels[k].slots[cur]
		if !sl.visible {
			d.makeVisible(k, cur)
		}
		cur = sl.link
	}
}

// makeVisible flips slot s of level k to visible, demoting previously
// visible arrays when this is the third.
func (d *DeamortizedLookahead) makeVisible(k, s int) {
	lv := &d.levels[k]
	var others []int
	for o := range lv.slots {
		if o != s && lv.slots[o].visible {
			others = append(others, o)
		}
	}
	lv.slots[s].visible = true
	if len(others) == 2 {
		for _, o := range others {
			if !lv.slots[o].spent {
				// The demoted pair must already live one level down
				// (Lemma 23); demoting an unmerged array would lose data.
				panic("cola: demoting an unspent visible array")
			}
			lv.slots[o].visible = false
			lv.slots[o].spent = false
			lv.slots[o].data = lv.slots[o].data[:0]
			lv.slots[o].link = -1
		}
	}
}

// Search implements core.Dictionary: visible arrays only, levels newest
// to oldest, windows carried through lookahead pointers when the searched
// array is the one the window's anchors target.
func (d *DeamortizedLookahead) Search(key uint64) (uint64, bool) {
	d.stats.Searches++
	// window bounds apply to (level wk, slot wslot).
	wlo, whi, wslot := -1, -1, -1
	var ord [3]int
	for k := 0; k < len(d.levels); k++ {
		nextLo, nextHi, nextSlot := -1, -1, -1
		for _, s := range ord[:d.visibleNewestFirst(k, &ord)] {
			lo, hi := -1, -1
			if s == wslot {
				lo, hi = wlo, whi
			}
			val, state, nlo, nhi, nslot := d.searchArray(k, s, key, lo, hi)
			switch state {
			case foundReal:
				return val, true
			case foundTombstone:
				return 0, false
			}
			if nslot >= 0 && nextSlot < 0 {
				nextLo, nextHi, nextSlot = nlo, nhi, nslot
			}
		}
		wlo, whi, wslot = nextLo, nextHi, nextSlot
	}
	return 0, false
}

// visibleNewestFirst writes the visible, occupied slots of level k into
// ord in decreasing epoch order and returns their count. A level has at
// most three slots, so the buffer fits on the caller's stack and the
// ordering is a stable insertion sort — the read path allocates
// nothing. Equal epochs keep slot-index order, matching the stable
// small-slice sort this replaced, so the charge stream is unchanged.
func (d *DeamortizedLookahead) visibleNewestFirst(k int, ord *[3]int) int {
	lv := &d.levels[k]
	cnt := 0
	for s := range lv.slots {
		if lv.slots[s].visible && lv.slots[s].occupied() {
			ord[cnt] = s
			cnt++
		}
	}
	for i := 1; i < cnt; i++ {
		for j := i; j > 0 && lv.slots[ord[j]].epoch > lv.slots[ord[j-1]].epoch; j-- {
			ord[j], ord[j-1] = ord[j-1], ord[j]
		}
	}
	return cnt
}

// searchArray searches slot s of level k within [lo, hi) (-1 = unknown)
// and derives a window for the array this slot links to.
func (d *DeamortizedLookahead) searchArray(k, s int, key uint64, lo, hi int) (uint64, searchState, int, int, int) {
	sl := &d.levels[k].slots[s]
	data := sl.data
	if lo < 0 {
		lo = 0
	}
	if hi < 0 || hi > len(data) {
		hi = len(data)
	}
	if lo > hi {
		lo = hi
	}
	// Probes are charged at their actual (key-dependent) positions so
	// the cache sees the real divergent probe paths of distinct
	// searches; see GCOLA.lowerBound.
	pos := lo + sort.Search(hi-lo, func(i int) bool {
		d.chargeRead(k, s, lo+i, 1)
		return data[lo+i].key >= key
	})

	state := notFound
	var val uint64
	for i := pos; i < len(data) && data[i].key == key; i++ {
		d.chargeRead(k, s, i, 1)
		switch data[i].kind {
		case kindReal:
			val, state = data[i].val, foundReal
		case kindTombstone:
			state = foundTombstone
		case kindLookahead:
			continue
		}
		break
	}
	if state != notFound {
		return val, state, -1, -1, -1
	}
	if sl.link < 0 {
		return 0, notFound, -1, -1, -1
	}
	nlo := -1
	if pos > 0 {
		nlo = int(data[pos-1].left)
	}
	nhi := -1
	for i := pos; i < len(data); i++ {
		d.chargeRead(k, s, i, 1)
		if data[i].kind == kindLookahead {
			nhi = int(data[i].ptr) + 1
			break
		}
	}
	return 0, notFound, nlo, nhi, sl.link
}

// dlaCursor is one visible array's position in a Range merge; the
// per-call cursor slices are pooled (see dlaCursorPool) like
// GCOLA.Range's.
type dlaCursor struct {
	data  []entry
	pos   int
	epoch uint64
}

type dlaCursorBuf struct {
	c []dlaCursor
}

var dlaCursorPool = sync.Pool{New: func() any { return new(dlaCursorBuf) }}

// Range implements core.Dictionary by k-way merging all visible arrays.
func (d *DeamortizedLookahead) Range(lo, hi uint64, fn func(core.Element) bool) {
	cb := dlaCursorPool.Get().(*dlaCursorBuf)
	defer func() {
		cb.c = cb.c[:0]
		dlaCursorPool.Put(cb)
	}()
	cursors := cb.c[:0]
	var ord [3]int
	for k := range d.levels {
		for _, s := range ord[:d.visibleNewestFirst(k, &ord)] {
			sl := &d.levels[k].slots[s]
			p := sort.Search(len(sl.data), func(i int) bool {
				d.chargeRead(k, s, i, 1)
				return sl.data[i].key >= lo
			})
			if p < len(sl.data) {
				cursors = append(cursors, dlaCursor{data: sl.data, pos: p, epoch: sl.epoch})
			}
		}
	}
	cb.c = cursors
	for {
		// As in GCOLA.Range: the lookahead skip stops at the first cell
		// past hi, and finished cursors are dropped.
		best := -1
		var bestKey uint64
		live := cursors[:0]
		for _, cur := range cursors {
			for ; cur.pos < len(cur.data); cur.pos++ {
				e := &cur.data[cur.pos]
				if e.key > hi {
					cur.pos = len(cur.data)
					break
				}
				if e.kind != kindLookahead {
					if best < 0 || e.key < bestKey ||
						(e.key == bestKey && cur.epoch > live[best].epoch) {
						best = len(live)
						bestKey = e.key
					}
					break
				}
			}
			if cur.pos < len(cur.data) {
				live = append(live, cur)
			}
		}
		cursors = live
		if best < 0 {
			return
		}
		e := cursors[best].data[cursors[best].pos]
		for i := range cursors {
			cur := &cursors[i]
			for cur.pos < len(cur.data) && cur.data[cur.pos].key == bestKey {
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

// unsafeLevelFlags reports per-level unsafe status for invariant tests.
func (d *DeamortizedLookahead) unsafeLevelFlags() []bool {
	out := make([]bool, len(d.levels))
	for k := range d.levels {
		out[k] = d.levels[k].merge != nil || d.unsafe(k)
	}
	return out
}
