package cola

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/extmem"
)

// The reference: the merge this package used before the streaming one —
// strip the source levels' lookahead cells, merge the runs two at a time
// newest first, drop a bottom merge's tombstones, copy the result into
// the level and scan it for left copies and counts. It is kept here so
// the streaming merge can be held to it cell for cell.

// refMerge is the reference's state: the live count its duplicate rule
// corrects.
type refMerge struct{ n int }

func refStripLookahead(run []entry) []entry {
	var out []entry
	for _, e := range run {
		if e.kind != kindLookahead {
			out = append(out, e)
		}
	}
	return out
}

func (r *refMerge) mergeTwo(newer, older []entry) []entry {
	var out []entry
	i, j := 0, 0
	for i < len(newer) && j < len(older) {
		a, b := newer[i], older[j]
		switch {
		case a.key < b.key:
			out = append(out, a)
			i++
		case a.key > b.key:
			out = append(out, b)
			j++
		default: // equal keys
			if a.kind == kindLookahead {
				out = append(out, a)
				i++
				continue
			}
			if b.kind == kindLookahead {
				out = append(out, b)
				j++
				continue
			}
			// Both real/tombstone: newer wins, older dropped.
			out = append(out, a)
			i++
			j++
			if a.kind != kindTombstone && b.kind != kindTombstone {
				r.n-- // duplicate insert reconciled
			}
		}
	}
	out = append(out, newer[i:]...)
	return append(out, older[j:]...)
}

func (r *refMerge) mergeRuns(runs [][]entry, atBottom bool) []entry {
	if len(runs) == 0 {
		return nil
	}
	acc := runs[0]
	for _, older := range runs[1:] {
		acc = r.mergeTwo(acc, older)
	}
	if !atBottom {
		return acc
	}
	var live []entry
	for _, e := range acc {
		if e.kind != kindTombstone {
			live = append(live, e)
		}
	}
	return live
}

// refLevel is a level as the reference's install leaves it.
type refLevel struct {
	cells    []entry // the occupied window
	real, la int
}

func refInstall(out []entry) refLevel {
	lv := refLevel{cells: append([]entry(nil), out...)}
	last := int32(-1)
	for i := range lv.cells {
		e := &lv.cells[i]
		if e.kind == kindLookahead {
			last = e.left
			lv.la++
		} else {
			lv.real++
			e.left = last
		}
	}
	return lv
}

// mergeCase is one run set: the cells of the incoming run and of levels
// 0..t before the merge into level t, and how the merge is asked for.
type mergeCase struct {
	t           int
	atBottom    bool
	stripTarget bool // the target's own lookahead cells are dropped too (Compact)
	spillDepth  int
	incoming    []entry
	levels      [][]entry // levels[l] for l in 0..t; nil is an empty level
}

// diffDensity is the pointer density of the structures the cases run
// on: the largest there is, so that levels have room for lookahead cells.
const diffDensity = 0.5

func newDiffTwin(t testing.TB, mc mergeCase, spilled bool) *GCOLA {
	t.Helper()
	opt := Options{Growth: 2, PointerDensity: diffDensity}
	var c *GCOLA
	if spilled {
		opt.SpillDir, opt.SpillDepth, opt.SpillCacheBytes = t.TempDir(), mc.spillDepth, 1
		var err error
		if c, err = Open(opt); err != nil {
			t.Fatalf("Open: %v", err)
		}
		t.Cleanup(func() {
			if err := c.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		})
	} else {
		c = New(opt)
	}
	// Leave the ladder's steps as used as a long-lived tree's: the merge
	// under test must not read what an earlier one left in them.
	for i := uint64(0); i < 40; i++ {
		c.Insert(i%23, i)
		if i%5 == 0 {
			c.Delete(i % 13)
		}
	}
	c.Compact()
	for l := range c.levels {
		c.clearLevel(l)
	}
	c.n, c.stats = 0, core.Stats{}

	c.ensureLevel(mc.t + 1)
	for l, cells := range mc.levels {
		if len(cells) > 0 {
			c.installLevel(l, cells)
			c.n += c.levels[l].real
		}
	}
	c.n += len(mc.incoming)
	return c
}

// levelCells reads a level's occupied window through cellAt.
func levelCells(c *GCOLA, l int) []entry {
	lv := &c.levels[l]
	out := make([]entry, 0, lv.used())
	for i := lv.start; i < lv.cells; i++ {
		out = append(out, c.cellAt(l, i))
	}
	return out
}

// levelImage returns the bytes of level l's spill file.
func levelImage(t testing.TB, c *GCOLA, l int) []byte {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(c.ext.Dir(), fmt.Sprintf("lvl%03d.*.ext", l)))
	if err != nil || len(names) != 1 {
		t.Fatalf("level %d: spill files %v (err %v), want exactly one", l, names, err)
	}
	raw, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// runMergeCase merges mc with the reference, in RAM and on the spilled
// twin, and requires the three to agree on everything the merge decides.
func runMergeCase(t testing.TB, mc mergeCase) {
	t.Helper()
	// Reference.
	ref := refMerge{n: len(mc.incoming)}
	var runs [][]entry
	if len(mc.incoming) > 0 {
		runs = append(runs, mc.incoming)
	}
	for l, cells := range mc.levels {
		if len(cells) == 0 {
			continue
		}
		ref.n += refInstall(cells).real
		if l < mc.t || mc.stripTarget {
			cells = refStripLookahead(cells)
		}
		runs = append(runs, cells)
	}
	want := refInstall(ref.mergeRuns(runs, mc.atBottom))
	if mc.atBottom {
		ref.n = len(want.cells)
	}

	var dropTarget uint8
	if mc.stripTarget {
		dropTarget = dropLookahead
	}
	ram, sp := newDiffTwin(t, mc, false), newDiffTwin(t, mc, true)
	for _, tw := range []struct {
		name string
		c    *GCOLA
	}{{"ram", ram}, {"spilled", sp}} {
		c := tw.c
		moves := c.Stats().Moves
		c.mergeLevels(mc.t, mc.incoming, dropTarget, mc.atBottom)
		lv := &c.levels[mc.t]
		if lv.start != lv.cells-len(want.cells) || lv.real != want.real || lv.la != want.la {
			t.Fatalf("%s: level %d start %d real %d la %d, want start %d real %d la %d",
				tw.name, mc.t, lv.start, lv.real, lv.la, lv.cells-len(want.cells), want.real, want.la)
		}
		got := levelCells(c, mc.t)
		for i := range want.cells {
			if got[i] != want.cells[i] {
				t.Fatalf("%s: level %d cell %d of %d = %+v, want %+v", tw.name, mc.t, i, len(got), got[i], want.cells[i])
			}
		}
		if c.Len() != ref.n {
			t.Fatalf("%s: Len %d, want %d", tw.name, c.Len(), ref.n)
		}
		// The levels below were emptied and hold nothing but the samples
		// pointer distribution put there; the moves are the merged run's
		// cells plus those samples.
		wantMoves := moves + uint64(len(want.cells))
		for l := 0; l < mc.t; l++ {
			if c.levels[l].real != 0 {
				t.Fatalf("%s: level %d still holds %d real cells", tw.name, l, c.levels[l].real)
			}
			wantMoves += uint64(c.levels[l].la)
		}
		if c.Stats().Moves != wantMoves {
			t.Fatalf("%s: Moves %d, want %d", tw.name, c.Stats().Moves, wantMoves)
		}
		c.scratchMustBeReleased(t)
	}
	// The twins agree level by level, and a spilled level's file is the
	// RAM level's cells encoded, padded with zeros to whole chunks.
	for l := 0; l <= mc.t; l++ {
		rl, sl := &ram.levels[l], &sp.levels[l]
		if rl.start != sl.start || rl.real != sl.real || rl.la != sl.la {
			t.Fatalf("level %d: ram start %d real %d la %d, spilled start %d real %d la %d",
				l, rl.start, rl.real, rl.la, sl.start, sl.real, sl.la)
		}
		if sl.ext == nil {
			if sp.spilledLevel(l) && !sl.empty() {
				t.Fatalf("level %d: spilled and occupied, but has no image", l)
			}
			continue
		}
		var wantImage bytes.Buffer
		for _, e := range levelCells(ram, l) {
			var raw [extmem.CellBytes]byte
			encodeCell(&raw, e)
			wantImage.Write(raw[:])
		}
		image := levelImage(t, sp, l)
		if len(image)%extmem.DefaultChunkBytes != 0 || len(image)-wantImage.Len() >= extmem.DefaultChunkBytes {
			t.Fatalf("level %d: image of %d bytes for %d bytes of cells", l, len(image), wantImage.Len())
		}
		if !bytes.Equal(image[:wantImage.Len()], wantImage.Bytes()) {
			t.Fatalf("level %d: image differs from the RAM level's encoded cells", l)
		}
		if pad := image[wantImage.Len():]; !bytes.Equal(pad, make([]byte, len(pad))) {
			t.Fatalf("level %d: image padding is not zero", l)
		}
	}
}

// scratchMustBeReleased checks that a finished merge left no reader open.
func (c *GCOLA) scratchMustBeReleased(t testing.TB) {
	t.Helper()
	for i, st := range c.scratch.steps[:cap(c.scratch.steps)] {
		if st.rd != nil {
			t.Fatalf("ladder step %d still holds a reader after the merge", i)
		}
	}
}

// cells builds a sorted run from (key, kind) pairs; a real cell's value
// is derived from its key and tag so that copies of a key in different
// runs can be told apart, a lookahead cell points at cell key of the
// next level.
func cells(tag uint64, spec ...uint64) []entry {
	var out []entry
	for i := 0; i+1 < len(spec); i += 2 {
		key, kind := spec[i], uint8(spec[i+1])
		e := entry{key: key, kind: kind, left: -1}
		switch kind {
		case kindReal:
			e.val = key<<8 | tag
		case kindLookahead:
			e.left = int32(key)
		}
		out = append(out, e)
	}
	return out
}

// reals builds a run of n real cells with keys first, first+step, ...
func reals(tag uint64, n int, first, step uint64) []entry {
	out := make([]entry, n)
	for i := range out {
		key := first + uint64(i)*step
		out[i] = entry{key: key, val: key<<8 | tag, left: -1}
	}
	return out
}

const (
	kR = uint64(kindReal)
	kL = uint64(kindLookahead)
	kT = uint64(kindTombstone)
)

// mergeTable is the hand-made run sets; FuzzMergeInto starts from their
// encodings.
func mergeTable() map[string]mergeCase {
	full := func(t int, step uint64) [][]entry { // every level below t full: the binary counter's carry
		var lv [][]entry
		lv = append(lv, reals(0, 1, 5, 1))
		for l := 1; l < t; l++ {
			lv = append(lv, reals(uint64(l), 1<<l, uint64(l), step))
		}
		return append(lv, nil)
	}
	tab := map[string]mergeCase{
		"one cell into an empty level":                                        {t: 1, atBottom: true, incoming: cells(9, 4, kR), levels: [][]entry{cells(0, 6, kR), nil}},
		"carry through full levels of distinct keys, target exactly full":     {t: 4, atBottom: true, incoming: cells(9, 12, kR), levels: full(4, 16)},
		"carry through full levels with keys in common, above a deeper level": {t: 5, incoming: cells(9, 3, kR), levels: full(5, 7)},
		"update over update over original": {t: 3, atBottom: true, incoming: cells(9, 10, kR),
			levels: [][]entry{cells(0, 10, kR), cells(1, 10, kR, 20, kR), nil, cells(3, 10, kR, 30, kR)}},
		"tombstone over real, kept above a deeper level": {t: 2, incoming: cells(9, 10, kT),
			levels: [][]entry{cells(0, 20, kR), cells(1, 10, kR, 30, kR), nil}},
		"tombstone over real at the bottom": {t: 2, atBottom: true, incoming: cells(9, 10, kT),
			levels: [][]entry{cells(0, 20, kR), cells(1, 10, kR, 30, kR), nil}},
		"real over tombstone": {t: 2, atBottom: true, incoming: cells(9, 10, kR),
			levels: [][]entry{cells(0, 10, kT), cells(1, 10, kR, 30, kR), nil}},
		"tombstone over tombstone": {t: 2, incoming: cells(9, 10, kT),
			levels: [][]entry{cells(0, 10, kT), cells(1, 10, kR), nil}},
		"everything annihilated": {t: 2, atBottom: true, incoming: cells(9, 10, kT),
			levels: [][]entry{cells(0, 20, kT), cells(1, 10, kR, 20, kR), nil}},
		"lookahead cells of the target at the keys of merged reals": {t: 3, incoming: cells(9, 20, kR),
			levels: [][]entry{cells(0, 10, kR), nil, cells(2, 20, kL, 20, kR, 30, kL),
				cells(3, 10, kL, 10, kL, 10, kR, 20, kL, 25, kR, 30, kL)}},
		"lookahead cells of the sources are dropped, the target's kept": {t: 3, incoming: cells(9, 1, kR),
			levels: [][]entry{cells(0, 2, kR), cells(1, 2, kL, 3, kR), cells(2, 1, kL, 4, kR, 9, kL), cells(3, 1, kL, 3, kL, 3, kR, 50, kL)}},
		"compaction: the target's lookahead cells are dropped too": {t: 3, atBottom: true, stripTarget: true,
			levels: [][]entry{nil, cells(1, 2, kL, 3, kR), nil, cells(3, 1, kL, 3, kL, 3, kR, 7, kT, 50, kL)}},
		"compaction of two levels, the newer ending in lookahead cells": {t: 4, atBottom: true, stripTarget: true,
			levels: [][]entry{nil, nil, cells(2, 1, kR, 90, kL, 91, kL), nil, cells(4, 2, kL, 5, kR, 6, kR, 7, kL, 80, kR, 85, kL)}},
		"compaction of a lone level": {t: 2, atBottom: true, stripTarget: true,
			levels: [][]entry{nil, nil, cells(2, 1, kL, 3, kR, 7, kT, 9, kL)}},
		"empty levels between occupied ones": {t: 6, incoming: cells(9, 100, kR),
			levels: [][]entry{cells(0, 50, kR), nil, nil, reals(3, 5, 40, 20), nil, nil, reals(6, 9, 45, 20)}},
		"nothing incoming, one source": {t: 3, atBottom: true, levels: [][]entry{nil, nil, reals(2, 3, 1, 1), nil}},
	}
	// Runs of one slab of cells, one fewer and one more: the windows of
	// the pipeline's steps and of the spilled runs end on every side of
	// a slab boundary.
	for _, n := range []int{mergeSlabCells - 1, mergeSlabCells, mergeSlabCells + 1} {
		tab[fmt.Sprintf("runs of %d cells", n)] = mergeCase{t: 10, atBottom: n%2 == 0, incoming: cells(9, 77, kR),
			levels: [][]entry{cells(0, 78, kR), nil, nil, nil, nil, nil, nil, nil,
				reals(8, min(n, 256), 3, 3), reals(9, n, 2, 3), reals(10, n, 3, 2)}}
	}
	for name, mc := range tab {
		mc.spillDepth = 3
		tab[name] = mc
	}
	return tab
}

// TestMergeIntoMatchesReference is the differential test of the merge
// kernel and its drivers: every run set of the table goes through the
// reference ladder, the streaming merge in RAM and the streaming merge
// with levels spilled, and all three must produce the same level.
func TestMergeIntoMatchesReference(t *testing.T) {
	for name, mc := range mergeTable() {
		for _, depth := range []int{1, 3, 9} {
			mc.spillDepth = depth
			t.Run(fmt.Sprintf("%s/spill from %d", name, depth), func(t *testing.T) { runMergeCase(t, mc) })
		}
	}
}

// encodeMergeCase packs a run set for the fuzzer: t, flags, then for the
// incoming run and each level a cell count and (key gap, kind) pairs.
func encodeMergeCase(mc mergeCase) []byte {
	flags := byte(mc.spillDepth-1) << 2
	if mc.atBottom {
		flags |= 1
	}
	if mc.stripTarget {
		flags |= 2
	}
	out := []byte{byte(mc.t - 1), flags}
	for _, run := range append([][]entry{mc.incoming}, mc.levels...) {
		out = binary.LittleEndian.AppendUint16(out, uint16(len(run)))
		prev := uint64(0)
		for _, e := range run {
			out = append(out, byte(min(e.key-prev, 255)), e.kind)
			prev = e.key
		}
	}
	return out
}

// decodeMergeCase reads what encodeMergeCase wrote, bending whatever the
// bytes say into a run set the structure could hold: sorted runs, a
// lookahead cell never behind a real one of its key, no key twice among
// a level's real and tombstone cells, counts within the levels'
// capacities and the merged reals within the target's.
func decodeMergeCase(data []byte) (mergeCase, bool) {
	if len(data) < 2 {
		return mergeCase{}, false
	}
	mc := mergeCase{t: 1 + int(data[0])%10, atBottom: data[1]&1 != 0, stripTarget: data[1]&2 != 0, spillDepth: 1 + int(data[1]>>2)%10}
	data = data[2:]
	geom := New(Options{Growth: 2, PointerDensity: diffDensity})
	budget := geom.realCapacity(mc.t)
	mc.levels = make([][]entry, mc.t+1)
	for l := -1; l <= mc.t; l++ {
		if len(data) < 2 {
			break
		}
		n := int(binary.LittleEndian.Uint16(data))
		data = data[2:]
		reals, las := 1, 0
		if l >= 0 {
			reals, las = geom.realCapacity(l), geom.lookaheadCapacity(l)
		}
		reals = min(reals, budget)
		var run []entry
		key, lastReal := uint64(0), false
		for ; n > 0 && len(data) >= 2; n, data = n-1, data[2:] {
			gap, kind := uint64(data[0]), data[1]%3
			if gap == 0 && (lastReal || len(run) == 0) {
				gap = 1
			}
			key += gap
			if kind == kindLookahead {
				if las == 0 {
					continue
				}
				las--
				run = append(run, entry{key: key, left: int32(key), kind: kind})
				lastReal = false
				continue
			}
			if reals == 0 {
				continue
			}
			reals--
			budget--
			e := entry{key: key, kind: kind, left: -1}
			if kind == kindReal {
				e.val = key<<8 | uint64(l+1)
			}
			run = append(run, e)
			lastReal = true
		}
		if l < 0 {
			mc.incoming = run
		} else {
			mc.levels[l] = run
		}
	}
	if mc.stripTarget {
		mc.atBottom = true // a compaction is always a bottom merge
	}
	// A merge is only asked for when there is something to merge.
	occupied := len(mc.incoming) > 0
	for _, run := range mc.levels {
		occupied = occupied || len(run) > 0
	}
	return mc, occupied
}

// TestMergeCaseCodecRoundTrip keeps the fuzzer's seeds honest: every
// table case must survive its own encoding.
func TestMergeCaseCodecRoundTrip(t *testing.T) {
	for name, mc := range mergeTable() {
		got, ok := decodeMergeCase(encodeMergeCase(mc))
		if !ok {
			t.Fatalf("%s: encoding does not decode", name)
		}
		if got.t != mc.t || got.atBottom != mc.atBottom || got.stripTarget != mc.stripTarget || got.spillDepth != mc.spillDepth {
			t.Fatalf("%s: decoded header %+v", name, got)
		}
		if len(got.incoming) != len(mc.incoming) {
			t.Fatalf("%s: %d incoming cells decoded, want %d", name, len(got.incoming), len(mc.incoming))
		}
		for l := range mc.levels {
			if len(got.levels[l]) != len(mc.levels[l]) {
				t.Fatalf("%s: level %d decodes to %d cells, want %d", name, l, len(got.levels[l]), len(mc.levels[l]))
			}
			for i, e := range mc.levels[l] {
				if g := got.levels[l][i]; g.key != e.key || g.kind != e.kind {
					t.Fatalf("%s: level %d cell %d decodes to key %d kind %d, want key %d kind %d", name, l, i, g.key, g.kind, e.key, e.kind)
				}
			}
		}
	}
}

// FuzzMergeInto throws generated run sets at the differential check.
func FuzzMergeInto(f *testing.F) {
	for _, mc := range mergeTable() {
		f.Add(encodeMergeCase(mc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if mc, ok := decodeMergeCase(data); ok {
			runMergeCase(t, mc)
		}
	})
}
