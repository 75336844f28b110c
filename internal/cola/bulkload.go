package cola

import (
	"sort"

	"repro/internal/core"
)

// InsertBatch implements core.BatchInserter. On an empty structure it
// takes the BulkLoad fast path — sort once, install the whole batch
// into one level, distribute pointers. On a non-empty structure it
// falls back to the ordinary insert loop (semantically identical:
// later duplicates win either way). The caller's slice is never
// mutated.
func (c *GCOLA) InsertBatch(elems []core.Element) {
	if len(elems) == 0 {
		return
	}
	empty := true
	for l := range c.levels {
		if !c.levels[l].empty() {
			empty = false
			break
		}
	}
	if empty {
		cp := make([]core.Element, len(elems))
		copy(cp, elems)
		c.BulkLoad(cp)
		// BulkLoad counts Moves; keep the Inserts counter meaning "elements
		// ingested" so batch and loop ingestion report comparably.
		c.stats.Inserts += uint64(len(elems))
		return
	}
	for _, e := range elems {
		c.Insert(e.Key, e.Value)
	}
}

var _ core.BatchInserter = (*GCOLA)(nil)

// BulkLoad replaces the structure's contents with the given elements in
// one pass: the elements are sorted (in place), deduplicated newest-wins
// (later slice entries win), installed into the smallest level that
// holds them, and lookahead pointers are distributed. This is the
// one-shot analogue of the paper's B-tree construction note ("we first
// sorted the N random elements then inserted them") and costs O(sort)
// CPU plus one sequential write of the target level — amortized O(1/B)
// transfers per element, a log N factor below inserting one by one.
//
// The structure must be empty; BulkLoad panics otherwise.
func (c *GCOLA) BulkLoad(elems []core.Element) {
	for l := range c.levels {
		if !c.levels[l].empty() {
			panic("cola: BulkLoad into a non-empty structure")
		}
	}
	if len(elems) == 0 {
		return
	}
	sort.SliceStable(elems, func(i, j int) bool { return elems[i].Key < elems[j].Key })
	// Deduplicate: the stable sort keeps insertion order within equal
	// keys, so the last of each run is the newest.
	out := make([]entry, 0, len(elems))
	for i, e := range elems {
		if i+1 < len(elems) && elems[i+1].Key == e.Key {
			continue
		}
		out = append(out, entry{key: e.Key, val: e.Value, kind: kindReal, left: -1})
	}

	t := 0
	for c.realCapacity(t) < len(out) {
		t++
	}
	c.ensureLevel(t)
	c.installLevel(t, out)
	c.chargeWrite(t, c.levels[t].start, len(out))
	c.stats.Moves += uint64(len(out))
	c.n = len(out)
	c.distributePointers(t)
}
