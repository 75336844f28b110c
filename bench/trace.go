package main

// Turning recorded spans into per-layer numbers.

import (
	"slices"
)

// spanSums aggregates one seam's spans.
type spanSums struct {
	total    int64               // ns over every call span (opWriteTo/opReadFrom kept apart)
	byOp     [opWindow + 1]int64 // ns per op
	calls    [opWindow + 1]int64
	elems    [opWindow + 1]int64
	perShard map[uint8]int64 // elements per shard
}

func sumSpans(spans []span) spanSums {
	s := spanSums{perShard: map[uint8]int64{}}
	for _, sp := range spans {
		s.byOp[sp.op] += sp.dur()
		s.calls[sp.op]++
		if sp.op == opWriteTo || sp.op == opReadFrom {
			continue
		}
		s.total += sp.dur()
		s.elems[sp.op] += int64(sp.elems)
		s.perShard[sp.shard] += int64(max(sp.elems, 1))
	}
	return s
}

// compatible reports whether child c can be a call that parent p made:
// c lies inside p in time (the caller checks that) and the ops and keys
// agree. scoped says both seams sit under one shard, so shard indices
// must match too.
func compatible(p, c span, keyLog []uint64, scoped bool) bool {
	if scoped && p.shard != c.shard {
		return false
	}
	switch {
	case c.op == opWriteTo || c.op == opReadFrom:
		// A checkpoint runs inside the mutation that triggered it.
		return p.op.isWrite() || p.op == opDelete
	case !c.op.isWrite():
		return p.op == c.op && p.key == c.key
	case p.op == opInsert:
		return c.key == p.key
	case p.op != opInsertBatch:
		return false
	case p.keyOff == noKeyLog:
		// A wrapper that forwards the batch whole (durable).
		return c.key == p.key && c.elems == p.elems
	}
	// The shard map splits a batch per shard: the child's first key is
	// one of the parent's keys.
	return slices.Contains(keyLog[p.keyOff:p.keyOff+p.elems], c.key)
}

// joinSelf attributes each child span to the parent span that made the
// call and returns every parent's self time (its duration minus its
// children's). Both slices must be ordered by start time. A child is
// joined to a parent that contains it in time and agrees on op and key;
// when two concurrent parents both qualify (two connections writing the
// same hot key at once) the later-started one is taken and the child is
// counted as ambiguous. Children no parent contains are orphans.
func joinSelf(parents, children []span, keyLog []uint64, scoped bool) (self []int64, orphans, ambiguous int) {
	self = make([]int64, len(parents))
	for i, p := range parents {
		self[i] = p.dur()
	}
	var active []int // parents that may still contain a later child
	next := 0
	for _, c := range children {
		for next < len(parents) && parents[next].start <= c.start {
			active = append(active, next)
			next++
		}
		active = slices.DeleteFunc(active, func(i int) bool { return parents[i].end < c.start })
		best, candidates := -1, 0
		for _, i := range active {
			if parents[i].end >= c.end && compatible(parents[i], c, keyLog, scoped) {
				candidates++
				best = i // active is in start order: the last match started latest
			}
		}
		switch {
		case best < 0:
			orphans++
			continue
		case candidates > 1:
			ambiguous++
		}
		self[best] -= c.dur()
	}
	return self, orphans, ambiguous
}

// writeSpans are the insert-family call durations of a seam, with the
// batch sizes seen there.
func writeSpans(spans []span) (durs []int64, sizes []int64) {
	for _, sp := range spans {
		if sp.op.isWrite() {
			durs = append(durs, sp.dur())
			sizes = append(sizes, int64(sp.elems))
		}
	}
	return durs, sizes
}

// stallNS is the duration above which one insert call counts as a
// stall: long enough that a merge cascade, not an append, is running.
const stallNS = 1_000_000

// colaMetrics fills the cola.* timing metrics from the spans recorded
// directly around the structure.
func colaMetrics(L map[string]float64, spans []span) {
	s := sumSpans(spans)
	perCall := func(op spanOp) float64 {
		if s.calls[op] == 0 {
			return 0
		}
		return float64(s.byOp[op]) / float64(s.calls[op]) / 1e3
	}
	L["cola.insert_us_per_op"] = perCall(opInsert)
	L["cola.search_us_per_op"] = perCall(opSearch)
	L["cola.range_us_per_op"] = perCall(opRange)
	if s.elems[opInsertBatch] > 0 {
		L["cola.insertbatch_us_per_elem"] = float64(s.byOp[opInsertBatch]) / float64(s.elems[opInsertBatch]) / 1e3
	}
	durs, _ := writeSpans(spans)
	if len(durs) == 0 {
		return
	}
	slices.Sort(durs)
	L["cola.insert_max_ms"] = float64(durs[len(durs)-1]) / 1e6
	L["cola.insert_p9999_us"] = quantile(durs, 0.9999) / 1e3
	stalls := 0
	for _, d := range durs {
		if d > stallNS {
			stalls++
		}
	}
	L["cola.stalls_over_1ms"] = float64(stalls)
}

// layerBreakdown is the traced closed-loop phase split by layer: each
// field is the time spent in that layer itself, in ns, summed over both
// connections. They add up to rtt, the client-observed time.
type layerBreakdown struct {
	rtt, server, shard, durable, cola int64
}

// breakdown computes self times from the seams' totals: a layer's self
// time is its spans minus the spans of the seam below.
func (t *tracer) breakdown(rtt int64) (layerBreakdown, []span) {
	a, b := sumSpans(t.a.recorded()), sumSpans(t.b.recorded())
	lb := layerBreakdown{rtt: rtt, server: rtt - a.total, shard: a.total - b.total, cola: b.total}
	structure := t.b.recorded()
	if t.hasDurable {
		structure = t.c.recorded()
		c := sumSpans(structure)
		// Encoding a checkpoint (WriteTo at seam C) is durable's work,
		// not the structure's: it stays in durable's self time.
		lb.durable, lb.cola = b.total-c.total, c.total
	}
	return lb, structure
}
