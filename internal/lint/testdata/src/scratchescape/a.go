// Package scratchescape exercises the flow-sensitive scratch-ownership
// analyzer: pooled values and //repro:scratch fields must not escape
// the call that produced them — not returned, not stored, not sent,
// not captured by a goroutine, and not passed to a callee whose
// summary says it leaks its argument.
package scratchescape

import "sync"

type cursor struct {
	pos  int
	keys []uint64
}

var cursorPool = sync.Pool{New: func() interface{} { return new(cursor) }}

type merger struct {
	// mergeScratch is the ping/pong buffer reused across merges.
	//repro:scratch
	mergeScratch []uint64
	out          []uint64
	results      chan []uint64
}

// useAndPut is the intended pool lifecycle: get, use, put. Clean.
func useAndPut(n int) int {
	c := cursorPool.Get().(*cursor)
	c.pos = n
	c.keys = c.keys[:0]
	sum := c.pos
	cursorPool.Put(c)
	return sum
}

// leakPooled returns the pooled object itself.
func leakPooled() *cursor {
	c := cursorPool.Get().(*cursor)
	return c // want `returns scratch-backed value c`
}

// leakDirect returns the Get result without even a local.
func leakDirect() interface{} {
	return cursorPool.Get() // want `returns scratch-backed value cursorPool\.Get\(\)`
}

// fillScratch grows the scratch buffer in place: storing INTO scratch
// is the intended use. Clean.
func (m *merger) fillScratch(keys []uint64) {
	m.mergeScratch = m.mergeScratch[:0]
	m.mergeScratch = append(m.mergeScratch, keys...)
}

// publishScratch stores a scratch alias into a durable field: the
// buffer will be overwritten by the next merge while m.out still
// points at it.
func (m *merger) publishScratch() {
	m.out = m.mergeScratch[:3] // want `stores scratch-backed value in m\.out`
}

// sendScratch ships the scratch buffer across a channel.
func (m *merger) sendScratch() {
	m.results <- m.mergeScratch // want `sends scratch-backed value m\.mergeScratch on a channel`
}

// returnScratchAlias leaks through a local alias.
func (m *merger) returnScratchAlias() []uint64 {
	tmp := m.mergeScratch[1:]
	return tmp // want `returns scratch-backed value tmp`
}

// copyOut copies scratch contents into a fresh slice: the copy owns
// its cells, nothing aliases. Clean.
func (m *merger) copyOut() []uint64 {
	out := make([]uint64, len(m.mergeScratch))
	copy(out, m.mergeScratch)
	return out
}

// install stores its argument into a durable field. On its own that is
// fine — the escape only matters when the argument is scratch, which
// the caller-side summary check below catches.
func (m *merger) install(run []uint64) {
	m.out = run
}

// installScratch hands the live scratch buffer to install, whose
// summary says it stores its argument beyond the call.
func (m *merger) installScratch() {
	m.install(m.mergeScratch) // want `passes scratch-backed value to install, which stores it beyond the call`
}

// spawnScratch captures scratch in a goroutine that may outlive the
// merge that owns the buffer.
func (m *merger) spawnScratch() {
	buf := m.mergeScratch[:2]
	go func() { // want `goroutine may outlive scratch-backed value it captures`
		_ = buf[0] + buf[1]
	}()
}

// sumScratch passes scratch to a callee that only reads it: the
// summary is empty, so nothing fires. Clean.
func (m *merger) sumScratch() uint64 {
	return sum(m.mergeScratch)
}

func sum(xs []uint64) uint64 {
	var s uint64
	for _, x := range xs {
		s += x
	}
	return s
}

// cell is a struct of plain values, like a lookahead-array entry.
type cell struct {
	key  uint64
	kind uint8
}

// window is a struct that does hold a reference.
type window struct{ run []cell }

// slabs holds scratch cells and a scratch window onto them.
type slabs struct {
	//repro:scratch
	slab []cell
	//repro:scratch
	win  window
	keep []cell
	last window
}

// copyCell copies one cell of src over one of dst: the copy holds no
// reference, so src's memory does not outlive the call through it.
func copyCell(dst, src []cell) {
	dst[0] = src[0]
}

// keepCell hands scratch cells to copyCell, whose summary is empty
// because a cell cannot alias. Clean.
func (s *slabs) keepCell() {
	copyCell(s.keep, s.slab)
}

// keepWindow copies a struct whose field still points into scratch.
func (s *slabs) keepWindow() {
	s.last = s.win // want `stores scratch-backed value in s\.last`
}

// mergeRuns mirrors the gcola internal that hands its scratch to the
// caller, which installs it before the next merge reuses the buffer;
// the waiver documents that ownership contract.
//
//repro:allow scratchescape caller installs the run before the next merge touches scratch
func (m *merger) mergeRuns() []uint64 {
	m.mergeScratch = append(m.mergeScratch[:0], 1, 2, 3)
	return m.mergeScratch
}
