// Package damcharge exercises the DAM-accounting analyzer: accounted
// storage may only be touched inside declared charged accessors.
package damcharge

type space struct{ reads, writes int }

func (s *space) Read(n int)  { s.reads += n }
func (s *space) Write(n int) { s.writes += n }

type entry struct {
	key, val uint64
}

type level struct {
	//repro:accounted
	data []entry
	spc  *space
}

// get charges a constant, not the index it probes: the amount rule.
//
//repro:charges level.spc
func (l *level) get(i int) entry {
	l.spc.Read(1) // want `charge call Read derives from no probed index`
	return l.data[i]
}

// peek is declared but never charges anything: flagged on the name.
//
//repro:charges level.spc
func (l *level) peek(i int) entry { // want `charged accessor peek contains no charge call`
	return l.data[i]
}

// raw is a caller-charged accessor: the directive documents the owner,
// so no charge call is required here.
//
//repro:charges caller:mergeDown
func (l *level) raw(i int) entry {
	return l.data[i]
}

// sneak indexes accounted storage with no charges declaration at all.
func (l *level) sneak(i int) uint64 {
	return l.data[i].key // want `indexes accounted storage outside a charged accessor`
}

// sweep ranges over accounted storage uncharged.
func (l *level) sweep() uint64 {
	var sum uint64
	for _, e := range l.data { // want `ranges over accounted storage outside a charged accessor`
		sum += e.key
	}
	return sum
}

// alias shows taint tracking: a local slice aliasing accounted cells
// is still accounted when indexed.
func (l *level) alias(i int) entry {
	d := l.data
	return d[i] // want `indexes accounted storage outside a charged accessor`
}

// bulk copies accounted cells without an index expression.
func (l *level) bulk(dst []entry) int {
	return copy(dst, l.data) // want `copies accounted storage outside a charged accessor`
}

// grow appends to accounted storage uncharged.
func (l *level) grow(e entry) {
	l.data = append(l.data, e) // want `appends to accounted storage outside a charged accessor`
}

// sizeOnly reads metadata, not cells: len/cap of accounted storage is
// free in the DAM model and stays clean.
func (l *level) sizeOnly() int {
	return len(l.data) + cap(l.data)
}

// waived shows the escape hatch, reason mandatory.
func (l *level) waived(i int) entry {
	//repro:allow damcharge recovery scan replays the WAL before spaces exist
	return l.data[i]
}

// hand passes accounted storage on: whole, sliced, and through a local
// alias. The parameters that receive it are accounted storage inside
// their functions, exactly as the field is here.
//
//repro:charges level.spc
func (l *level) hand() uint64 {
	l.spc.Read(len(l.data))
	d := l.data[1:]
	return first(l.data) + firstCharged(l.data[2:]) + relay(d) + mine(make([]entry, len(l.data)))
}

// first indexes a slice hand gives it, with no contract of its own:
// the pass-through used to hide this from the analyzer.
func first(cells []entry) uint64 {
	return cells[0].key // want `indexes accounted storage outside a charged accessor`
}

// firstCharged is the same helper under a contract: clean.
//
//repro:charges caller:hand
func firstCharged(cells []entry) uint64 {
	return cells[0].key
}

// relay touches no cell itself, but what it is handed stays accounted
// in the function it hands it to.
func relay(cells []entry) uint64 {
	return last(cells)
}

func last(cells []entry) uint64 {
	return cells[len(cells)-1].key // want `indexes accounted storage outside a charged accessor`
}

// mine is only ever handed fresh memory (len of accounted storage is
// metadata, and make aliases nothing): clean.
func mine(cells []entry) uint64 {
	return cells[0].key
}
