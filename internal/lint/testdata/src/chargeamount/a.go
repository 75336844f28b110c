// Package chargeamount exercises damcharge's charge-amount rule: in a
// declared charged accessor, the value fed to a charge call must be
// derived from the positions the accessor actually probes — a probed
// index, len/cap of accounted storage, the argument or result of a
// probing callee, or the lockstep charge-per-probe loop idiom.
package chargeamount

type space struct{ reads int }

func (s *space) Read(n int) { s.reads += n }

type level struct {
	//repro:accounted
	data []uint64
	spc  *space
}

// lowerBound charges one read per probe inside the same loop: the
// lockstep idiom. Clean.
//
//repro:charges level.spc
func (l *level) lowerBound(key uint64) int {
	lo, hi := 0, len(l.data)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		l.spc.Read(1)
		if l.data[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// get charges the index it probes. Clean.
//
//repro:charges level.spc
func (l *level) get(i int) uint64 {
	v := l.data[i]
	l.spc.Read(i)
	return v
}

// scan charges len of the accounted slice after a bulk probe: the
// documented blessing for size-proportional charges. Clean.
//
//repro:charges level.spc
func (l *level) scan(key uint64) int {
	hits := 0
	for _, v := range l.data {
		if v == key {
			hits++
		}
	}
	l.spc.Read(len(l.data))
	return hits
}

// chainSearch charges the result of a probing callee: probe evidence
// crosses the call via the bottom-up summary. Clean.
//
//repro:charges level.spc
func (l *level) chainSearch(key uint64) int {
	steps := l.probeChainLen(key)
	l.spc.Read(steps)
	return steps
}

// probeChainLen is the extracted probe loop. It is not itself a declared
// accessor, so its probe is an uncharged access.
func (l *level) probeChainLen(key uint64) int {
	j := 0
	for j < len(l.data) && l.data[j] < key { // want `indexes accounted storage outside a charged accessor`
		j++
	}
	return j
}

// syntheticCharge charges a constant stream in its own loop while the
// probes happen elsewhere: the charge COUNT can look right while the
// charged cells are pure fiction.
//
//repro:charges level.spc
func (l *level) syntheticCharge(key uint64) int {
	for n := len(l.data); n > 1; n /= 2 {
		l.spc.Read(1) // want `charge call Read derives from no probed index`
	}
	j := 0
	for j < len(l.data) && l.data[j] < key {
		j++
	}
	return j
}

// scanBudget probes the whole slice but charges a fixed budget that
// has nothing to do with any probed position.
//
//repro:charges level.spc
func (l *level) scanBudget(key uint64) int {
	hits := 0
	for _, v := range l.data {
		if v == key {
			hits++
		}
	}
	budget := 8
	l.spc.Read(budget) // want `charge call Read derives from no probed index`
	return hits
}

// chargeOnly never probes: a pure charge helper, vacuously clean (the
// extent it charges is validated where it is computed).
//
//repro:charges level.spc
func (l *level) chargeOnly(n int) {
	l.spc.Read(n)
}

// amortized charges a constant settled by a later rebuild; the waiver
// documents the amortization argument.
//
//repro:charges level.spc
func (l *level) amortized(i int) uint64 {
	v := l.data[i]
	//repro:allow damcharge amortized debit settled by the rebuild that follows
	l.spc.Read(4)
	return v
}

// windowed hands its accounted cells to kernels that take them as a
// parameter; the parameter is accounted storage there too.
//
//repro:charges level.spc
func (l *level) windowed(key uint64) int {
	return l.kernel(l.data[1:], key) + l.kernelBudget(l.data[1:], key)
}

// kernel probes the cells it is handed in lockstep with its charges.
// Clean.
//
//repro:charges level.spc
func (l *level) kernel(cells []uint64, key uint64) int {
	j := 0
	for j < len(cells) && cells[j] < key {
		l.spc.Read(1)
		j++
	}
	return j
}

// kernelBudget probes them and charges a constant from nowhere: a
// parameter does not launder the cells.
//
//repro:charges level.spc
func (l *level) kernelBudget(cells []uint64, key uint64) int {
	j := 0
	for j < len(cells) && cells[j] < key {
		j++
	}
	budget := 8
	l.spc.Read(budget) // want `charge call Read derives from no probed index`
	return j
}
