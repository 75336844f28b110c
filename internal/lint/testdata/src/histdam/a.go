// Package histdam is a regression reproduction of the PR 6 hypothesis
// experiment E13 "synthetic midpoint chain": a binary-search
// "optimization" that probed real accounted cells while charging a
// key-independent synthetic position stream. The probe loop below is
// exactly that shape — it reads level cells through a path that is not
// a declared charged accessor (the charges all happen against the
// synthetic chain in search). damcharge fails the build on it.
package histdam

type space struct{ reads int }

func (s *space) Read(n int) { s.reads += n }

type level struct {
	//repro:accounted
	data []uint64
	spc  *space
}

// search charges a synthetic midpoint chain: positions depend only on
// len(l.data), not on the probed key. The charge count looks right, so
// runtime DAM accounting passes — but the actual probes in probeChain
// are uncharged accesses.
//
//repro:charges level.spc
func (l *level) search(key uint64) int {
	for n := len(l.data); n > 1; n /= 2 {
		l.spc.Read(1) // want `charge call Read derives from no probed index: search probes accounted cells elsewhere`
	}
	return l.probeChain(key)
}

// probeChain is the extracted probe loop: it indexes accounted cells
// and is NOT a declared accessor, so every probe is flagged.
func (l *level) probeChain(key uint64) int {
	lo, hi := 0, len(l.data)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if l.data[mid] < key { // want `indexes accounted storage outside a charged accessor`
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// lowerBound is the corrected shape: one declared accessor, one charge
// per probe, positions derived from the key. Clean.
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
