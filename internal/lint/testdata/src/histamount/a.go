// Package histamount is the second regression reproduction of the PR 6
// hypothesis experiment E13 "synthetic midpoint chain", this time from
// the charge-AMOUNT side. histdam catches the bug because the probe
// loop is not a declared accessor (call-site rule); this package
// catches it even where the probing is reachable from the accessor —
// the charges in search derive from a key-independent synthetic
// position stream, not from anything the probe chain touches.
package histamount

type space struct{ reads int }

func (s *space) Read(n int) { s.reads += n }

type level struct {
	//repro:accounted
	data []uint64
	spc  *space
}

// search charges a synthetic midpoint chain: positions depend only on
// len(l.data), not on the probed key. The charge count looks right, so
// runtime DAM accounting passes — but no charge argument derives from
// a probed index, and the loop the charges sit in probes nothing.
//
//repro:charges level.spc
func (l *level) search(key uint64) int {
	for n := len(l.data); n > 1; n /= 2 {
		l.spc.Read(1) // want `charge call Read derives from no probed index: search probes accounted cells elsewhere`
	}
	return l.probeChain(key)
}

// probeChain is the extracted probe loop: probing it is what makes
// search non-vacuous (probe evidence crosses the call via the
// bottom-up prober summary).
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

// lowerBound is the corrected shape: one charge per probe in the same
// loop, positions derived from the key. Clean.
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
