// Package bracketflow exercises the balance-as-dataflow checker on the
// shapes a per-acquire path walk cannot see — releases skipped on loop
// back edges and helpers whose net bracket effect is conditional — and
// on goroutine hand-offs.
package bracketflow

import "sync"

type store struct {
	mu sync.RWMutex
	n  int
}

// readN is balanced on every path: clean, and its net-zero summary
// leaves callers untouched.
func (s *store) readN() int {
	s.mu.RLock()
	n := s.n
	s.mu.RUnlock()
	return n
}

// deferred covers all paths, including the early return: clean.
func (s *store) deferred(stop bool) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if stop {
		return 0
	}
	return s.n
}

// useReadN calls the balanced helper: nothing carries over. Clean.
func (s *store) useReadN() int {
	return s.readN() + s.readN()
}

// loopLeak skips the release on the continue back edge: the next
// iteration re-acquires while the previous RLock is still held.
func (s *store) loopLeak(xs []int) int {
	total := 0
	for _, x := range xs {
		s.mu.RLock() // want `s\.mu may be re-acquired while a previous acquire is still unreleased`
		if x < 0 {
			continue
		}
		total += s.n
		s.mu.RUnlock()
	}
	return total
}

// earlyLeak may return with the read lock held.
func (s *store) earlyLeak(stop bool) int {
	s.mu.RLock() // want `s\.mu may still be held at return`
	if stop {
		return 0
	}
	n := s.n
	s.mu.RUnlock()
	return n
}

// lockIf acquires only when cond holds and hands the bracket to its
// caller; the waiver documents the contract. Its net-delta summary
// {0,+1} still debits every caller.
//
//repro:allow bracketflow conditional acquire handed to the caller by contract
func (s *store) lockIf(cond bool) bool {
	if cond {
		s.mu.Lock()
		return true
	}
	return false
}

// forgetLockIf never releases what lockIf may have acquired: the
// helper's summary carries the possible +1 into this frame.
func (s *store) forgetLockIf(cond bool) int {
	s.lockIf(cond) // want `s\.mu may still be held at return`
	return s.n
}

// goRelease hands the release itself to another goroutine: this frame
// returns with the read lock held.
func (s *store) goRelease() int {
	s.mu.RLock() // want `s\.mu may still be held at return`
	n := s.n
	go s.mu.RUnlock()
	return n
}

// unlock is a release-only helper: its -1 summary debits callers.
func (s *store) unlock() { s.mu.Unlock() }

// goUnlock hands the helper to another goroutine: its summary applies
// to the spawned frame, not this one.
func (s *store) goUnlock() {
	s.mu.Lock() // want `s\.mu may still be held at return`
	s.n++
	go s.unlock()
}

// callUnlock calls the same helper in its own frame: clean.
func (s *store) callUnlock() {
	s.mu.Lock()
	s.n++
	s.unlock()
}

// unlockN releases the lock and reports what it guarded.
func (s *store) unlockN() int {
	n := s.n
	s.mu.Unlock()
	return n
}

func (s *store) consume(int) {}

// goArgs spawns a goroutine whose argument is evaluated here, releasing
// the lock in this frame: clean.
func (s *store) goArgs() {
	s.mu.Lock()
	go s.consume(s.unlockN())
}
