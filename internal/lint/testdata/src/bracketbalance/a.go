// Package bracketbalance exercises bracketflow on acquire/release paths:
// every RLock/Lock/Begin* must release on all control-flow paths.
package bracketbalance

import "sync"

type store struct {
	mu    sync.RWMutex
	n     int
	other *store
}

func (s *store) BeginSharedReads() { s.mu.RLock() }
func (s *store) EndSharedReads()   { s.mu.RUnlock() }

// straight is the simplest balanced bracket: clean.
func (s *store) straight() int {
	s.mu.RLock()
	n := s.n
	s.mu.RUnlock()
	return n
}

// deferred covers every path, including the early return: clean.
func (s *store) deferred(stop bool) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if stop {
		return 0
	}
	return s.n
}

// leakyEarlyReturn releases on the fall-through path only; the early
// return leaks the read lock.
func (s *store) leakyEarlyReturn(stop bool) int {
	s.mu.RLock() // want `s\.mu may still be held at return \(RUnlock missing`
	if stop {
		return 0
	}
	n := s.n
	s.mu.RUnlock()
	return n
}

// branched releases on both arms explicitly: clean.
func (s *store) branched(stop bool) int {
	s.mu.RLock()
	if stop {
		s.mu.RUnlock()
		return 0
	}
	n := s.n
	s.mu.RUnlock()
	return n
}

// mismatched releases a different receiver's lock: the acquire never
// balances.
func (s *store) mismatched() int {
	s.mu.RLock() // want `s\.mu may still be held at return \(RUnlock missing`
	n := s.n
	s.other.mu.RUnlock()
	return n
}

// epochLeak opens a shared-read epoch and forgets to close it on the
// early return; Begin*/End* pair generically.
func (s *store) epochLeak(stop bool) int {
	s.other.BeginSharedReads() // want `s\.other may still be held at return \(EndSharedReads missing`
	if stop {
		return 0
	}
	n := s.other.n
	s.other.EndSharedReads()
	return n
}

// deferredClosure releases inside a deferred closure: clean.
func (s *store) deferredClosure() int {
	s.mu.Lock()
	defer func() {
		s.n++
		s.mu.Unlock()
	}()
	return s.n
}

// handoff intentionally transfers the lock to another goroutine; the
// waiver names the analyzer and explains.
func (s *store) handoff() {
	//repro:allow bracketflow ownership transfers to the drain goroutine which unlocks
	s.mu.Lock()
	go s.drain()
}

func (s *store) drain() {
	s.n = 0
	s.mu.Unlock()
}
