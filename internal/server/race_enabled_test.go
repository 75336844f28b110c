//go:build race

package server

// raceEnabled reports whether this test binary was built with the race
// detector, which makes sync.Pool drop items at random (to provoke
// races) and so breaks the pooled-scratch zero-allocation assertions.
const raceEnabled = true
