package harness

import (
	"fmt"
	"net"
	"time"

	"repro/internal/loadgen"
	"repro/internal/server"
	"repro/internal/workload"
)

// serveLineup pairs one 2-COLA with its shared-read support (searches
// bracket under the shard's RLock and run concurrently) against the
// same 2-COLA with that support hidden (the same shard lock serializes
// every search). One structure and one shard, so the lock — not the
// structure or shard spreading — is the only mechanism in play.
var serveLineup = []struct {
	exclusive bool
	label     string
}{
	{false, "shared (2-COLA)"},
	{true, "exclusive (2-COLA)"},
}

// serveConns is the connection sweep for E14.
var serveConns = []int{1, 2, 4}

// Serve is experiment E14: GET throughput over the wire as a function
// of concurrent connections, shared-read inner vs exclusive inner. The
// prediction is the served edition of E11/E12: a shared-read-safe inner
// lets concurrent GETs overlap inside one shard's read lock, so
// throughput grows with connections, while an exclusive inner pins the
// ratio near one. Wall-clock (and scheduler-bound), so CI reports it
// rather than gating on it.
func (c Config) Serve() (Result, error) {
	res := Result{
		Title:  "E14 — served GET throughput vs connections (1 shard)",
		XLabel: "connections",
		YLabel: "operations/second",
	}
	var first, last [2]float64
	for li, entry := range serveLineup {
		s := Series{Name: entry.label}
		for _, conns := range serveConns {
			ops, err := c.ServeThroughput(entry.exclusive, conns)
			if err != nil {
				return res, fmt.Errorf("serve %s @%d conns: %w", entry.label, conns, err)
			}
			s.X = append(s.X, float64(conns))
			s.Y = append(s.Y, ops)
		}
		first[li], last[li] = s.Y[0], s.Y[len(s.Y)-1]
		res.Series = append(res.Series, s)
	}
	for li, entry := range serveLineup {
		res.Notes = append(res.Notes, seriesRatioNote(
			fmt.Sprintf("%s: %d-conn over 1-conn throughput", entry.label, serveConns[len(serveConns)-1]),
			last[li], first[li]))
	}
	return res, nil
}

// ServeThroughput measures closed-loop GET ops/s of conns connections,
// Searches GETs each, against an in-process loopback server over one
// shard of a 2-COLA preloaded with 2^LogN keys. exclusive hides the
// COLA's shared-read support, so the shard's lock serializes every
// search. E14 and the server-shared-read-scaling hypothesis bundle both
// measure through it.
func (c Config) ServeThroughput(exclusive bool, conns int) (float64, error) {
	c = c.withDefaults()
	srv := server.New(guarded(1, exclusive))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(ln) }()
	defer func() { srv.Shutdown(5 * time.Second); <-done }()

	sc := workload.Scenario{
		Skew:     workload.Skew{Kind: "uniform"},
		Arrival:  workload.Arrival{Kind: "steady"},
		Mix:      workload.Mix{SearchPct: 100},
		KeySpace: uint64(1) << uint(c.LogN),
		Seed:     c.Seed,
	}
	sum, err := loadgen.Run(loadgen.Config{
		Addr:     ln.Addr().String(),
		Scenario: sc,
		Conns:    conns,
		Ops:      conns * c.Searches,
		Preload:  1 << uint(c.LogN),
	})
	if err != nil {
		return 0, err
	}
	return sum.OpsPerSec(), nil
}
