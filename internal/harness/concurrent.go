// Concurrent-throughput scenario: the paper's structures are
// single-threaded, so the repo offers two ways to serve concurrent
// traffic — a global mutex around one structure, or the sharded map of
// internal/shard. This experiment (E10 in DESIGN.md) measures both on
// the same workload and reports aggregate throughput as goroutines and
// shards grow together, making the scaling claim quantitative and
// falsifiable: the sharded map should approach linear speedup while
// the global lock stays flat.

package harness

import (
	"sync"
	"time"

	"repro/internal/cola"
	"repro/internal/core"
	"repro/internal/dam"
	"repro/internal/shard"
	"repro/internal/syncdict"
	"repro/internal/workload"
)

// exclusiveInner hides a dictionary's SharedReader methods, so a
// wrapper probing core.AsSharedReader falls back to exclusive locking —
// the honest reconstruction of the pre-shared-read baseline on the very
// same structure.
type exclusiveInner struct {
	core.Dictionary
}

// guarded builds the concurrent front E10 and E12 measure, with DAM
// accounting off: a 2-COLA per shard behind a map of the given shard
// count, or, for shards == 0, one 2-COLA behind the synchronized
// wrapper's single lock. exclusive hides the COLA's shared-read support,
// so every search takes its lock exclusively.
func guarded(shards int, exclusive bool) core.Dictionary {
	inner := func(_ int, sp *dam.Space) core.Dictionary {
		if exclusive {
			return exclusiveInner{cola.NewCOLA(sp)}
		}
		return cola.NewCOLA(sp)
	}
	if shards == 0 {
		return syncdict.New(inner(0, nil))
	}
	return shard.New(shard.WithShards(shards), shard.WithDictionary(inner))
}

// drive runs workers goroutines, worker w calling work(w), and returns
// the operations they report per second of wall clock: the one loop
// E10 and E12 time their concurrent workers with.
func drive(workers int, work func(w int) (ops int)) float64 {
	var wg sync.WaitGroup
	ops := make([]int, workers)
	start := time.Now()
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ops[w] = work(w)
		}()
	}
	wg.Wait()
	el := max(time.Since(start).Seconds(), 1e-9)
	total := 0
	for _, n := range ops {
		total += n
	}
	return float64(total) / el
}

// driveInserts runs workers goroutines, each inserting per-worker
// distinct keys, and returns aggregate inserts/second.
func driveInserts(d core.Dictionary, workers, perWorker int, seed uint64) float64 {
	return drive(workers, func(w int) int {
		seq := workload.NewRandomUnique(seed + uint64(w))
		for range perWorker {
			k := seq.Next()
			d.Insert(k, k)
		}
		return perWorker
	})
}

// driveSearches runs workers goroutines probing the preloaded keyspace
// and returns aggregate searches/second.
func driveSearches(d core.Dictionary, workers, perWorker int, seed uint64) float64 {
	return drive(workers, func(w int) int {
		probe := workload.NewRandomUnique(seed + uint64(w))
		for range perWorker {
			d.Search(probe.Next())
		}
		return perWorker
	})
}

// Concurrent is experiment E10: aggregate insert and search throughput
// of the sharded map vs the global-mutex wrapper at 1/2/4/8 shards ×
// goroutines (shards grow with goroutines; the mutex baseline only
// gains contention). DAM accounting is disabled — the DAM model has no
// notion of parallelism, so this scenario measures wall-clock scaling,
// the quantity the single-threaded figures cannot show.
func (c Config) Concurrent() Result {
	c = c.withDefaults()
	n := 1 << c.LogN
	scales := []int{1, 2, 4, 8}

	var shIns, muIns, shSrch, muSrch Series
	for _, g := range scales {
		perWorker := n / g

		sharded := guarded(g, false)
		shIns.X = append(shIns.X, float64(g))
		shIns.Y = append(shIns.Y, driveInserts(sharded, g, perWorker, c.Seed))
		shSrch.X = append(shSrch.X, float64(g))
		shSrch.Y = append(shSrch.Y, driveSearches(sharded, g, perWorker, c.Seed))

		locked := guarded(0, true)
		muIns.X = append(muIns.X, float64(g))
		muIns.Y = append(muIns.Y, driveInserts(locked, g, perWorker, c.Seed))
		muSrch.X = append(muSrch.X, float64(g))
		muSrch.Y = append(muSrch.Y, driveSearches(locked, g, perWorker, c.Seed))
	}
	shIns.Name = "sharded ins/s"
	muIns.Name = "locked ins/s"
	shSrch.Name = "sharded srch/s"
	muSrch.Name = "locked srch/s"

	last := len(scales) - 1
	return Result{
		Title:  "E10 — concurrent throughput: sharded map vs global mutex (2-COLA per shard)",
		XLabel: "shards = goroutines",
		YLabel: "aggregate ops/second",
		Series: []Series{shIns, muIns, shSrch, muSrch},
		Notes: []string{
			"Prediction: sharded throughput rises with shard count (toward linear on idle cores);",
			"the global-lock baseline is flat or falls as goroutines contend.",
			seriesRatioNote("measured 8-way insert speedup over global lock", shIns.Y[last], muIns.Y[last]),
			seriesRatioNote("measured 8-way search speedup over global lock", shSrch.Y[last], muSrch.Y[last]),
		},
	}
}

func seriesRatioNote(label string, num, den float64) string {
	if den <= 0 {
		return label + ": n/a"
	}
	return label + ": " + formatF(num/den) + "x"
}
