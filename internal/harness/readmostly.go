// Read-mostly throughput scenario (E12 in DESIGN.md): a YCSB-B-style
// 95/5 search/insert mix driven by G goroutines against the two
// concurrency wrappers, each measured twice — with the shared-read fast
// path (Search under the RWMutex read side, bracketed by the DAM
// shared-read epoch) and with the pre-shared-read exclusive-lock
// behaviour, reconstructed by hiding the inner structure's SharedReader
// methods behind an anonymous interface wrapper. The gap between the
// two curves is exactly what reader sharing buys: the exclusive
// variants serialize every search (per shard, or globally), while the
// shared variants scale with cores.
//
// Like E10 this is a wall-clock experiment with DAM accounting off (the
// DAM model has no notion of parallelism), and like E11 it is excluded
// from All() so the committed deterministic-transfer baseline gate
// never sees host-dependent numbers.

package harness

import (
	"repro/internal/core"
	"repro/internal/workload"
)

// driveReadMostly runs workers goroutines over a preloaded dictionary,
// each performing perWorker operations of a 95/5 search/insert mix
// (searches probe the preloaded keyspace, inserts add fresh per-worker
// keys), and returns aggregate searches/second.
func driveReadMostly(d core.Dictionary, workers, perWorker int, preload []uint64, seed uint64) float64 {
	return drive(workers, func(w int) int {
		rng := workload.NewRNG(seed + uint64(w)*977)
		fresh := workload.NewRandomUnique(seed ^ 0xE12 ^ uint64(w)<<32)
		searches := 0
		for range perWorker {
			if rng.Uint64()%20 == 0 { // 5%: insert a fresh key
				k := fresh.Next()
				d.Insert(k, k)
			} else { // 95%: search a preloaded key
				d.Search(preload[int(rng.Uint64()%uint64(len(preload)))])
				searches++
			}
		}
		return searches
	})
}

// ReadMostly is experiment E12: aggregate search throughput of the
// 95/5 mix at 1/2/4/8 goroutines (shards grow with goroutines for the
// sharded pair), shared-read fast path vs exclusive-lock baseline, on
// both the sharded map and the single-lock synchronized wrapper.
func (c Config) ReadMostly() Result {
	c = c.withDefaults()
	n := 1 << c.LogN
	scales := []int{1, 2, 4, 8}

	preload := workload.Take(workload.NewRandomUnique(c.Seed), n)

	contenders := []struct {
		name      string
		sharded   bool
		exclusive bool
	}{
		{"sharded shared srch/s", true, false},
		{"sharded excl srch/s", true, true},
		{"sync shared srch/s", false, false},
		{"sync excl srch/s", false, true},
	}

	series := make([]Series, len(contenders))
	for ci, ct := range contenders {
		series[ci].Name = ct.name
		for _, g := range scales {
			shards := 0 // the single-lock wrapper
			if ct.sharded {
				shards = g
			}
			d := guarded(shards, ct.exclusive)
			for _, k := range preload {
				d.Insert(k, k)
			}
			rate := driveReadMostly(d, g, n/g, preload, c.Seed+31)
			series[ci].X = append(series[ci].X, float64(g))
			series[ci].Y = append(series[ci].Y, rate)
		}
	}

	last := len(scales) - 1
	return Result{
		Title:  "E12 — read-mostly (95/5) throughput: shared-read fast path vs exclusive locks",
		XLabel: "goroutines (= shards for the sharded pair)",
		YLabel: "aggregate searches/second",
		Series: series,
		Notes: []string{
			"Prediction: shared-read curves rise with goroutines (reader sharing within shards and",
			"within the single lock); exclusive curves are bounded by min(shards, cores) and 1 lock.",
			"Ratios need >= 4 idle cores to clear 2x; a 1-core host reports the measured value only.",
			seriesRatioNote("measured 8-way sharded shared/exclusive search speedup", series[0].Y[last], series[1].Y[last]),
			seriesRatioNote("measured 8-way single-lock shared/exclusive search speedup", series[2].Y[last], series[3].Y[last]),
		},
	}
}
