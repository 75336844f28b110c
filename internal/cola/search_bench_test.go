package cola

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dam"
	"repro/internal/workload"
)

// searchBenchKeySpace is the key space of BenchmarkSearch and
// BenchmarkRange: inserts and probes are uniform in it, as in bench/'s
// embedded workload, so about one probe in ten hits at the sizes below.
// searchBenchLadder keys leave seven levels holding reals at g = 2.
const (
	searchBenchKeySpace = 1 << 24
	searchBenchLadder   = 1_750_000
)

// searchSink keeps the compiler from dropping the measured call.
var searchSink uint64

// BenchmarkSearch times Search with uniform keys on the shapes that
// bound its cost: one level of reals under twenty of samples
// (compacted), seven levels holding reals (ladder), every level binary
// searched whole (basic-p0), the ladder charging a DAM store, and the
// ladder with levels 12 and deeper in a spill store whose cache holds
// them all — the spilled kernel's own cost, no I/O. Zero allocations
// on every one.
func BenchmarkSearch(b *testing.B) {
	for _, tc := range []struct {
		name    string
		n       int
		opt     Options
		compact bool
		spill   bool
	}{
		{name: "compacted-2^20", n: 1 << 20, opt: Options{Growth: 2, PointerDensity: DefaultPointerDensity}, compact: true},
		{name: "ladder-1.75M", n: searchBenchLadder, opt: Options{Growth: 2, PointerDensity: DefaultPointerDensity}},
		{name: "basic-p0", n: searchBenchLadder, opt: Options{Growth: 2}},
		{name: "accounted", n: searchBenchLadder, opt: Options{Growth: 2, PointerDensity: DefaultPointerDensity,
			Space: dam.NewStore(4096, 1<<20).Space("bench")}},
		{name: "spilled-hot", n: searchBenchLadder, opt: Options{Growth: 2, PointerDensity: DefaultPointerDensity,
			SpillDepth: 12, SpillCacheBytes: 256 << 20}, spill: true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			opt := tc.opt
			if tc.spill {
				opt.SpillDir = b.TempDir()
			}
			c, err := Open(opt)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			rng := workload.NewRNG(11)
			for i := 0; i < tc.n; i++ {
				k := rng.Uint64() % searchBenchKeySpace
				c.Insert(k, k)
			}
			if tc.compact {
				c.Compact()
			}
			if tc.spill { // fault every chunk in: the measured searches must all hit
				c.Range(0, searchBenchKeySpace, func(core.Element) bool { return true })
			}
			c.ResetSpillCounters()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v, _ := c.Search(rng.Uint64() % searchBenchKeySpace)
				searchSink += v
			}
			if reads, _ := c.ActualTransfers(); reads != 0 {
				b.Fatalf("%d chunk reads while measuring: the cache was meant to hold every level", reads)
			}
		})
	}
}

// BenchmarkRange times 64-key scans at uniform positions over the
// ladder: a cursor positioned by binary search on every occupied level,
// then a k-way merge of their cells.
func BenchmarkRange(b *testing.B) {
	c := New(Options{Growth: 2, PointerDensity: DefaultPointerDensity})
	rng := workload.NewRNG(11)
	for i := 0; i < searchBenchLadder; i++ {
		k := rng.Uint64() % searchBenchKeySpace
		c.Insert(k, k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := rng.Uint64() % (searchBenchKeySpace - 64)
		c.Range(lo, lo+63, func(e core.Element) bool { searchSink += e.Value; return true })
	}
}
