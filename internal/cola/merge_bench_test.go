package cola

import (
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// randomRuns returns two sorted runs of n real cells each over disjoint
// random keys, so the kernel's select is as unpredictable as it gets.
func randomRuns(n int) (a, b []entry) {
	seq := workload.NewRandomUnique(5)
	keys := workload.Take(seq, 2*n)
	a, b = make([]entry, n), make([]entry, n)
	for i := range a {
		a[i] = entry{key: keys[2*i], val: 1, left: -1}
		b[i] = entry{key: keys[2*i+1], val: 2, left: -1}
	}
	sort.Slice(a, func(i, j int) bool { return a[i].key < a[j].key })
	sort.Slice(b, func(i, j int) bool { return b[i].key < b[j].key })
	return a, b
}

// BenchmarkMergeKernel times the two-run step on random keys: ns per
// output cell, zero allocations.
func BenchmarkMergeKernel(b *testing.B) {
	const n = 1 << 20
	x, y := randomRuns(n)
	out := make([]entry, 2*n)
	b.ReportAllocs()
	b.ResetTimer()
	cells := 0
	for it := 0; it < b.N; it++ {
		o := mergeOut{last: -1}
		i, j, k := mergeCells(out, x, y, uint(dropLookahead), 0, true, true, &o)
		cells += k
		_, _ = i, j
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cells), "ns/cell")
}

// BenchmarkInsert times steady-state inserts of random keys into a
// structure preloaded with 2^20 of them: ram in memory, where an insert
// must not allocate.
func BenchmarkInsert(b *testing.B) {
	b.Run("ram", func(b *testing.B) {
		c := New(Options{Growth: 2, PointerDensity: DefaultPointerDensity})
		seq := workload.NewRandomUnique(3)
		for i := 0; i < 1<<20; i++ {
			k := seq.Next()
			c.Insert(k, k)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := seq.Next()
			c.Insert(k, k)
		}
	})
}

// BenchmarkSpilledIngest times the out-of-core write path end to end:
// 2^20 random keys into an empty structure spilling from level 12 down,
// reported as bytes of elements ingested per second.
func BenchmarkSpilledIngest(b *testing.B) {
	const n = 1 << 20
	b.SetBytes(n * core.ElementBytes)
	b.ReportAllocs()
	for it := 0; it < b.N; it++ {
		c, err := Open(Options{Growth: 2, PointerDensity: DefaultPointerDensity, SpillDir: b.TempDir(), SpillDepth: 12})
		if err != nil {
			b.Fatal(err)
		}
		seq := workload.NewRandomUnique(3)
		for i := 0; i < n; i++ {
			k := seq.Next()
			c.Insert(k, k)
		}
		if err := c.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
