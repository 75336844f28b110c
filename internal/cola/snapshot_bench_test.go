package cola

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// snapshotBenchKeys sizes the codec benchmarks: about 1.1M cells, 27 MiB
// of payload, most of it in one level hundreds of slabs long.
const snapshotBenchKeys = 1 << 20

// loadedForSnapshot bulk-loads n distinct keys into c.
func loadedForSnapshot(c *GCOLA, n int) *GCOLA {
	seq := workload.NewRandomUnique(14)
	elems := make([]core.Element, n)
	for i := range elems {
		k := seq.Next()
		elems[i] = core.Element{Key: k, Value: k ^ 0xC01A}
	}
	c.BulkLoad(elems)
	return c
}

// snapshotBenchHomes runs fn with a constructor of empty RAM structures
// and one of empty spilled structures; fn closes what it builds (Close
// deletes a spilled structure's level files).
func snapshotBenchHomes(b *testing.B, fn func(b *testing.B, mk func() *GCOLA)) {
	opt := Options{Growth: 2, PointerDensity: DefaultPointerDensity}
	b.Run("ram", func(b *testing.B) {
		fn(b, func() *GCOLA { return New(opt) })
	})
	b.Run("spilled", func(b *testing.B) {
		dir := b.TempDir()
		fn(b, func() *GCOLA {
			o := opt
			o.SpillDir, o.SpillDepth = dir, 3
			c, err := Open(o)
			if err != nil {
				b.Fatal(err)
			}
			return c
		})
	})
}

// BenchmarkSnapshotEncode is WriteTo alone, into a writer that discards:
// the codec's packing rate. The RAM case must not allocate (CI asserts
// it); the spilled case allocates one chunk reader per spilled level.
func BenchmarkSnapshotEncode(b *testing.B) {
	snapshotBenchHomes(b, func(b *testing.B, mk func() *GCOLA) {
		c := loadedForSnapshot(mk(), snapshotBenchKeys)
		defer c.Close()
		n, err := c.WriteTo(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.WriteTo(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSnapshotDecode is ReadFrom alone, from memory into a fresh
// structure each iteration: parsing, validation and the level arrays
// (or spill images) it fills.
func BenchmarkSnapshotDecode(b *testing.B) {
	var payload bytes.Buffer
	src := loadedForSnapshot(New(Options{Growth: 2, PointerDensity: DefaultPointerDensity}), snapshotBenchKeys)
	if _, err := src.WriteTo(&payload); err != nil {
		b.Fatal(err)
	}
	snapshotBenchHomes(b, func(b *testing.B, mk func() *GCOLA) {
		b.SetBytes(int64(payload.Len()))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			c := mk()
			b.StartTimer()
			_, err := c.ReadFrom(bytes.NewReader(payload.Bytes()))
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
			if err := c.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
