package durable

import (
	"path/filepath"
	"testing"

	"repro/internal/cola"
	"repro/internal/core"
	"repro/internal/workload"
)

// TestSteadyStateAllocs pins the durable path at zero allocations once
// warm: the log record is assembled in the log's reused buffer, and the
// closure each mutation hands the guard stays on the stack. The inner
// COLA is pre-sized (2^14+1 keys) so no measured insert reaches a new
// level, as in cola's own insert test.
func TestSteadyStateAllocs(t *testing.T) {
	d := openDict(t, filepath.Join(t.TempDir(), "a.wal"), cola.NewCOLA(nil), 0)
	defer mustClose(t, d)
	seq := workload.NewRandomUnique(3)
	keys := make([]uint64, 1<<14+1)
	for i := range keys {
		keys[i] = seq.Next()
		d.Insert(keys[i], keys[i])
	}
	batch := make([]core.Element, 16)
	i := 0
	for _, tc := range []struct {
		name string
		op   func()
	}{
		{"Insert", func() { k := seq.Next(); d.Insert(k, k) }},
		{"InsertBatch/16", func() {
			for j := range batch {
				k := seq.Next()
				batch[j] = core.Element{Key: k, Value: k}
			}
			d.InsertBatch(batch)
		}},
		{"Delete", func() { d.Delete(keys[i%len(keys)]); i++ }},
		{"Search", func() { d.Search(keys[i%len(keys)]); i++ }},
	} {
		if avg := testing.AllocsPerRun(200, tc.op); avg != 0 {
			t.Errorf("durable %s allocates %.2f allocs/op in steady state, want 0", tc.name, avg)
		}
	}
}
