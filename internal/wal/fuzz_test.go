package wal

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// FuzzReplay opens arbitrary bytes as a log. Damage anywhere ends
// replay at the last intact record, so Open must neither panic nor
// fail, and the log it returns must append on a record boundary: one
// more insert replays as exactly one more record.
func FuzzReplay(f *testing.F) {
	path := filepath.Join(f.TempDir(), "seed.wal")
	w, _, err := Open(path, newMapHandler())
	if err != nil {
		f.Fatal(err)
	}
	w.AppendInsert([]core.Element{{Key: 1, Value: 10}, {Key: 2, Value: 20}})
	w.AppendDelete([]uint64{1})
	mustClose(f, w)
	intact, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	badCRC := append([]byte(nil), intact...)
	badCRC[4] ^= 0xFF
	f.Add([]byte{})
	f.Add(intact)
	f.Add(intact[:len(intact)-3])
	f.Add(badCRC)
	f.Add(mkBadOpRecord())
	f.Add(mkOversizedHeader())

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		w, before, err := Open(path, newMapHandler())
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if err := w.AppendInsert([]core.Element{{Key: 7, Value: 70}}); err != nil {
			t.Fatalf("AppendInsert: %v", err)
		}
		mustClose(t, w)
		h := newMapHandler()
		w, after, err := Open(path, h)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer mustClose(t, w)
		if after != before+1 {
			t.Fatalf("replayed %d records, then %d after one append", before, after)
		}
		if v, ok := h.m[7]; !ok || v != 70 {
			t.Fatalf("appended insert replayed as (%d, %v)", v, ok)
		}
	})
}
