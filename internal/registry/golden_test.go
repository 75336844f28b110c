package registry

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/cola"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/workload"
)

// goldenContainerSHA256 is the SHA-256 of the container Save writes for
// fillGolden(24000) over a default gcola, as produced by the buffering
// container and cell-at-a-time codec this stack replaced (commit
// 2bca396). Container version 1 is frozen: the streaming writer must
// emit the same bytes.
const goldenContainerSHA256 = "c7526dba3e4e6d0262d942327f9c77ea74f342cd3c5d208498c70e378985ce30"

// parentCheckpoint is a durable gcola's checkpoint file holding
// fillGolden(700), written by commit 2bca396.
const parentCheckpoint = "testdata/gcola-2bca396.wal.ckpt"

// fillGolden drives a fixed operation sequence (the one behind
// internal/cola's payload golden): n unique random keys, then deletes
// of every 37th and overwrites of every 41st.
func fillGolden(t testing.TB, d core.Dictionary, n int) []uint64 {
	t.Helper()
	keys := workload.Take(workload.NewRandomUnique(20070609), n)
	for _, k := range keys {
		d.Insert(k, k^0xC01A)
	}
	for i := 0; i < len(keys); i += 37 {
		if !d.(core.Deleter).Delete(keys[i]) {
			t.Fatalf("Delete(%d) found nothing", keys[i])
		}
	}
	for i := 1; i < len(keys); i += 41 {
		d.Insert(keys[i], uint64(i))
	}
	return keys
}

// checkGolden verifies d holds exactly what fillGolden left.
func checkGolden(t *testing.T, d core.Dictionary, keys []uint64) {
	t.Helper()
	for i, k := range keys {
		v, ok := d.Search(k)
		switch {
		case i%41 == 1: // overwrites came after the deletes
			if !ok || v != uint64(i) {
				t.Fatalf("Search(%d) = (%d, %v), want the overwrite %d", k, v, ok, i)
			}
		case i%37 == 0:
			if ok {
				t.Fatalf("deleted key %d is back with value %d", k, v)
			}
		default:
			if !ok || v != k^0xC01A {
				t.Fatalf("Search(%d) = (%d, %v)", k, v, ok)
			}
		}
	}
}

// TestContainerGoldenBytes pins the container bytes end to end: a file
// (length back-patched) and a bytes.Buffer (staged) receive the same
// container, and it hashes to what the previous writer produced.
func TestContainerGoldenBytes(t *testing.T) {
	d, err := Build("gcola")
	if err != nil {
		t.Fatal(err)
	}
	fillGolden(t, d, 24000)

	var buf bytes.Buffer
	if err := Save(&buf, "gcola", d); err != nil {
		t.Fatalf("Save to a buffer: %v", err)
	}
	path := filepath.Join(t.TempDir(), "golden.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := Save(f, "gcola", d); err != nil {
		t.Fatalf("Save to a file: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, buf.Bytes()) {
		t.Fatalf("file holds %d bytes, buffer %d, and they differ", len(onDisk), buf.Len())
	}
	sum := sha256.Sum256(onDisk)
	if got := hex.EncodeToString(sum[:]); got != goldenContainerSHA256 {
		t.Fatalf("container SHA-256 = %s (%d bytes), golden %s", got, len(onDisk), goldenContainerSHA256)
	}
}

// TestParentCheckpointInterop loads a checkpoint the previous commit
// wrote and saves it again: the decoder must restore it exactly and the
// encoder must reproduce it byte for byte — so the previous commit
// reads what this one writes, too. It then opens the same file as a
// durable dictionary's checkpoint. (That is a separate step because
// opening compacts the structure, so a checkpoint taken afterwards
// holds a different, equivalent layout.)
func TestParentCheckpointInterop(t *testing.T) {
	want, err := os.ReadFile(parentCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	keys := workload.Take(workload.NewRandomUnique(20070609), 700)

	d, err := Load(bytes.NewReader(want))
	if err != nil {
		t.Fatalf("loading the previous commit's checkpoint: %v", err)
	}
	checkGolden(t, d, keys)
	var got bytes.Buffer
	if err := Save(&got, "gcola", d); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("re-saved checkpoint (%d bytes) differs from the previous commit's (%d bytes)", got.Len(), len(want))
	}

	wal := filepath.Join(t.TempDir(), "g.wal")
	if err := os.WriteFile(wal+".ckpt", want, 0o644); err != nil {
		t.Fatal(err)
	}
	dd, err := Build("durable", WithWALPath(wal))
	if err != nil {
		t.Fatalf("opening the previous commit's checkpoint: %v", err)
	}
	defer dd.(*durable.Dict).Close()
	checkGolden(t, dd, keys)
}

// TestSaveToFileHoldsNoPayloadCopy pins the checkpoint memory contract:
// saving to a file allocates a small constant — the header, a CRC
// writer — whatever the structure's size, because the payload streams
// to the file instead of being collected first. (The previous writer
// allocated about twice the payload: 60 MiB for the larger case here.)
func TestSaveToFileHoldsNoPayloadCopy(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a million-key structure")
	}
	dir := t.TempDir()
	for _, n := range []int{1 << 16, 1 << 20} {
		d, err := Build("gcola")
		if err != nil {
			t.Fatal(err)
		}
		seq := workload.NewRandomUnique(14)
		elems := make([]core.Element, n)
		for i := range elems {
			k := seq.Next()
			elems[i] = core.Element{Key: k, Value: k}
		}
		d.(*cola.GCOLA).BulkLoad(elems)
		f, err := os.Create(filepath.Join(dir, "big.snap"))
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err = Save(f, "gcola", d)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("Save: %v", err)
		}
		info, err := f.Stat()
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if info.Size() < int64(n)*25 {
			t.Fatalf("saved %d keys in %d bytes", n, info.Size())
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("saving %d keys (%d MiB) to a file allocated %d KiB, want under 1 MiB at any size",
				n, info.Size()>>20, grew>>10)
		}
	}
}
