package cola

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/workload"
)

// spilledImagesGolden is the SHA-256 over the spill files (level number,
// then the file's bytes, in level order) that the workload below leaves
// behind. It was generated with the merge this package had before the
// streaming one (the k-way spilled merge of PR 14's tree) and must never
// change: a spill file is the level's cells in the 32-byte disk layout,
// padded with zeros to whole chunks, whatever code wrote it.
const spilledImagesGolden = "92e90123629549ec5e3f003669c9bdef2acc9de0d4416f95ef43d02cc7c6fb19"

// TestSpilledImageGoldenBytes replays a fixed mix of inserts, updates,
// deletes and a final compaction on a spilled structure and compares
// every level image, byte for byte, with what the previous merge wrote.
func TestSpilledImageGoldenBytes(t *testing.T) {
	c := openSpilled(t, Options{Growth: 2, PointerDensity: DefaultPointerDensity})
	seq := workload.NewRandomUnique(23)
	keys := make([]uint64, 0, 6000)
	sum := sha256.New()
	hashImages := func() {
		names, err := filepath.Glob(filepath.Join(c.ext.Dir(), "lvl*.ext"))
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(names) // lvlNNN: level order
		for _, name := range names {
			raw, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(sum, "%s:%d:", filepath.Base(name)[:6], len(raw))
			sum.Write(raw)
		}
	}
	for i := 0; i < 6000; i++ {
		k := seq.Next()
		keys = append(keys, k)
		c.Insert(k, k+1)
		switch i % 97 {
		case 13:
			c.Insert(keys[i/2], 42)
		case 31:
			c.Delete(keys[i/3])
		}
		if i == 2999 {
			hashImages() // mid-stream: several levels occupied, tombstones and lookahead cells on disk
		}
	}
	hashImages()
	c.Compact()
	hashImages()
	if got := hex.EncodeToString(sum.Sum(nil)); got != spilledImagesGolden {
		t.Fatalf("spill images hash to %s, want %s", got, spilledImagesGolden)
	}
}
