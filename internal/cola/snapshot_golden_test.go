package cola

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/workload"
)

// goldenPayloadSHA256 is the SHA-256 of goldenStructure's snapshot
// payload as written by the cell-at-a-time codec this one replaced
// (commit 2bca396). The payload format is version 1 and frozen: a
// change here means old checkpoints no longer match new ones.
const goldenPayloadSHA256 = "3730103d5ba0e8c85ea26ba58b9f788bbdba1b324ef7e2b56e6726c80e846473"

// fillGolden drives the fixed operation sequence behind the golden
// hashes: unique random keys, then deletes of every 37th (tombstones)
// and overwrites of every 41st. It leaves levels 2 and 3 empty, level
// 12 shorter than one codec slab (4096 cells), level 13 two slabs and a
// part long, and the deepest, level 14, exactly four slabs long behind
// 1638 free cells.
func fillGolden(c *GCOLA) []uint64 {
	keys := workload.Take(workload.NewRandomUnique(20070609), 24000)
	for _, k := range keys {
		c.Insert(k, k^0xC01A)
	}
	for i := 0; i < len(keys); i += 37 {
		c.Delete(keys[i])
	}
	for i := 1; i < len(keys); i += 41 {
		c.Insert(keys[i], uint64(i))
	}
	return keys
}

// TestSnapshotGoldenBytes pins the payload bytes: a RAM structure and
// its spilled twin emit the same stream, it has the shapes the codec
// must get right (lookahead cells, tombstones, empty levels between
// occupied ones, levels shorter than, longer than and a whole number of
// slabs), and it hashes to what the previous codec wrote.
func TestSnapshotGoldenBytes(t *testing.T) {
	ram := New(Options{Growth: 2, PointerDensity: DefaultPointerDensity})
	sp := openSpilled(t, Options{Growth: 2, PointerDensity: DefaultPointerDensity})
	fillGolden(ram)
	fillGolden(sp)

	var lookahead, tombstones int
	for l := range ram.levels {
		lv := &ram.levels[l]
		lookahead += lv.la
		for i := lv.start; i < lv.cells; i++ {
			if ram.cellAt(l, i).kind == kindTombstone {
				tombstones++
			}
		}
	}
	if lookahead == 0 || tombstones == 0 {
		t.Fatalf("fixture lost its shape: %d lookahead cells, %d tombstones", lookahead, tombstones)
	}
	for l, want := range map[int]int{2: 0, 3: 0, 12: 401, 13: 8839, 14: 16384} {
		if got := ram.levels[l].used(); got != want {
			t.Fatalf("fixture lost its shape: level %d holds %d cells, want %d", l, got, want)
		}
	}
	if files, _, _ := sp.SpillFileStats(); files == 0 {
		t.Fatal("the spilled twin spilled nothing")
	}

	var ramBuf, spBuf bytes.Buffer
	if _, err := ram.WriteTo(&ramBuf); err != nil {
		t.Fatalf("ram WriteTo: %v", err)
	}
	if n, err := sp.WriteTo(&spBuf); err != nil || n != int64(spBuf.Len()) {
		t.Fatalf("spilled WriteTo = (%d, %v), wrote %d bytes", n, err, spBuf.Len())
	}
	if !bytes.Equal(ramBuf.Bytes(), spBuf.Bytes()) {
		t.Fatal("RAM and spilled twins emit different bytes")
	}
	sum := sha256.Sum256(ramBuf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != goldenPayloadSHA256 {
		t.Fatalf("payload SHA-256 = %s (%d bytes), golden %s", got, ramBuf.Len(), goldenPayloadSHA256)
	}
}
