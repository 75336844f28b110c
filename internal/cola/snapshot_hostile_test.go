package cola

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"
)

// slabEdge is the codec's slab length in cells, spelled out because the
// expected messages below depend on it: they are what the cell-at-a-time
// codec this one replaced (commit 2bca396) reported for these inputs,
// captured by running this table against it.
const slabEdge = 4096

// goldenPayload is fillGolden's snapshot.
func goldenPayload(t testing.TB) []byte {
	t.Helper()
	c := New(Options{Growth: 2, PointerDensity: DefaultPointerDensity})
	fillGolden(c)
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// levelAt reports where level l's header starts in a payload and how
// many cells follow it.
func levelAt(data []byte, l int) (off, used int) {
	off = headerBytes
	for i := 0; ; i++ {
		used = int(binary.LittleEndian.Uint32(data[off+4:]))
		if i == l {
			return off, used
		}
		off += 8 + used*entryBytes
	}
}

// hostileCase is one damaged payload and the rejection it must draw.
type hostileCase struct {
	name   string
	mutate func(data []byte) []byte
	want   string // the whole error message
}

// hostileSlabEdgeCases damage goldenPayload where slab-at-a-time
// parsing could differ from cell-at-a-time parsing: cuts inside a cell,
// inside a slab and exactly between slabs, and bad cells in the first
// and last position of a slab — including one ahead of a cut in the
// same slab, which must still be reported as itself.
func hostileSlabEdgeCases(data []byte) []hostileCase {
	off13, _ := levelAt(data, 13)
	off14, used14 := levelAt(data, 14)
	cell := func(levelOff, i int) int { return levelOff + 8 + i*entryBytes }
	cut := func(at int) func([]byte) []byte {
		return func(b []byte) []byte { return b[:at] }
	}
	poke := func(at int, f func(c []byte)) func([]byte) []byte {
		return func(b []byte) []byte { f(b[at : at+entryBytes]); return b }
	}
	badKind := func(c []byte) { c[24] = 17 }
	zeroKey := func(c []byte) { binary.LittleEndian.PutUint64(c[0:8], 0) }
	farPtr := func(c []byte) {
		c[24] = kindLookahead
		binary.LittleEndian.PutUint32(c[16:20], math.MaxInt32)
	}
	farLeft := func(c []byte) { binary.LittleEndian.PutUint32(c[20:24], math.MaxInt32) }
	first, last := slabEdge, 2*slabEdge-1 // of level 13's second slab
	both := func(fs ...func([]byte) []byte) func([]byte) []byte {
		return func(b []byte) []byte {
			for _, f := range fs {
				b = f(b)
			}
			return b
		}
	}
	return []hostileCase{
		{"cut mid-cell", cut(cell(off13, 10) + 7), "cola: snapshot truncated at byte 36744"},
		{"cut mid-cell in the second slab", cut(cell(off13, first+100) + 24), "cola: snapshot truncated at byte 141394"},
		{"cut mid-slab on a cell boundary", cut(cell(off13, first+100)), "cola: snapshot truncated at byte 141394"},
		{"cut on a slab boundary", cut(cell(off13, first)), "cola: snapshot truncated at byte 138894"},
		{"cut after a level's last whole slab", cut(cell(off13, 2*slabEdge)), "cola: snapshot truncated at byte 241294"},
		{"cut inside a level header", cut(off14 + 4), "cola: snapshot truncated at byte 257473"},
		{"bad kind, first cell of a slab", poke(cell(off13, first), badKind), "cola: level 13 entry kind 17"},
		{"bad kind, last cell of a slab", poke(cell(off13, last), badKind), "cola: level 13 entry kind 17"},
		{"bad kind, last cell of the stream", poke(cell(off14, used14-1), badKind), "cola: level 14 entry kind 17"},
		{"key order, first cell of a slab", poke(cell(off13, first), zeroKey), "cola: level 13 not in key order at cell 4268"},
		{"key order, last cell of a slab", poke(cell(off13, last), zeroKey), "cola: level 13 not in key order at cell 8363"},
		{"lookahead pointer, first cell of a slab", poke(cell(off13, first), farPtr), "cola: level 13 lookahead pointer 2147483647 outside next level capacity 18022"},
		{"lookahead pointer, last cell of a slab", poke(cell(off13, last), farPtr), "cola: level 13 lookahead pointer 2147483647 outside next level capacity 18022"},
		{"left pointer, first cell of a slab", poke(cell(off13, first), farLeft), "cola: level 13 left pointer 2147483647 outside next level capacity 18022"},
		{"left pointer, last cell of a slab", poke(cell(off13, last), farLeft), "cola: level 13 left pointer 2147483647 outside next level capacity 18022"},
		{"left pointer in the deepest level", poke(cell(off14, 0), func(c []byte) {
			binary.LittleEndian.PutUint32(c[20:24], 0)
		}), "cola: level 14 left pointer 0 outside next level capacity 0"},
		{"bad cell ahead of a cut in the same slab",
			both(poke(cell(off13, first+3), badKind), cut(cell(off13, first+9)+5)), "cola: level 13 entry kind 17"},
		{"used one cell more than the stream holds", func(b []byte) []byte {
			start := binary.LittleEndian.Uint32(b[off14:])
			binary.LittleEndian.PutUint32(b[off14:], start-1)
			binary.LittleEndian.PutUint32(b[off14+4:], uint32(used14+1))
			return b
		}, "cola: snapshot truncated at byte 667077"},
	}
}

// TestSnapshotHostileSlabEdges feeds each damaged payload to a RAM and
// to a spilled receiver and requires the previous codec's verdict, an
// untouched and still usable receiver, and no spill files left behind.
func TestSnapshotHostileSlabEdges(t *testing.T) {
	if slabEdge != slabCells {
		t.Fatalf("the table is laid out for %d-cell slabs, the codec uses %d: move the cases and recapture the messages", slabEdge, slabCells)
	}
	data := goldenPayload(t)
	for _, hc := range hostileSlabEdgeCases(data) {
		bad := hc.mutate(append([]byte(nil), data...))
		for _, home := range []string{"ram", "spilled"} {
			t.Run(hc.name+"/"+home, func(t *testing.T) {
				var c *GCOLA
				if home == "ram" {
					c = New(Options{Growth: 2, PointerDensity: DefaultPointerDensity})
				} else {
					c = openSpilled(t, Options{Growth: 2, PointerDensity: DefaultPointerDensity})
				}
				_, err := c.ReadFrom(bytes.NewReader(bad))
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("got %v, want ErrCorrupt", err)
				}
				if got := strings.TrimSuffix(err.Error(), ": "+ErrCorrupt.Error()); got != hc.want {
					t.Errorf("rejected with %q, the cell-at-a-time codec said %q", got, hc.want)
				}
				if c.Len() != 0 || len(c.levels) != 0 {
					t.Fatalf("failed ReadFrom mutated the receiver: Len=%d levels=%d", c.Len(), len(c.levels))
				}
				if files, _, _ := c.SpillFileStats(); files != 0 {
					t.Fatalf("failed ReadFrom left %d spill files behind", files)
				}
				c.Insert(42, 1)
				if v, ok := c.Search(42); !ok || v != 1 {
					t.Fatal("receiver unusable after a failed ReadFrom")
				}
				c.checkInvariants()
			})
		}
	}
}

// FuzzReadFrom mutates payloads — seeded with the intact golden one and
// every slab-edge case above — and requires ReadFrom to answer with a
// clean load or a typed error, never a panic, and to leave a failed
// receiver empty and usable. A payload that loads re-encodes to the
// bytes it was read from: the format is canonical for what it accepts.
func FuzzReadFrom(f *testing.F) {
	data := goldenPayload(f)
	f.Add(data)
	for _, hc := range hostileSlabEdgeCases(data) {
		f.Add(hc.mutate(append([]byte(nil), data...)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// An empty level costs the stream 8 bytes and the decoder the
		// level's whole array, which maxSnapshotLevelCells bounds by
		// design; a fuzz worker should not spend its time zeroing them.
		if len(data) >= headerBytes && binary.LittleEndian.Uint32(data[headerBytes-4:]) > 16 {
			t.Skip()
		}
		c := New(Options{Growth: 2, PointerDensity: DefaultPointerDensity})
		n, err := c.ReadFrom(bytes.NewReader(data))
		if err != nil {
			typed := errors.Is(err, ErrBadMagic) || errors.Is(err, ErrBadVersion) || errors.Is(err, ErrCorrupt)
			if !typed && !strings.Contains(err.Error(), "structure configured with") {
				t.Fatalf("untyped decode error: %v", err)
			}
			if c.Len() != 0 || len(c.levels) != 0 {
				t.Fatalf("failed ReadFrom mutated the receiver: Len=%d levels=%d", c.Len(), len(c.levels))
			}
			c.Insert(42, 1)
			if v, ok := c.Search(42); !ok || v != 1 {
				t.Fatal("receiver unusable after a failed ReadFrom")
			}
			return
		}
		var buf bytes.Buffer
		if _, err := c.WriteTo(&buf); err != nil {
			t.Fatalf("re-encoding an accepted payload: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data[:n]) {
			t.Fatal("an accepted payload does not re-encode to itself")
		}
	})
}
