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
// expected messages below depend on it: up to the forged pointer slots,
// they are what the cell-at-a-time codec this one replaced (commit
// 2bca396) reported for these inputs, captured by running this table
// against it.
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
// same slab, which must still be reported as itself. The last rows
// forge pointer slots that disagree with the cells around them, each
// in range, so only the derived-slot checks can catch them.
func hostileSlabEdgeCases(data []byte) []hostileCase {
	off13, used13 := levelAt(data, 13)
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
	u32 := func(b []byte) int32 { return int32(binary.LittleEndian.Uint32(b)) }
	put32 := func(b []byte, v int32) { binary.LittleEndian.PutUint32(b, uint32(v)) }
	// find is level 13's first cell at or after i of the given kind.
	find := func(i int, kind uint8) int {
		for data[cell(off13, i)+24] != kind {
			i++
		}
		return i
	}
	// repoint moves level 13's lookahead cell i to pointer p, and the
	// left copies after it with it, so the level stays self-consistent.
	repoint := func(i int, p int32) func([]byte) []byte {
		return func(b []byte) []byte {
			put32(b[cell(off13, i)+16:], p)
			for j := i; j == i || b[cell(off13, j)+24] != kindLookahead; j++ {
				put32(b[cell(off13, j)+20:], p)
			}
			return b
		}
	}
	real13, la13 := find(first+10, kindReal), find(first+10, kindLookahead)
	la13next := find(la13+1, kindLookahead)
	ptr13 := u32(data[cell(off13, la13)+20:])
	start14 := int32(binary.LittleEndian.Uint32(data[off14:]))
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
		{"real cell with a wrong left copy", poke(cell(off13, real13), func(c []byte) {
			put32(c[20:24], u32(c[20:24])+40)
		}), "cola: level 13 cell 4278 left copy 9237, last lookahead pointer 9197"},
		{"lookahead slot differs from its left copy", poke(cell(off13, la13), func(c []byte) {
			put32(c[16:20], u32(c[20:24])+1)
		}), "cola: level 13 lookahead pointer 9219 at cell 4282 differs from its left copy 9218"},
		{"nonzero slot on a real cell", poke(cell(off13, real13), func(c []byte) {
			put32(c[16:20], u32(c[20:24]))
		}), "cola: level 13 cell 4278 of kind 0 has pointer slot 9197"},
		{"decreasing lookahead pointers", repoint(la13next, ptr13-1), "cola: level 13 lookahead pointer 9217 at cell 4298 decreases from 9218"},
		{"lookahead target holds another key", repoint(la13, ptr13+1), "cola: level 13 lookahead pointer 9219 lands on key 8601086355778598235, not its own 8600638956429436403"},
		{"lookahead target below the next level's cells", repoint(find(0, kindLookahead), start14-1), "cola: level 13 lookahead pointer 1637 outside level 14's occupied cells"},
		{"more real cells than the level's real capacity", func(b []byte) []byte {
			for j := range used13 {
				c := b[cell(off13, j):]
				c[24] &^= kindLookahead
				put32(c[16:], 0)
				put32(c[20:], -1)
			}
			return b
		}, "cola: level 13 holds 8839 real cells, capacity 8192"},
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
					t.Errorf("rejected with %q, want %q", got, hc.want)
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
// every slab-edge case above, each into a RAM and a spilled receiver —
// and requires ReadFrom to answer with a clean load or a typed error,
// never a panic, and to leave a failed receiver empty, usable and
// without spill files. A payload that loads passes the structure's
// invariant checker, in either home, and re-encodes to the bytes it was
// read from: the format is canonical for what it accepts, and the
// spilled home, which persists stream cells verbatim, holds nothing
// the checks let through by mistake.
func FuzzReadFrom(f *testing.F) {
	data := goldenPayload(f)
	seeds := [][]byte{data}
	for _, hc := range hostileSlabEdgeCases(data) {
		seeds = append(seeds, hc.mutate(append([]byte(nil), data...)))
	}
	for _, s := range seeds {
		f.Add(s, false)
		f.Add(s, true)
	}
	f.Fuzz(func(t *testing.T, data []byte, spilled bool) {
		// An empty level costs the stream 8 bytes and the decoder the
		// level's whole array, which maxSnapshotLevelCells bounds by
		// design; a fuzz worker should not spend its time zeroing them.
		if len(data) >= headerBytes && binary.LittleEndian.Uint32(data[headerBytes-4:]) > 16 {
			t.Skip()
		}
		opt := Options{Growth: 2, PointerDensity: DefaultPointerDensity}
		var c *GCOLA
		if spilled {
			c = openSpilled(t, opt)
		} else {
			c = New(opt)
		}
		n, err := c.ReadFrom(bytes.NewReader(data))
		if err != nil {
			typed := errors.Is(err, ErrBadMagic) || errors.Is(err, ErrBadVersion) || errors.Is(err, ErrCorrupt)
			if !typed && !strings.Contains(err.Error(), "structure configured with") {
				t.Fatalf("untyped decode error: %v", err)
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
			return
		}
		c.checkInvariants()
		var buf bytes.Buffer
		if _, err := c.WriteTo(&buf); err != nil {
			t.Fatalf("re-encoding an accepted payload: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data[:n]) {
			t.Fatal("an accepted payload does not re-encode to itself")
		}
	})
}
