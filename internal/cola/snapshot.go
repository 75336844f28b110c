package cola

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/extmem"
)

// Snapshot format (the GCOLA payload, a little-endian binary stream):
//
//	magic "COLA" | version u32 | growth u32 | density f64-bits u64 |
//	n i64 | levelCount u32 |
//	per level: start u32 | used u32 | used cells (key u64 | val u64 |
//	            ptr i32 | left i32 | kind u8)
//
// Lookahead entries are persisted verbatim, so a restored structure has
// identical layout, occupancy, and search behaviour — including
// transfer-count behaviour under the same DAM store parameters. This is
// the repository's one physical codec; see internal/core/snapshot.go
// for the physical/logical distinction.
const (
	snapshotMagic   = "COLA"
	snapshotVersion = 1
)

// Typed decode failures, aliased from core so errors.Is matches across
// the whole persistence stack (container, payloads, WAL).
var (
	ErrBadMagic   = core.ErrBadMagic
	ErrBadVersion = core.ErrBadVersion
	ErrCorrupt    = core.ErrCorrupt
)

// Decode limits. A level claiming more cells than maxSnapshotLevelCells
// (or a deeper ladder than maxSnapshotLevels) is rejected before any
// allocation. The cell ceiling must cover the largest level a supported
// structure produces: at the harness's -logn ceiling of 2^28 elements
// with growth 2, the top level holds 2^28 real cells plus up to
// 0.5 * 2^28 lookahead cells (the maximum pointer density) — about
// 1.5 * 2^28 = 4.0e8 < 1<<29. WriteTo enforces the same ceiling, so a
// snapshot that saves is always loadable; a forged level count beyond
// it fails before driving the hundreds-of-gigabyte make a deep-ladder
// level would demand. TestSnapshotLevelLimitCoversHarnessEnvelope pins
// the arithmetic.
const (
	maxSnapshotLevels     = 48
	maxSnapshotLevelCells = 1 << 29
)

var _ core.Snapshotter = (*GCOLA)(nil)

// entryBytes is the wire size of one persisted cell; headerBytes that
// of the fixed fields ahead of the first level.
const (
	entryBytes  = 8 + 8 + 4 + 4 + 1
	headerBytes = 4 + 4 + 4 + 8 + 8 + 4
)

// putEntry packs e into b[:entryBytes], the persisted cell layout.
func putEntry(b []byte, e entry) {
	_ = b[entryBytes-1]
	binary.LittleEndian.PutUint64(b[0:8], e.key)
	binary.LittleEndian.PutUint64(b[8:16], e.val)
	binary.LittleEndian.PutUint32(b[16:20], uint32(e.ptr))
	binary.LittleEndian.PutUint32(b[20:24], uint32(e.left))
	b[24] = e.kind
}

// getEntry unpacks b[:entryBytes].
func getEntry(b []byte) entry {
	_ = b[entryBytes-1]
	return entry{
		key:  binary.LittleEndian.Uint64(b[0:8]),
		val:  binary.LittleEndian.Uint64(b[8:16]),
		ptr:  int32(binary.LittleEndian.Uint32(b[16:20])),
		left: int32(binary.LittleEndian.Uint32(b[20:24])),
		kind: b[24],
	}
}

// slabCells is how many cells the codec packs or parses between calls
// on the stream: 100 KiB of wire bytes, so a multi-gigabyte level costs
// one Write (or Read) per slab instead of several calls per cell, and
// small enough to stay cache-resident while it is filled.
const slabCells = 4096

// snapSlab is one codec call's scratch: wire holds stream bytes, raw the
// spilled-image cells they are transcoded from or to. Slabs are pooled,
// so a checkpoint allocates nothing per cell and, warm, nothing at all.
type snapSlab struct {
	wire [slabCells * entryBytes]byte
	raw  [slabCells * extmem.CellBytes]byte
}

var slabPool = sync.Pool{New: func() any { return new(snapSlab) }}

// slabWriter packs a stream into buf and hands it to w a slab at a time.
type slabWriter struct {
	w    io.Writer
	buf  []byte
	fill int   // buf[:fill] is packed and not yet written
	n    int64 // bytes w has accepted
}

// room returns the unpacked tail of the slab, at least need bytes long,
// writing the packed part out first when it is shorter. The caller
// packs into the front of it and advances fill.
func (s *slabWriter) room(need int) ([]byte, error) {
	if len(s.buf)-s.fill < need {
		if err := s.flush(); err != nil {
			return nil, err
		}
	}
	return s.buf[s.fill:], nil
}

func (s *slabWriter) flush() error {
	k, err := s.w.Write(s.buf[:s.fill])
	s.n += int64(k)
	s.fill = 0
	return err
}

// WriteTo serializes the structure: one sequential pass that packs
// cells into a pooled slab and writes each full slab with one call. It
// implements io.WriterTo.
//
//repro:allow damcharge snapshot serialization is a whole-structure sequential pass outside the per-op DAM cost model
func (c *GCOLA) WriteTo(w io.Writer) (int64, error) {
	// Mirror ReadFrom's decode ceilings so anything WriteTo emits is
	// guaranteed loadable: a structure beyond the supported envelope
	// fails the save loudly instead of producing a snapshot every
	// future load rejects as corrupt.
	if len(c.levels) > maxSnapshotLevels {
		return 0, fmt.Errorf("cola: %d levels exceed the snapshot format's %d-level limit", len(c.levels), maxSnapshotLevels)
	}
	for l := range c.levels {
		if c.levels[l].cells > maxSnapshotLevelCells {
			return 0, fmt.Errorf("cola: level %d holds %d cells, beyond the snapshot format's %d-cell limit",
				l, c.levels[l].cells, maxSnapshotLevelCells)
		}
	}
	slab := slabPool.Get().(*snapSlab)
	defer slabPool.Put(slab)
	sw := slabWriter{w: w, buf: slab.wire[:]}

	b := sw.buf[:headerBytes]
	copy(b[0:4], snapshotMagic)
	binary.LittleEndian.PutUint32(b[4:8], snapshotVersion)
	binary.LittleEndian.PutUint32(b[8:12], uint32(c.opt.Growth))
	binary.LittleEndian.PutUint64(b[12:20], math.Float64bits(c.opt.PointerDensity))
	binary.LittleEndian.PutUint64(b[20:28], uint64(c.n))
	binary.LittleEndian.PutUint32(b[28:32], uint32(len(c.levels)))
	sw.fill = headerBytes

	for l := range c.levels {
		lv := &c.levels[l]
		b, err := sw.room(8)
		if err != nil {
			return sw.n, err
		}
		binary.LittleEndian.PutUint32(b[0:4], uint32(lv.start))
		binary.LittleEndian.PutUint32(b[4:8], uint32(lv.used()))
		sw.fill += 8
		if lv.ext != nil {
			// A spilled level serializes straight from its chunk image,
			// one sequential pass, never materialized in RAM. A disk cell
			// is a wire cell plus padding, so transcoding is a copy of
			// each cell's head and the bytes match the RAM path's.
			rd := lv.ext.NewReader(0)
			for rd.Remaining() > 0 {
				if b, err = sw.room(entryBytes); err != nil {
					break
				}
				var raw []byte
				if raw, err = rd.NextSlab(len(b) / entryBytes); err != nil {
					err = fmt.Errorf("cola: level %d spilled snapshot read: %w", l, err)
					break
				}
				sw.fill += len(raw) / extmem.CellBytes * entryBytes
				for ; len(raw) > 0; raw, b = raw[extmem.CellBytes:], b[entryBytes:] {
					copy(b[:entryBytes], raw)
				}
			}
			rd.Close()
			if err != nil {
				return sw.n, err
			}
			continue
		}
		for i := lv.start; i < len(lv.data); {
			if b, err = sw.room(entryBytes); err != nil {
				return sw.n, err
			}
			k := min(len(b)/entryBytes, len(lv.data)-i)
			for _, e := range lv.data[i : i+k] {
				putEntry(b, e)
				b = b[entryBytes:]
			}
			sw.fill += k * entryBytes
			i += k
		}
	}
	err := sw.flush()
	return sw.n, err
}

// slabReader parses a stream through buf: whole fields for the header,
// a slab of cells at a time after it.
type slabReader struct {
	r   io.Reader
	buf []byte
	n   int64 // bytes consumed as whole fields and cells
}

// field reads one size-byte field into the front of buf.
func (s *slabReader) field(size int) ([]byte, error) {
	if _, err := io.ReadFull(s.r, s.buf[:size]); err != nil {
		return nil, s.truncated()
	}
	s.n += int64(size)
	return s.buf[:size], nil
}

func (s *slabReader) u32() (uint32, error) {
	b, err := s.field(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (s *slabReader) u64() (uint64, error) {
	b, err := s.field(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// cells reads want cells into the front of buf and reports how many
// arrived whole. On a short stream that is fewer than want, with the
// truncation error placed at the first incomplete cell: the caller
// still validates the whole ones first, so damage ahead of the cut is
// reported as itself, exactly as cell-at-a-time parsing would.
func (s *slabReader) cells(want int) (int, error) {
	got, err := io.ReadFull(s.r, s.buf[:want*entryBytes])
	whole := got / entryBytes
	s.n += int64(whole * entryBytes)
	if err != nil {
		return whole, s.truncated()
	}
	return whole, nil
}

func (s *slabReader) truncated() error {
	return fmt.Errorf("cola: snapshot truncated at byte %d: %w", s.n, ErrCorrupt)
}

// ReadFrom restores a snapshot into an empty structure created with the
// same Options (growth and pointer density are verified against the
// stream). It implements io.ReaderFrom, and reads exactly the snapshot's
// bytes from r, a slab of cells at a time.
//
// Decoding is defensive: magic, version, level occupancy, entry kinds,
// per-level key order, and lookahead pointer targets are all validated,
// failures are wrapped ErrBadMagic / ErrBadVersion / ErrCorrupt (or a
// plain configuration-mismatch error for a snapshot of a differently
// parameterized structure), and the receiver is mutated only after the
// entire stream has decoded — a failed ReadFrom leaves it empty and
// usable.
//
//repro:allow damcharge snapshot deserialization is a whole-structure sequential pass outside the per-op DAM cost model
func (c *GCOLA) ReadFrom(r io.Reader) (int64, error) {
	for l := range c.levels {
		if !c.levels[l].empty() {
			return 0, errors.New("cola: ReadFrom into a non-empty structure")
		}
	}
	slab := slabPool.Get().(*snapSlab)
	defer slabPool.Put(slab)
	sr := slabReader{r: r, buf: slab.wire[:]}

	magic, err := sr.field(len(snapshotMagic))
	if err != nil {
		return sr.n, err
	}
	if string(magic) != snapshotMagic {
		return sr.n, fmt.Errorf("cola: snapshot magic %q, want %q: %w", magic, snapshotMagic, ErrBadMagic)
	}
	version, err := sr.u32()
	if err != nil {
		return sr.n, err
	}
	if version != snapshotVersion {
		return sr.n, fmt.Errorf("cola: snapshot version %d, this build reads %d: %w",
			version, snapshotVersion, ErrBadVersion)
	}
	growth, err := sr.u32()
	if err != nil {
		return sr.n, err
	}
	if int(growth) != c.opt.Growth {
		return sr.n, fmt.Errorf("cola: snapshot growth %d, structure configured with %d", growth, c.opt.Growth)
	}
	densityBits, err := sr.u64()
	if err != nil {
		return sr.n, err
	}
	if density := math.Float64frombits(densityBits); density != c.opt.PointerDensity {
		return sr.n, fmt.Errorf("cola: snapshot pointer density %v, structure configured with %v",
			density, c.opt.PointerDensity)
	}
	liveBits, err := sr.u64()
	if err != nil {
		return sr.n, err
	}
	live := int64(liveBits)
	levelCount, err := sr.u32()
	if err != nil {
		return sr.n, err
	}
	if levelCount > maxSnapshotLevels {
		return sr.n, fmt.Errorf("cola: snapshot claims %d levels, limit %d: %w",
			levelCount, maxSnapshotLevels, ErrCorrupt)
	}

	// Decode into fresh storage; the receiver is untouched until commit.
	// Spilled levels decode straight into chunk images without ever
	// materializing in RAM; on any failure the deferred cleanup aborts
	// the in-flight writer and removes every image committed so far, so
	// a failed ReadFrom leaves no spill files behind either.
	var (
		pendingWriter *extmem.LevelWriter
		committedIDs  []int
		committedOK   bool
	)
	defer func() {
		if committedOK {
			return
		}
		if pendingWriter != nil {
			pendingWriter.Abort()
		}
		for _, id := range committedIDs {
			_ = c.ext.RemoveLevel(id)
		}
	}()
	levels := make([]level, 0, levelCount)
	offsets := make([]int64, 0, levelCount)
	totalReal := 0
	for l := 0; l < int(levelCount); l++ {
		start, err := sr.u32()
		if err != nil {
			return sr.n, err
		}
		used, err := sr.u32()
		if err != nil {
			return sr.n, err
		}
		capTotal := c.totalCapacity(l)
		if capTotal > maxSnapshotLevelCells {
			return sr.n, fmt.Errorf("cola: level %d capacity %d exceeds decode limit %d: %w",
				l, capTotal, maxSnapshotLevelCells, ErrCorrupt)
		}
		// Validate occupancy BEFORE allocating level storage, so a lying
		// header cannot drive an allocation the stream does not back.
		if int64(start)+int64(used) != int64(capTotal) {
			return sr.n, fmt.Errorf("cola: level %d occupancy %d+%d does not fit capacity %d: %w",
				l, start, used, capTotal, ErrCorrupt)
		}
		lv := level{start: int(start), cells: capTotal}
		spilled := c.spilledLevel(l)
		var ix *chunkIndex
		if !spilled {
			lv.data = make([]entry, capTotal)
		} else if used > 0 {
			w, werr := c.ext.NewLevelWriter(l)
			if werr != nil {
				return sr.n, fmt.Errorf("cola: level %d spill writer during load: %w", l, werr)
			}
			pendingWriter = w
			ix = c.startIndex(&lv)
		}
		// Lookahead entries point into level l+1, whose geometry is
		// deterministic even though it is not decoded yet. The deepest
		// level can carry none (pointers are only distributed into
		// levels with an allocated next level), so its bound is zero and
		// every cell there must have left == -1.
		nextCap := int32(0)
		if l < int(levelCount)-1 {
			nextCap = int32(min(c.totalCapacity(l+1), math.MaxInt32))
		}
		prevKey := uint64(0)
		for i := lv.start; i < lv.cells; {
			got, rerr := sr.cells(min(slabCells, lv.cells-i))
			wire, raw := sr.buf, slab.raw[:]
			for end := i + got; i < end; i, wire = i+1, wire[entryBytes:] {
				e := getEntry(wire)
				if i > lv.start && e.key < prevKey {
					return sr.n, fmt.Errorf("cola: level %d not in key order at cell %d: %w", l, i, ErrCorrupt)
				}
				prevKey = e.key
				switch e.kind {
				case kindLookahead:
					if e.ptr < 0 || e.ptr >= nextCap {
						return sr.n, fmt.Errorf("cola: level %d lookahead pointer %d outside next level capacity %d: %w",
							l, e.ptr, nextCap, ErrCorrupt)
					}
					lv.la++
				case kindReal, kindTombstone:
					lv.real++
				default:
					return sr.n, fmt.Errorf("cola: level %d entry kind %d: %w", l, e.kind, ErrCorrupt)
				}
				if e.left < -1 || e.left >= nextCap {
					return sr.n, fmt.Errorf("cola: level %d left pointer %d outside next level capacity %d: %w",
						l, e.left, nextCap, ErrCorrupt)
				}
				if spilled {
					// The disk cell is the validated wire cell plus padding.
					copy(raw, wire[:entryBytes])
					clear(raw[entryBytes:extmem.CellBytes])
					raw = raw[extmem.CellBytes:]
					if ix != nil {
						ix.add(i-lv.start, e.key, e.kind)
					}
				} else {
					lv.data[i] = e
				}
			}
			if rerr != nil {
				return sr.n, rerr
			}
			if spilled {
				if err := pendingWriter.Append(slab.raw[:got*extmem.CellBytes]); err != nil {
					return sr.n, fmt.Errorf("cola: level %d spill write during load: %w", l, err)
				}
			}
		}
		if pendingWriter != nil {
			img, cerr := pendingWriter.Commit()
			pendingWriter = nil
			if cerr != nil {
				return sr.n, fmt.Errorf("cola: level %d spill commit during load: %w", l, cerr)
			}
			committedIDs = append(committedIDs, l)
			lv.ext = img
			ix.commit()
		}
		totalReal += lv.real
		var off int64
		if l > 0 {
			off = offsets[l-1] + int64(c.totalCapacity(l-1))*core.ElementBytes
		}
		levels = append(levels, lv)
		offsets = append(offsets, off)
	}
	if live < 0 || live > int64(totalReal) {
		return sr.n, fmt.Errorf("cola: snapshot live count %d inconsistent with %d stored entries: %w",
			live, totalReal, ErrCorrupt)
	}

	// Commit: everything validated, swap in atomically.
	c.levels = levels
	c.offsets = offsets
	c.n = int(live)
	committedOK = true
	return sr.n, nil
}
