package extmem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// openTest returns a store in a test temp dir with a tiny cache.
func openTest(t testing.TB, cacheChunks int) *Store {
	t.Helper()
	s, err := Open(Config{Dir: t.TempDir(), ChunkBytes: 128, CacheBytes: int64(cacheChunks) * 128})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return s
}

// writeLevel streams n cells into level id; cell i holds i in its first
// word.
func writeLevel(t testing.TB, s *Store, id, n int) *Level {
	t.Helper()
	return writeLevelFrom(t, s, id, n, 0)
}

// writeLevelFrom is writeLevel with cell i holding first+i.
func writeLevelFrom(t testing.TB, s *Store, id, n int, first uint64) *Level {
	t.Helper()
	w, err := s.NewLevelWriter(id)
	if err != nil {
		t.Fatalf("NewLevelWriter: %v", err)
	}
	var cell [CellBytes]byte
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(cell[:8], first+uint64(i))
		if err := w.Append(cell[:]); err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
	}
	l, err := w.Commit()
	if err != nil {
		t.Fatalf("Commit: %v", err)
	}
	return l
}

func cellValue(t testing.TB, l *Level, i int) uint64 {
	t.Helper()
	var cell [CellBytes]byte
	if err := l.ReadCell(i, cell[:]); err != nil {
		t.Fatalf("ReadCell(%d): %v", i, err)
	}
	return binary.LittleEndian.Uint64(cell[:8])
}

func TestWriteReadRoundTrip(t *testing.T) {
	s := openTest(t, 4)
	// 37 cells of 32 bytes in 128-byte chunks: 4 cells per chunk, a
	// padded final chunk.
	l := writeLevel(t, s, 1, 37)
	if l.Cells() != 37 {
		t.Fatalf("Cells = %d, want 37", l.Cells())
	}
	for i := 0; i < 37; i++ {
		if got := cellValue(t, l, i); got != uint64(i) {
			t.Fatalf("cell %d = %d", i, got)
		}
	}
	if s.ChunkWrites() != 10 { // ceil(37/4)
		t.Fatalf("ChunkWrites = %d, want 10", s.ChunkWrites())
	}
	// A sequential reader sees the same cells, one read per chunk.
	r := l.NewReader(0)
	reads0 := s.ChunkReads()
	var cell [CellBytes]byte
	for i := 0; i < 37; i++ {
		if err := r.Next(cell[:]); err != nil {
			t.Fatalf("Next(%d): %v", i, err)
		}
		if got := binary.LittleEndian.Uint64(cell[:8]); got != uint64(i) {
			t.Fatalf("reader cell %d = %d", i, got)
		}
	}
	if r.Remaining() != 0 {
		t.Fatalf("Remaining = %d", r.Remaining())
	}
	if got := s.ChunkReads() - reads0; got != 10 {
		t.Fatalf("sequential pass read %d chunks, want 10", got)
	}
}

func TestPageCacheLRU(t *testing.T) {
	s := openTest(t, 4)
	l := writeLevel(t, s, 0, 64) // 16 chunks of 4 cells
	s.ResetCounters()

	// Touch chunks 0..3: four misses fill the cache.
	for c := 0; c < 4; c++ {
		cellValue(t, l, c*4)
	}
	if s.ChunkReads() != 4 || s.CacheHits() != 0 {
		t.Fatalf("after fill: reads=%d hits=%d", s.ChunkReads(), s.CacheHits())
	}
	// Re-touching them is free.
	for c := 0; c < 4; c++ {
		cellValue(t, l, c*4+1)
	}
	if s.ChunkReads() != 4 || s.CacheHits() != 4 {
		t.Fatalf("after re-touch: reads=%d hits=%d", s.ChunkReads(), s.CacheHits())
	}
	// Chunk 4 evicts the LRU chunk (0); chunk 1 is still resident,
	// chunk 0 misses again.
	cellValue(t, l, 16)
	cellValue(t, l, 4) // hit
	cellValue(t, l, 0) // miss
	if s.ChunkReads() != 6 || s.CacheHits() != 5 {
		t.Fatalf("after eviction: reads=%d hits=%d", s.ChunkReads(), s.CacheHits())
	}
}

func TestShortReadSurfacesTypedError(t *testing.T) {
	s := openTest(t, 4)
	l := writeLevel(t, s, 2, 16)
	// Tear the file: truncate to half a chunk.
	if err := os.Truncate(l.path, int64(s.ChunkBytes())/2); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	var cell [CellBytes]byte
	err := l.ReadCell(8, cell[:]) // chunk 2, past the torn end
	if err == nil {
		t.Fatal("torn read returned nil error (silent zero block)")
	}
	if !errors.Is(err, ErrShortRead) {
		t.Fatalf("torn read error %v does not match ErrShortRead", err)
	}
	var re *ReadError
	if !errors.As(err, &re) {
		t.Fatalf("torn read error %T is not *ReadError", err)
	}
	if re.Chunk != 2 || re.Got != 0 || re.Want != s.ChunkBytes() {
		t.Fatalf("ReadError = %+v", re)
	}
	// The torn FIRST chunk reads short, not zero-filled.
	err = l.ReadCell(0, cell[:])
	if !errors.Is(err, ErrShortRead) {
		t.Fatalf("partial chunk read error %v does not match ErrShortRead", err)
	}
	var re2 *ReadError
	if !errors.As(err, &re2) || re2.Got != s.ChunkBytes()/2 {
		t.Fatalf("partial chunk ReadError = %v", err)
	}
	// Sequential readers surface the same typed failure.
	r := l.NewReader(0)
	if err := r.Next(cell[:]); !errors.Is(err, ErrShortRead) {
		t.Fatalf("reader over torn file: %v", err)
	}
}

func TestCommitReplacesAndInvalidates(t *testing.T) {
	s := openTest(t, 8)
	l1 := writeLevel(t, s, 5, 8)
	if got := cellValue(t, l1, 3); got != 3 {
		t.Fatalf("cell 3 = %d", got)
	}
	// Replace the level with a new image holding different values.
	w, err := s.NewLevelWriter(5)
	if err != nil {
		t.Fatalf("NewLevelWriter: %v", err)
	}
	var cell [CellBytes]byte
	for i := 0; i < 8; i++ {
		binary.LittleEndian.PutUint64(cell[:8], uint64(100+i))
		if err := w.Append(cell[:]); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	l2, err := w.Commit()
	if err != nil {
		t.Fatalf("Commit: %v", err)
	}
	// Stale pages of the old image must not serve the new level.
	if got := cellValue(t, l2, 3); got != 103 {
		t.Fatalf("replaced cell 3 = %d, want 103", got)
	}
	// Exactly one file remains for the level.
	files, bytes, err := s.FileStats()
	if err != nil {
		t.Fatalf("FileStats: %v", err)
	}
	if files != 1 || bytes != int64(2*s.ChunkBytes()) {
		t.Fatalf("FileStats = %d files, %d bytes", files, bytes)
	}
}

func TestRemoveLevel(t *testing.T) {
	s := openTest(t, 8)
	writeLevel(t, s, 1, 8)
	writeLevel(t, s, 2, 8)
	if err := s.RemoveLevel(1); err != nil {
		t.Fatalf("RemoveLevel: %v", err)
	}
	if err := s.RemoveLevel(9); err != nil { // absent id is a no-op
		t.Fatalf("RemoveLevel(absent): %v", err)
	}
	files, _, err := s.FileStats()
	if err != nil {
		t.Fatalf("FileStats: %v", err)
	}
	if files != 1 {
		t.Fatalf("%d files after RemoveLevel, want 1", files)
	}
}

func TestAbortLeavesNoFile(t *testing.T) {
	s := openTest(t, 4)
	w, err := s.NewLevelWriter(0)
	if err != nil {
		t.Fatalf("NewLevelWriter: %v", err)
	}
	var cell [CellBytes]byte
	if err := w.Append(cell[:]); err != nil {
		t.Fatalf("Append: %v", err)
	}
	w.Abort()
	files, _, err := s.FileStats()
	if err != nil {
		t.Fatalf("FileStats: %v", err)
	}
	if files != 0 {
		t.Fatalf("%d files after Abort, want 0", files)
	}
}

func TestWriteDuringSharedEpochPanics(t *testing.T) {
	s := openTest(t, 4)
	s.BeginSharedReads()
	defer s.EndSharedReads()
	defer func() {
		if recover() == nil {
			t.Fatal("NewLevelWriter inside a shared-read epoch did not panic")
		}
	}()
	s.NewLevelWriter(0) //nolint:errcheck // must panic first
}

func TestUnmatchedEndSharedReadsPanics(t *testing.T) {
	s := openTest(t, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("unmatched EndSharedReads did not panic")
		}
	}()
	s.EndSharedReads()
}

// TestReadCellsSpansChunks checks the range read: every byte right for
// ranges inside one chunk, across boundaries and over the whole level,
// at exactly one cache lookup per chunk touched.
func TestReadCellsSpansChunks(t *testing.T) {
	s := openTest(t, 8)
	const cells = 37 // 4 cells per chunk, a padded final chunk
	l := writeLevel(t, s, 0, cells)
	for _, tc := range []struct{ i, n, lookups int }{
		{0, 0, 0},
		{5, 1, 1},
		{4, 4, 1},  // exactly one chunk
		{3, 2, 2},  // straddles a boundary
		{2, 11, 4}, // several chunks, ragged at both ends
		{36, 1, 1}, // the level's last cell, in the padded chunk
		{0, cells, 10},
		{cells, 0, 0},
	} {
		s.ResetCounters()
		dst := make([]byte, tc.n*CellBytes)
		if err := l.ReadCells(tc.i, tc.n, dst); err != nil {
			t.Fatalf("ReadCells(%d, %d): %v", tc.i, tc.n, err)
		}
		for j := 0; j < tc.n; j++ {
			if got := binary.LittleEndian.Uint64(dst[j*CellBytes:]); got != uint64(tc.i+j) {
				t.Fatalf("ReadCells(%d, %d)[%d] = %d", tc.i, tc.n, j, got)
			}
		}
		if got := int(s.CacheHits() + s.ChunkReads()); got != tc.lookups {
			t.Fatalf("ReadCells(%d, %d) made %d lookups, want %d", tc.i, tc.n, got, tc.lookups)
		}
	}
	for _, bad := range [][2]int{{-1, 1}, {36, 2}, {0, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("ReadCells(%d, %d) out of range did not panic", bad[0], bad[1])
				}
			}()
			l.ReadCells(bad[0], bad[1], nil) //nolint:errcheck // must panic first
		}()
	}
}

// cacheFootprint counts the pages that hold or are receiving a chunk,
// and the page buffers allocated so far.
func (s *Store) cacheFootprint() (resident, buffers int) {
	for i := range s.sets {
		st := &s.sets[i]
		st.mu.Lock()
		for j := range st.pages {
			p := &st.pages[j]
			if p.gen != 0 || p.busy {
				resident++
			}
			if p.buf != nil {
				buffers++
			}
		}
		st.mu.Unlock()
	}
	return resident, buffers
}

// stressInEpoch is TestSharedReadStress's bracketed part.
func stressInEpoch(t *testing.T, s *Store, l *Level, cacheChunks int) {
	cells := l.Cells()
	s.BeginSharedReads()
	defer s.EndSharedReads()
	var lookups atomic.Uint64
	stop := make(chan struct{})
	var watcher sync.WaitGroup
	watcher.Add(1)
	go func() {
		defer watcher.Done()
		for {
			if resident, buffers := s.cacheFootprint(); resident > cacheChunks || buffers > cacheChunks {
				t.Errorf("cache of %d chunks holds %d pages, %d buffers", cacheChunks, resident, buffers)
				return
			}
			select {
			case <-stop:
				return
			default:
				runtime.Gosched()
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			buf := make([]byte, 2*s.cellsPerChunk*CellBytes)
			x := uint64(seed)*2654435761 + 1
			for i := 0; i < 2000; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				idx := int(x>>33) % cells
				n := 1
				if i%3 != 0 { // ReadCells over up to two chunks' worth
					n += int(x>>20) % (2*s.cellsPerChunk - 1)
					if idx+n > cells {
						n = cells - idx
					}
				}
				dst := buf[:n*CellBytes]
				var err error
				if i%3 == 0 {
					err = l.ReadCell(idx, dst)
				} else {
					err = l.ReadCells(idx, n, dst)
				}
				if err != nil {
					t.Errorf("read [%d, %d): %v", idx, idx+n, err)
					return
				}
				for j := 0; j < n; j++ {
					if got := binary.LittleEndian.Uint64(dst[j*CellBytes:]); got != uint64(idx+j) {
						t.Errorf("cell %d = %d during epoch", idx+j, got)
						return
					}
				}
				lookups.Add(uint64((idx+n-1)/s.cellsPerChunk - idx/s.cellsPerChunk + 1))
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	watcher.Wait()
	if got := s.CacheHits() + s.ChunkReads(); got != lookups.Load() {
		t.Fatalf("hits %d + reads %d != %d lookups issued", s.CacheHits(), s.ChunkReads(), lookups.Load())
	}
	if s.ChunkReads() == 0 || s.CacheHits() == 0 {
		t.Fatalf("stress saw reads=%d hits=%d; both paths must run", s.ChunkReads(), s.CacheHits())
	}

	// Still inside the epoch: what misses, fills.
	subset := cacheChunks / 2
	for pass := 0; pass < 2; pass++ {
		if pass == 1 {
			s.ResetCounters()
		}
		for c := 0; c < subset; c++ {
			cellValue(t, l, (7*c+3)*s.cellsPerChunk)
		}
	}
	if s.ChunkReads() != 0 || int(s.CacheHits()) != subset {
		t.Fatalf("re-read of %d chunks inside the epoch: reads=%d hits=%d, want all hits",
			subset, s.ChunkReads(), s.CacheHits())
	}
}

// TestSharedReadStress is the page cache's concurrency contract, under
// -race: goroutines issue random ReadCell/ReadCells inside an epoch over
// a level 16 times the cache. Every byte must be right, the cache may
// never hold more pages than its budget, every lookup is exactly one hit
// or one chunk read, and misses fill the cache although an epoch is open
// — a re-read of a subset half the cache size is all hits. The 4-chunk
// case is a single set with fewer pages than readers, so fills also
// have to wait for a page; the 64-chunk case spreads over four sets.
func TestSharedReadStress(t *testing.T) {
	for _, cacheChunks := range []int{4, 64} {
		s := openTest(t, cacheChunks)
		cells := 16 * cacheChunks * s.cellsPerChunk
		l := writeLevel(t, s, 0, cells)
		s.ResetCounters()

		stressInEpoch(t, s, l, cacheChunks)

		// Replacing or removing the level strands its cached pages: the
		// same cells now miss and come back with the new image's bytes.
		for round := uint64(1); round <= 2; round++ {
			if round == 2 {
				if err := s.RemoveLevel(0); err != nil {
					t.Fatalf("RemoveLevel: %v", err)
				}
			}
			l = writeLevelFrom(t, s, 0, cells/2, round<<32)
			s.ResetCounters()
			for c := 0; c < cacheChunks/2; c++ {
				at := (7*c + 3) * s.cellsPerChunk
				if got := cellValue(t, l, at); got != round<<32+uint64(at) {
					t.Fatalf("cell %d of image %d = %#x", at, round, got)
				}
			}
			if s.CacheHits() != 0 {
				t.Fatalf("new image served %d lookups from the old image's pages", s.CacheHits())
			}
		}
	}
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(Config{Dir: t.TempDir(), ChunkBytes: 100}); err == nil {
		t.Fatal("accepted a chunk size that is not a multiple of the cell size")
	}
	if _, err := Open(Config{Dir: filepath.Join(t.TempDir(), "missing", "deep")}); err == nil {
		t.Fatal("accepted a nonexistent parent directory")
	}
	// A tiny cache budget is floored, not rejected.
	s, err := Open(Config{Dir: t.TempDir(), CacheBytes: 1})
	if err != nil {
		t.Fatalf("Open with tiny cache: %v", err)
	}
	defer func() {
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	if s.CacheChunks() < MinCacheChunks {
		t.Fatalf("CacheChunks = %d, floor is %d", s.CacheChunks(), MinCacheChunks)
	}
	if !strings.HasPrefix(filepath.Base(s.Dir()), "extmem-") {
		t.Fatalf("spill dir %q not namespaced", s.Dir())
	}
}

// openDefault returns a store with the default 4 KiB chunks.
func openDefault(t testing.TB) *Store {
	t.Helper()
	s, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return s
}

// TestSequentialIOCountsChunks pins what ChunkReads and ChunkWrites
// count: chunks, however many of them one pread or pwrite moves. A level
// of k chunks streamed by one Reader adds exactly k reads, whether it is
// read a cell or a slab at a time; an image of c cells adds exactly
// ceil(c/cellsPerChunk) writes.
func TestSequentialIOCountsChunks(t *testing.T) {
	s := openTest(t, 4) // 4 cells per chunk, runs of 16 chunks
	per := s.cellsPerChunk
	for _, cells := range []int{1, per - 1, per, per + 1, runChunks * per, runChunks*per + 1, 3*runChunks*per - 2, 5 * runChunks * per} {
		s.ResetCounters()
		l := writeLevel(t, s, 0, cells)
		chunks := (cells + per - 1) / per
		if got := s.ChunkWrites(); got != uint64(chunks) {
			t.Fatalf("%d cells: %d chunk writes, want %d", cells, got, chunks)
		}
		if info, err := os.Stat(l.path); err != nil || info.Size() != int64(chunks*s.chunkBytes) {
			t.Fatalf("%d cells: image of %v bytes (err %v), want %d whole chunks", cells, info.Size(), err, chunks)
		}
		for _, slab := range []int{1, 3, per, 7 * per, cells} {
			s.ResetCounters()
			r := l.NewReader(0)
			next := uint64(0)
			for r.Remaining() > 0 {
				raw, err := r.NextSlab(slab)
				if err != nil {
					t.Fatalf("NextSlab: %v", err)
				}
				if len(raw) == 0 || len(raw)%CellBytes != 0 || len(raw) > slab*CellBytes {
					t.Fatalf("NextSlab(%d) returned %d bytes", slab, len(raw))
				}
				for ; len(raw) > 0; raw, next = raw[CellBytes:], next+1 {
					if got := binary.LittleEndian.Uint64(raw); got != next {
						t.Fatalf("%d cells by %d: cell %d reads %d", cells, slab, next, got)
					}
				}
			}
			r.Close()
			r.Close() // harmless
			if next != uint64(cells) {
				t.Fatalf("%d cells by %d: reader delivered %d", cells, slab, next)
			}
			if got := s.ChunkReads(); got != uint64(chunks) {
				t.Fatalf("%d cells by %d: %d chunk reads, want %d", cells, slab, got, chunks)
			}
		}
	}
}

// TestReaderSkipAndLimit pins the reads a pass does not make: chunks of
// runs not yet read that Skip passes over whole, and chunks past the
// cell a Limit ends the pass at.
func TestReaderSkipAndLimit(t *testing.T) {
	s := openTest(t, 4)
	per := s.cellsPerChunk
	l := writeLevel(t, s, 0, 5*runChunks*per)
	var cell [CellBytes]byte
	read := func(r *Reader, want int) {
		t.Helper()
		if err := r.Next(cell[:]); err != nil {
			t.Fatalf("Next: %v", err)
		}
		if got := binary.LittleEndian.Uint64(cell[:8]); got != uint64(want) {
			t.Fatalf("read cell %d, want %d", got, want)
		}
	}

	s.ResetCounters()
	r := l.NewReader(0)
	read(r, 0) // the first run: chunks 0..15
	if got := s.ChunkReads(); got != runChunks {
		t.Fatalf("first cell read %d chunks, want one run of %d", got, runChunks)
	}
	r.Skip(runChunks*per - 2) // still inside the run
	read(r, runChunks*per-1)
	if got := s.ChunkReads(); got != runChunks {
		t.Fatalf("skip inside the run read %d chunks more", got-runChunks)
	}
	// Across two run boundaries into the middle of a chunk: the run read
	// next starts at that chunk, and the 2 runs and 3 chunks skipped are
	// never read.
	at := (3*runChunks+3)*per + 1
	r.Skip(at - runChunks*per)
	read(r, at)
	if got := s.ChunkReads(); got != 2*runChunks {
		t.Fatalf("after skipping to cell %d: %d chunk reads, want %d", at, got, 2*runChunks)
	}
	r.Skip(r.Remaining()) // to the end: nothing to read
	if got := s.ChunkReads(); got != 2*runChunks {
		t.Fatalf("skipping to the end read %d chunks more", got-2*runChunks)
	}
	r.Close()

	// A pass limited to the cells of 2.5 chunks reads 3 chunks, not a run.
	s.ResetCounters()
	r = l.NewReader(per)
	r.Limit(2*per + per/2)
	n := 0
	for ; r.Remaining() > 0; n++ {
		read(r, per+n)
	}
	r.Close()
	if n != 2*per+per/2 {
		t.Fatalf("limited pass delivered %d cells", n)
	}
	if got := s.ChunkReads(); got != 3 {
		t.Fatalf("limited pass read %d chunks, want 3", got)
	}
}

// TestRunReadKeepsTypedFailureExact tears a level image at every kind of
// place a run read can break — inside a run, exactly on a chunk
// boundary, inside the last (padded) chunk, at zero bytes — and requires
// the sequential reader to deliver every cell of the chunks that are
// whole and then fail with a *ReadError naming the first chunk that is
// not, with that chunk's own byte counts.
func TestRunReadKeepsTypedFailureExact(t *testing.T) {
	const chunk = 128
	for _, tc := range []struct {
		name      string
		cells     int
		truncate  int64
		failChunk int
		got       int
	}{
		{"mid-run, mid-chunk", 40 * 4, 5*chunk + 40, 5, 40},
		{"mid-run, on a chunk boundary", 40 * 4, 7 * chunk, 7, 0},
		{"in the second run", 40 * 4, (runChunks+2)*chunk + 1, runChunks + 2, 1},
		{"on the run boundary", 40 * 4, runChunks * chunk, runChunks, 0},
		{"in the last, padded chunk", 37, 9*chunk + 32, 9, 32},
		{"to zero bytes", 37, 0, 0, 0},
	} {
		s := openTest(t, 4)
		l := writeLevel(t, s, 0, tc.cells)
		if err := os.Truncate(l.path, tc.truncate); err != nil {
			t.Fatal(err)
		}
		s.ResetCounters()
		r := l.NewReader(0)
		var cell [CellBytes]byte
		n := 0
		var err error
		for ; r.Remaining() > 0; n++ {
			if err = r.Next(cell[:]); err != nil {
				break
			}
			if got := binary.LittleEndian.Uint64(cell[:8]); got != uint64(n) {
				t.Fatalf("%s: cell %d reads %d", tc.name, n, got)
			}
		}
		r.Close()
		if n != tc.failChunk*s.cellsPerChunk {
			t.Fatalf("%s: %d cells delivered before the failure, want the %d of %d whole chunks", tc.name, n, tc.failChunk*s.cellsPerChunk, tc.failChunk)
		}
		var re *ReadError
		if !errors.As(err, &re) || !errors.Is(err, ErrShortRead) {
			t.Fatalf("%s: error %v is not a short *ReadError", tc.name, err)
		}
		if re.Chunk != tc.failChunk || re.Got != tc.got || re.Want != chunk || re.Path != l.path {
			t.Fatalf("%s: ReadError %+v, want chunk %d with %d of %d bytes", tc.name, re, tc.failChunk, tc.got, chunk)
		}
		if got := s.ChunkReads(); got != uint64(tc.failChunk) {
			t.Fatalf("%s: %d chunk reads counted, want the %d that arrived whole", tc.name, got, tc.failChunk)
		}
	}
}

// TestWriteFailureMidRun closes the image file under a LevelWriter: the
// run in the buffer cannot be written, Append says so with the writer's
// usual message, and Abort leaves no file and no level behind.
func TestWriteFailureMidRun(t *testing.T) {
	s := openTest(t, 4)
	old := writeLevel(t, s, 3, 8)
	w, err := s.NewLevelWriter(3)
	if err != nil {
		t.Fatal(err)
	}
	var cell [CellBytes]byte
	per := s.cellsPerChunk
	for i := 0; i < runChunks*per+per; i++ { // one run written, one chunk buffered
		if err := w.Append(cell[:]); err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
	}
	if err := w.f.Close(); err != nil {
		t.Fatal(err)
	}
	writes := s.ChunkWrites()
	for i := 0; err == nil && i < runChunks*per; i++ {
		err = w.Append(cell[:])
	}
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("extmem: write chunk %d of level 3", runChunks)) {
		t.Fatalf("Append over a closed file: %v", err)
	}
	if s.ChunkWrites() != writes {
		t.Fatalf("a failed run write counted %d chunks", s.ChunkWrites()-writes)
	}
	w.Abort()
	names, _ := filepath.Glob(filepath.Join(s.Dir(), "*.tmp"))
	if len(names) != 0 {
		t.Fatalf("Abort left %v behind", names)
	}
	if got := cellValue(t, old, 5); got != 5 || s.levels[3] != old {
		t.Fatalf("the level's previous image did not survive the failed rewrite")
	}
}

// TestRunBuffersAreOwnedAndBounded opens a LevelWriter and a Reader on
// each of ten levels at once — a merge with levels 12 to 21 as sources —
// and requires the store to own under 1 MiB of run buffers then and
// after, to make no new one for the next such merge, and to keep no more
// than maxFreeRuns when more than that were out at once.
func TestRunBuffersAreOwnedAndBounded(t *testing.T) {
	s := openDefault(t)
	var levels []*Level
	for id := 12; id <= 21; id++ {
		levels = append(levels, writeLevel(t, s, id, 300))
	}
	runBytes := runChunks * s.chunkBytes
	open := func(n int) {
		t.Helper()
		w, err := s.NewLevelWriter(40)
		if err != nil {
			t.Fatal(err)
		}
		var readers []*Reader
		for i := 0; i < n; i++ {
			readers = append(readers, levels[i%len(levels)].NewReader(0))
		}
		if len(s.freeRuns) != 0 && n >= maxFreeRuns {
			t.Fatalf("%d run buffers idle with %d in use", len(s.freeRuns), n+1)
		}
		for _, r := range readers {
			r.Close()
		}
		w.Abort()
	}
	open(len(levels))
	if got := len(s.freeRuns) * runBytes; got != 11*runBytes || got > 1<<20 {
		t.Fatalf("store owns %d bytes of run buffers after a ten-source merge", got)
	}
	if avg := testing.AllocsPerRun(10, func() {
		r := levels[0].NewReader(0)
		var cell [CellBytes]byte
		if err := r.Next(cell[:]); err != nil {
			t.Fatal(err)
		}
		r.Close()
	}); avg > 1 { // the Reader itself
		t.Fatalf("a warm sequential pass allocates %.0f times, want only its Reader", avg)
	}
	open(3 * maxFreeRuns)
	if len(s.freeRuns) != maxFreeRuns || maxFreeRuns*runBytes > 1<<20 {
		t.Fatalf("store keeps %d run buffers (%d bytes)", len(s.freeRuns), len(s.freeRuns)*runBytes)
	}
}

// BenchmarkSequentialWrite streams a 32 MiB level image a slab of cells
// at a time, as a merge does.
func BenchmarkSequentialWrite(b *testing.B) {
	s := openDefault(b)
	const cells = 1 << 20
	slab := make([]byte, 256*CellBytes)
	b.SetBytes(cells * CellBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		w, err := s.NewLevelWriter(1)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < cells; i += 256 {
			if err := w.Append(slab); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := w.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSequentialRead streams the same image back a slab at a time.
func BenchmarkSequentialRead(b *testing.B) {
	s := openDefault(b)
	const cells = 1 << 20
	w, err := s.NewLevelWriter(1)
	if err != nil {
		b.Fatal(err)
	}
	slab := make([]byte, 256*CellBytes)
	for i := 0; i < cells; i += 256 {
		if err := w.Append(slab); err != nil {
			b.Fatal(err)
		}
	}
	l, err := w.Commit()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(cells * CellBytes)
	b.ReportAllocs()
	b.ResetTimer()
	var sum byte
	for it := 0; it < b.N; it++ {
		r := l.NewReader(0)
		for r.Remaining() > 0 {
			raw, err := r.NextSlab(256)
			if err != nil {
				b.Fatal(err)
			}
			sum += raw[0]
		}
		r.Close()
	}
	_ = sum
}
