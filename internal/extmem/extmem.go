// Package extmem is the out-of-core backing store for the COLA spill
// layer: a block-granular, file-backed level store with a small page
// cache whose LRU mirrors internal/dam's resident-table semantics —
// except that here a "transfer" is a real pread/pwrite of an aligned
// chunk, not a simulated charge. The pair of counters (ChunkReads /
// ChunkWrites, symmetric to core.TransferCounter's predicted stream)
// is what lets the harness put the DAM model's prediction and the
// measured I/O side by side (DESIGN.md E15).
//
// Layout: a Level is the occupied window of one COLA level, stored as
// fixed 32-byte cells (core.ElementBytes — the paper's padded element)
// packed into ChunkBytes-aligned chunks; the final chunk is padded to
// full size on commit so every read is a whole aligned chunk and any
// short read is a structural error, never silently-zero cells.
//
// Access pattern contract (the one the paper's analysis exploits):
//   - Random reads (Search/Range probes) go through the page cache:
//     ReadCell/ReadCells look each aligned chunk up once, a miss reads
//     the chunk into the page it evicts and caches it, a hit costs no
//     I/O. The cache is one lock-striped structure used identically
//     inside and outside shared-read epochs: whoever misses, fills.
//   - Sequential passes (the merge ladder, pointer distribution,
//     snapshot serialization) use Reader/LevelWriter, which move a run
//     of runChunks chunks per pread/pwrite through buffers the Store
//     owns and recycles — counted chunk by chunk whatever the run
//     length, but deliberately NOT cached, so a single big merge cannot
//     evict the read path's working set (scan resistance; levels are
//     written once and never updated in place, so there is no
//     dirty/writeback state at all).
//
// Concurrency: like dam.Store, a Store is single-threaded for
// everything that changes which levels exist (NewLevelWriter, Commit,
// RemoveLevel, DropCache, Close). A Begin/EndSharedReads bracket
// excludes those writers — they panic inside one — and nothing else:
// any number of goroutines may then call ReadCell, ReadCells and
// Reader.Next concurrently, and their misses populate the cache exactly
// as an exclusive reader's would.
package extmem

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// CellBytes is the on-disk size of one cell: the paper's 32-byte padded
// element (key, value, two 32-bit pointers, kind, padding). It matches
// core.ElementBytes so chunk geometry lines up with DAM block geometry.
const CellBytes = 32

// DefaultChunkBytes matches dam.DefaultBlockBytes so predicted and
// actual transfer counts are in the same unit by default.
const DefaultChunkBytes = 4096

// MinCacheChunks is the smallest page-cache budget Open accepts; below
// this even a single binary search thrashes pathologically and the
// "small pinned cache" stops being a cache at all.
const MinCacheChunks = 4

// ErrShortRead is the sentinel wrapped by every torn- or short-read
// failure: a chunk read that returned fewer bytes than the aligned
// chunk size. errors.Is(err, ErrShortRead) matches; the concrete
// *ReadError carries the file, chunk, and byte counts.
var ErrShortRead = errors.New("extmem: short chunk read")

// ReadError is the typed failure for a chunk read that did not return a
// whole aligned chunk (torn file, truncation, or an underlying I/O
// error). Got < Want with a nil Err is a short read and matches
// ErrShortRead; otherwise Err is the underlying pread failure.
type ReadError struct {
	Path  string
	Chunk int
	Got   int
	Want  int
	Err   error
}

func (e *ReadError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("extmem: read chunk %d of %s: %v", e.Chunk, e.Path, e.Err)
	}
	return fmt.Sprintf("extmem: short read of chunk %d of %s: %d of %d bytes (torn or truncated spill file)",
		e.Chunk, e.Path, e.Got, e.Want)
}

// Unwrap lets errors.Is see through to the underlying failure, or to
// the ErrShortRead sentinel for torn reads.
func (e *ReadError) Unwrap() error {
	if e.Err != nil {
		return e.Err
	}
	return ErrShortRead
}

// Config parameterizes Open.
type Config struct {
	// Dir is the parent directory; the store creates (and on Close
	// removes) a private subdirectory under it, so concurrent stores
	// can share a spill directory without filename coordination.
	Dir string
	// ChunkBytes is the aligned I/O unit; 0 means DefaultChunkBytes.
	// Must be a positive multiple of CellBytes.
	ChunkBytes int
	// CacheBytes is the page-cache budget; the chunk count is
	// CacheBytes/ChunkBytes, floored at MinCacheChunks.
	CacheBytes int64
}

// runChunks is how many consecutive chunks a Reader or LevelWriter moves
// per pread/pwrite: 64 KiB at the default chunk size, past which a
// sequential pass is no longer syscall-bound. maxFreeRuns caps the idle
// run buffers a store keeps, so it never owns more than 1 MiB of them.
const (
	runChunks   = 16
	maxFreeRuns = 16
)

// setWays is the target number of pages per cache set. A set is both
// the associativity unit (a chunk may live only in the set its key
// hashes to, found by scanning the set's tags) and the lock stripe, so
// the stripe count follows from the chunk budget. Budgets below two
// sets' worth get a single fully-associative set, i.e. exact LRU.
const setWays = 16

// page is one cache slot. gen 0 marks it free (level generations start
// at 1); busy marks it claimed by a reader that is filling buf outside
// the set lock — neither findable nor evictable until published.
type page struct {
	gen   uint64
	chunk int
	stamp uint64 // set-local recency: larger is more recent, 0 is never used
	busy  bool
	buf   []byte // chunkBytes, allocated on first fill and then recycled
}

// cacheSet is one lock stripe of the page cache: a fixed group of pages
// with LRU replacement by stamp. Everything in it is guarded by mu,
// except the bytes of a busy page's buffer, which belong to the reader
// filling it.
type cacheSet struct {
	mu    sync.Mutex
	freed sync.Cond // signalled when a busy page is published or released
	tick  uint64
	hits  uint64 // lookups served from a resident page
	reads uint64 // lookups that pread their chunk
	pages []page
	_     [16]byte // keep neighbouring sets' locks off one cache line
}

// Store is one spill store: a directory of level files plus the shared
// page cache and I/O counters.
type Store struct {
	dir           string
	chunkBytes    int
	cellsPerChunk int
	capacity      int // page-cache budget in chunks

	// sets partitions the capacity pages; its length is a power of two
	// and setShift maps a 64-bit key hash onto it. Fixed after Open.
	sets     []cacheSet
	setShift uint

	levels  map[int]*Level
	nextGen uint64

	// writes is plain because mutation is single-threaded (the dam.Store
	// convention); seqReads counts Reader traffic, which may run inside
	// an epoch.
	writes   uint64
	seqReads atomic.Uint64

	// sharedDepth counts open shared-read brackets; while it is positive
	// every mutating entry point panics.
	sharedDepth atomic.Int64

	// freeRuns holds idle run buffers (Readers open and close in epochs).
	freeRuns chan []byte
}

// Level is the file-backed occupied window of one COLA level: Cells()
// fixed-size cells, chunk-aligned and padded, written once by a
// LevelWriter and immutable thereafter.
type Level struct {
	s      *Store
	gen    uint64 // never reused: the page cache keys on it
	f      *os.File
	path   string
	cells  int
	chunks int
}

// Open creates a store rooted in a fresh private subdirectory of
// cfg.Dir.
func Open(cfg Config) (*Store, error) {
	chunk := cfg.ChunkBytes
	if chunk == 0 {
		chunk = DefaultChunkBytes
	}
	if chunk < CellBytes || chunk%CellBytes != 0 {
		return nil, fmt.Errorf("extmem: chunk size %d is not a positive multiple of the %d-byte cell", chunk, CellBytes)
	}
	capacity := int(cfg.CacheBytes / int64(chunk))
	if capacity < MinCacheChunks {
		capacity = MinCacheChunks
	}
	dir, err := os.MkdirTemp(cfg.Dir, "extmem-*")
	if err != nil {
		return nil, fmt.Errorf("extmem: create spill directory: %w", err)
	}
	s := &Store{
		dir:           dir,
		chunkBytes:    chunk,
		cellsPerChunk: chunk / CellBytes,
		capacity:      capacity,
		levels:        make(map[int]*Level),
		freeRuns:      make(chan []byte, maxFreeRuns),
	}
	// The largest power-of-two set count that leaves every set at least
	// setWays pages; the capacity pages are dealt out as evenly as they
	// divide, so the resident total can never exceed the budget.
	bits := uint(0)
	for capacity>>(bits+1) >= setWays {
		bits++
	}
	s.setShift = 64 - bits
	s.sets = make([]cacheSet, 1<<bits)
	pages := make([]page, capacity)
	for i := range s.sets {
		n := (capacity + i) >> bits
		s.sets[i].pages, pages = pages[:n:n], pages[n:]
		s.sets[i].freed.L = &s.sets[i].mu
	}
	return s, nil
}

// Dir returns the store's private spill directory.
func (s *Store) Dir() string { return s.dir }

// ChunkBytes returns the aligned I/O unit.
func (s *Store) ChunkBytes() int { return s.chunkBytes }

// CacheChunks returns the page-cache budget in chunks.
func (s *Store) CacheChunks() int { return s.capacity }

// Close closes every level file and removes the spill directory. The
// store is unusable afterwards.
func (s *Store) Close() error {
	var first error
	for _, l := range s.levels {
		if err := l.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.levels = map[int]*Level{}
	s.sets = nil
	if err := os.RemoveAll(s.dir); err != nil && first == nil {
		first = err
	}
	return first
}

// cacheCounts sums the per-set lookup counters.
func (s *Store) cacheCounts() (hits, reads uint64) {
	for i := range s.sets {
		st := &s.sets[i]
		st.mu.Lock()
		hits += st.hits
		reads += st.reads
		st.mu.Unlock()
	}
	return hits, reads
}

// getRun hands out a run buffer, idle or new; putRun takes it back, or
// drops it when maxFreeRuns are idle already.
func (s *Store) getRun() []byte {
	select {
	case buf := <-s.freeRuns:
		return buf
	default:
		return make([]byte, runChunks*s.chunkBytes)
	}
}

func (s *Store) putRun(buf []byte) {
	select {
	case s.freeRuns <- buf:
	default:
	}
}

// ChunkReads reports aligned chunk reads performed so far (cache misses
// plus sequential reader traffic; shared-epoch misses included).
func (s *Store) ChunkReads() uint64 {
	_, reads := s.cacheCounts()
	return reads + s.seqReads.Load()
}

// ChunkWrites reports aligned chunk writes performed so far (all from
// LevelWriter streams; levels are never updated in place).
func (s *Store) ChunkWrites() uint64 { return s.writes }

// CacheHits reports page-cache hits (shared-epoch hits included).
func (s *Store) CacheHits() uint64 {
	hits, _ := s.cacheCounts()
	return hits
}

// ResetCounters zeroes the I/O counters; resident pages and files are
// untouched (the dam.Store convention).
func (s *Store) ResetCounters() {
	for i := range s.sets {
		st := &s.sets[i]
		st.mu.Lock()
		st.hits, st.reads = 0, 0
		st.mu.Unlock()
	}
	s.writes = 0
	s.seqReads.Store(0)
}

// DropCache empties the page cache without touching counters or files,
// so a measurement can start cold. Page buffers are kept for reuse.
func (s *Store) DropCache() {
	if s.sharedDepth.Load() != 0 {
		panic("extmem: DropCache during a shared-read epoch")
	}
	for i := range s.sets {
		st := &s.sets[i]
		st.mu.Lock()
		for j := range st.pages {
			st.pages[j].gen, st.pages[j].stamp = 0, 0
		}
		st.mu.Unlock()
	}
}

// BeginSharedReads opens a concurrent-read epoch: until the matching
// End, any number of goroutines may call ReadCell / ReadCells /
// Reader.Next concurrently, through the same page cache and with the
// same fill-on-miss behaviour as outside an epoch. What the bracket
// excludes is writers: NewLevelWriter, RemoveLevel and DropCache panic
// while one is open. Brackets nest.
func (s *Store) BeginSharedReads() {
	if s == nil {
		return
	}
	s.sharedDepth.Add(1)
}

// EndSharedReads closes the bracket opened by BeginSharedReads.
func (s *Store) EndSharedReads() {
	if s == nil {
		return
	}
	if s.sharedDepth.Add(-1) < 0 {
		panic("extmem: EndSharedReads without BeginSharedReads")
	}
}

// FileStats reports the number of spill files currently on disk and
// their total size in bytes — the harness's "did it actually spill"
// evidence.
func (s *Store) FileStats() (files int, bytes int64, err error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, 0, err
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, 0, err
		}
		files++
		bytes += info.Size()
	}
	return files, bytes, nil
}

// Cells reports the number of cells stored in the level.
func (l *Level) Cells() int { return l.cells }

// ReadCell copies cell i into dst (len CellBytes) through the page
// cache: the actual-I/O analogue of one DAM-charged probe. Out-of-range
// indices panic (a structural bug, like slice bounds); I/O failures
// return the typed *ReadError.
func (l *Level) ReadCell(i int, dst []byte) error {
	if len(dst) != CellBytes {
		panic("extmem: ReadCell destination must be exactly one cell")
	}
	return l.ReadCells(i, 1, dst)
}

// ReadCells copies cells [i, i+n) into dst (len n*CellBytes) through
// the page cache with one lookup per aligned chunk the range touches —
// so a search window of a few dozen cells costs one lookup, two when it
// straddles a chunk boundary. Panics and errors as ReadCell.
func (l *Level) ReadCells(i, n int, dst []byte) error {
	if i < 0 || n < 0 || i+n > l.cells {
		panic(fmt.Sprintf("extmem: cells [%d, %d) out of range [0, %d)", i, i+n, l.cells))
	}
	if len(dst) != n*CellBytes {
		panic("extmem: ReadCells destination must be exactly n cells")
	}
	per := l.s.cellsPerChunk
	for n > 0 {
		chunk, at := i/per, i%per
		take := per - at
		if take > n {
			take = n
		}
		if err := l.s.copyFromChunk(l, chunk, at*CellBytes, dst[:take*CellBytes]); err != nil {
			return err
		}
		dst = dst[take*CellBytes:]
		i += take
		n -= take
	}
	return nil
}

// copyFromChunk is the one page-cache code path: copy len(dst) bytes at
// byte offset off of the level's given chunk, from the resident page on
// a hit, else from the least recently used page of the chunk's set
// after reading the chunk into it. The pread runs outside the set lock,
// into the evicted page's own buffer (claimed as busy meanwhile), so a
// miss stalls nobody else and steady state allocates nothing. Two
// readers missing the same chunk at once both read it — both preads are
// counted — and the second to finish leaves its page free instead of
// caching a duplicate.
func (s *Store) copyFromChunk(l *Level, chunk, off int, dst []byte) error {
	h := (l.gen*0x9E3779B97F4A7C15 ^ uint64(chunk)) * 0xBF58476D1CE4E5B9
	st := &s.sets[h>>s.setShift] // a shift by 64 (one set) yields 0

	st.mu.Lock()
	var fill *page
	for {
		if p := st.find(l.gen, chunk); p != nil {
			st.touch(p)
			st.hits++
			copy(dst, p.buf[off:])
			st.mu.Unlock()
			return nil
		}
		if fill = st.lru(); fill != nil {
			break
		}
		// Every page of the set is mid-fill by some other reader.
		st.freed.Wait()
	}
	fill.gen, fill.busy = 0, true
	if fill.buf == nil {
		fill.buf = make([]byte, s.chunkBytes)
	}
	st.mu.Unlock()

	_, err := l.readRun(chunk, fill.buf)
	if err == nil {
		copy(dst, fill.buf[off:])
	}

	st.mu.Lock()
	fill.busy, fill.stamp = false, 0
	if err == nil {
		st.reads++
		if st.find(l.gen, chunk) == nil {
			fill.gen, fill.chunk = l.gen, chunk
			st.touch(fill)
		}
	}
	st.freed.Broadcast()
	st.mu.Unlock()
	return err
}

// find returns the resident page holding the chunk, or nil.
func (st *cacheSet) find(gen uint64, chunk int) *page {
	for i := range st.pages {
		if p := &st.pages[i]; p.gen == gen && p.chunk == chunk {
			return p
		}
	}
	return nil
}

// touch makes p the set's most recently used page.
func (st *cacheSet) touch(p *page) {
	st.tick++
	p.stamp = st.tick
}

// lru returns the page to fill next: a free one if any (stamp 0), else
// the least recently used; nil when every page is busy. Pages are never
// dirty — levels are written once by LevelWriter streams — so eviction
// never writes back.
func (st *cacheSet) lru() *page {
	var best *page
	for i := range st.pages {
		if p := &st.pages[i]; !p.busy && (best == nil || p.stamp < best.stamp) {
			best = p
		}
	}
	return best
}

// readRun preads as many whole aligned chunks as buf holds (and the level
// has), starting at chunk first, and reports how many arrived whole. A
// read that ends early still delivers the chunks ahead of the break; it
// fails when the first chunk is the one not wholly read, so the typed
// error names that chunk with its own byte counts, never the run's.
func (l *Level) readRun(first int, buf []byte) (int, error) {
	want := l.s.chunkBytes
	n := min(len(buf)/want, l.chunks-first)
	got, err := l.f.ReadAt(buf[:n*want], int64(first)*int64(want))
	if got >= want {
		return got / want, nil
	}
	if err == io.EOF {
		err = nil
	}
	return 0, &ReadError{Path: l.path, Chunk: first, Got: got, Want: want, Err: err}
}

// RemoveLevel deletes the named level's file; a level id with no file
// is a no-op. Its cached pages need no sweep: they are keyed by the
// level's generation, which is never issued again, so they are
// unreachable from now on and age out of their sets like any page no
// one touches. Panics during a shared-read epoch.
func (s *Store) RemoveLevel(id int) error {
	if s.sharedDepth.Load() != 0 {
		panic("extmem: RemoveLevel during a shared-read epoch")
	}
	l, ok := s.levels[id]
	if !ok {
		return nil
	}
	delete(s.levels, id)
	err := l.f.Close()
	if rerr := os.Remove(l.path); err == nil {
		err = rerr
	}
	return err
}

// Reader streams a level's cells sequentially through one of the
// store's run buffers: one pread per run of chunks, every chunk counted,
// nothing cached (see the package comment). Close gives the buffer back.
type Reader struct {
	l        *Level
	next     int    // next cell index
	end      int    // cells from here on are never read: the level's size unless Limit lowered it
	buf      []byte // chunks [first, first+n) of the level
	first, n int
}

// NewReader returns a sequential reader positioned at cell start.
func (l *Level) NewReader(start int) *Reader {
	if start < 0 || start > l.cells {
		panic(fmt.Sprintf("extmem: reader start %d out of range [0, %d]", start, l.cells))
	}
	return &Reader{l: l, next: start, end: l.cells, buf: l.s.getRun()}
}

// Limit ends the pass n cells from here instead of at the end of the
// level, so that a run read stops at the chunk holding the last of them.
func (r *Reader) Limit(n int) {
	if n < 0 || n > r.Remaining() {
		panic(fmt.Sprintf("extmem: Reader.Limit(%d) with %d cells remaining", n, r.Remaining()))
	}
	r.end = r.next + n
}

// Close releases the run buffer; the reader and its slabs must not be
// used afterwards. Closing twice is harmless.
func (r *Reader) Close() {
	if r.buf != nil {
		r.l.s.putRun(r.buf)
		r.buf = nil
	}
}

// Remaining reports how many cells are left to read.
func (r *Reader) Remaining() int { return r.end - r.next }

// Skip advances past the next n cells without copying them; chunks of
// runs not yet read that are skipped whole are never read.
func (r *Reader) Skip(n int) {
	if n < 0 || n > r.Remaining() {
		panic(fmt.Sprintf("extmem: Reader.Skip(%d) with %d cells remaining", n, r.Remaining()))
	}
	r.next += n
}

// NextSlab returns the next 1 to max cells in place — a view of the run
// buffer, valid until the next call — and advances past them, reading the
// run that starts at their chunk when it is not buffered. Calling at the
// end of the pass panics; the caller tracks Remaining.
func (r *Reader) NextSlab(max int) ([]byte, error) {
	if max < 1 || r.Remaining() == 0 {
		panic("extmem: Reader.NextSlab past the end of the level")
	}
	per := r.l.s.cellsPerChunk
	if chunk := r.next / per; chunk < r.first || chunk >= r.first+r.n {
		n, err := r.l.readRun(chunk, r.buf[:min(len(r.buf), ((r.end-1)/per-chunk+1)*r.l.s.chunkBytes)])
		if err != nil {
			return nil, err
		}
		r.first, r.n = chunk, n
		r.l.s.seqReads.Add(uint64(n))
	}
	take := min(max, (r.first+r.n)*per-r.next, r.Remaining())
	off := (r.next - r.first*per) * CellBytes
	r.next += take
	return r.buf[off : off+take*CellBytes], nil
}

// Next copies the next len(dst)/CellBytes cells into dst (a whole number
// of cells) and advances past them. Calling past the end panics.
func (r *Reader) Next(dst []byte) error {
	if len(dst) == 0 || len(dst)%CellBytes != 0 {
		panic("extmem: Reader.Next destination must be a whole number of cells")
	}
	if len(dst)/CellBytes > r.Remaining() {
		panic("extmem: Reader.Next past the end of the level")
	}
	for len(dst) > 0 {
		slab, err := r.NextSlab(len(dst) / CellBytes)
		if err != nil {
			return err
		}
		dst = dst[copy(dst, slab):]
	}
	return nil
}

// LevelWriter streams a new image of one level: cells are appended in
// order, buffered into a run of whole chunks (a buffer of the store's),
// and written with one aligned pwrite per run to a temp file that Commit
// atomically renames into place (replacing and invalidating any previous
// image of the level). Levels are only ever produced this way — a
// complete sequential rewrite — which is exactly the COLA merge
// discipline the paper's analysis charges for.
type LevelWriter struct {
	s     *Store
	id    int
	gen   uint64
	f     *os.File
	tmp   string
	buf   []byte
	fill  int // bytes buffered in buf
	cells int
	chunk int // next chunk index to write
	done  bool
}

// NewLevelWriter starts a replacement image for level id. Panics during
// a shared-read epoch (writes are excluded by the bracket contract).
func (s *Store) NewLevelWriter(id int) (*LevelWriter, error) {
	if s.sharedDepth.Load() != 0 {
		panic("extmem: NewLevelWriter during a shared-read epoch")
	}
	s.nextGen++
	gen := s.nextGen
	tmp := filepath.Join(s.dir, fmt.Sprintf("lvl%03d.g%06d.tmp", id, gen))
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("extmem: create level %d image: %w", id, err)
	}
	return &LevelWriter{s: s, id: id, gen: gen, f: f, tmp: tmp, buf: s.getRun()}, nil
}

// Room returns the unfilled tail of the run buffer, at least one cell
// long, for whole cells to be encoded straight into and reported by Fill.
func (w *LevelWriter) Room() []byte {
	if w.done {
		panic("extmem: Append after Commit/Abort")
	}
	return w.buf[w.fill:]
}

// Fill adds the n cells just packed into Room, writing a full run out.
func (w *LevelWriter) Fill(n int) error {
	w.fill += n * CellBytes
	w.cells += n
	if w.fill == len(w.buf) {
		return w.flushRun()
	}
	return nil
}

// Append adds len(cells)/CellBytes cells (a whole number of them) to the
// image.
func (w *LevelWriter) Append(cells []byte) error {
	if len(cells) == 0 || len(cells)%CellBytes != 0 {
		panic("extmem: Append takes a whole number of cells")
	}
	for len(cells) > 0 {
		n := copy(w.Room(), cells)
		cells = cells[n:]
		if err := w.Fill(n / CellBytes); err != nil {
			return err
		}
	}
	return nil
}

func (w *LevelWriter) flushRun() error {
	if w.fill == 0 {
		return nil
	}
	// Pad the final partial chunk so every chunk on disk is whole and
	// aligned; a shorter-than-chunk read is then always a torn file.
	chunks := (w.fill + w.s.chunkBytes - 1) / w.s.chunkBytes
	run := w.buf[:chunks*w.s.chunkBytes]
	clear(run[w.fill:])
	if _, err := w.f.WriteAt(run, int64(w.chunk)*int64(w.s.chunkBytes)); err != nil {
		return fmt.Errorf("extmem: write chunk %d of level %d: %w", w.chunk, w.id, err)
	}
	w.s.writes += uint64(chunks)
	w.chunk += chunks
	w.fill = 0
	return nil
}

// Commit pads and flushes the final chunk, renames the image into
// place, and installs it as the level's current file (closing and
// deleting the previous image, whose cached pages become unreachable
// with its generation — see RemoveLevel). The returned Level is
// immutable.
func (w *LevelWriter) Commit() (*Level, error) {
	if w.done {
		panic("extmem: Commit after Commit/Abort")
	}
	w.done = true
	err := w.flushRun()
	w.s.putRun(w.buf)
	w.buf = nil
	if err != nil {
		w.discard()
		return nil, err
	}
	// Reopen read-only under the final name. Spill files are ephemeral
	// per-instance scratch (durability is the snapshot/WAL subsystem's
	// job), so no fsync: a crash loses only a structure that was
	// already gone.
	if err := w.f.Close(); err != nil {
		w.discard()
		return nil, fmt.Errorf("extmem: close level %d image: %w", w.id, err)
	}
	final := w.tmp[:len(w.tmp)-len(".tmp")] + ".ext"
	if err := os.Rename(w.tmp, final); err != nil {
		os.Remove(w.tmp)
		return nil, fmt.Errorf("extmem: install level %d image: %w", w.id, err)
	}
	f, err := os.Open(final)
	if err != nil {
		os.Remove(final)
		return nil, fmt.Errorf("extmem: reopen level %d image: %w", w.id, err)
	}
	if old, ok := w.s.levels[w.id]; ok {
		//repro:allow durerr old read-only image teardown; its data was fully superseded by the committed rename
		old.f.Close()
		os.Remove(old.path)
	}
	l := &Level{s: w.s, gen: w.gen, f: f, path: final, cells: w.cells, chunks: w.chunk}
	w.s.levels[w.id] = l
	return l, nil
}

// Abort discards the image without installing it.
func (w *LevelWriter) Abort() {
	if w.done {
		return
	}
	w.done = true
	w.s.putRun(w.buf)
	w.buf = nil
	w.discard()
}

func (w *LevelWriter) discard() {
	//repro:allow durerr teardown of an image that is being thrown away; nothing durable depends on it
	w.f.Close()
	os.Remove(w.tmp)
}
