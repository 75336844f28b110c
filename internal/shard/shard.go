// Package shard provides a hash-partitioned concurrent dictionary: N
// independent single-threaded dictionaries (any structure from this
// repository — COLA, deamortized COLA, shuttle tree, B-tree, BRT) each
// behind its own synchronized guard (internal/syncdict), with
// fibonacci-hash key→shard routing. Inserts and searches on different
// shards proceed in parallel, and a level merge inside one shard never
// blocks the others — the multi-core scaling story the single global
// lock of repro.SynchronizedDictionary cannot offer.
//
// Parallelism comes from two sources. Partitioning: with S shards, up
// to S mutations run concurrently. Reader sharing: a shard whose
// structure genuinely supports shared reads serves Search and Range on
// its guard's read side, so any number of searches proceed concurrently
// even within one shard; for inner structures that stay exclusive (the
// deamortized COLAs, an accounted shuttle tree) only the partitioning
// term remains. The lock discipline — which side each operation takes,
// and the release of every lock on panic — is syncdict's.
//
// Construction uses functional options:
//
//	m := shard.New(
//		shard.WithShards(8),
//		shard.WithDictionary(func(i int, sp *dam.Space) core.Dictionary {
//			return cola.NewCOLA(sp)
//		}),
//		shard.WithBatchSize(512),
//	)
//
// By default accounting is disabled (every shard gets a nil Space, pure
// wall-clock behaviour); WithDAM gives each shard its own private Store
// so cost accounting stays race-free, and Transfers reports the sum.
package shard

import (
	"math/bits"
	"runtime"
	"sync"

	"repro/internal/cola"
	"repro/internal/core"
	"repro/internal/dam"
	"repro/internal/syncdict"
)

// Factory builds the dictionary for one shard. The space is the shard's
// private DAM space (nil when accounting is disabled).
type Factory func(shard int, space *dam.Space) core.Dictionary

// config collects the options; zero fields are filled by defaults.
type config struct {
	shards     int
	batchSize  int
	factory    Factory
	blockBytes int64
	cacheBytes int64
	useDAM     bool
}

// Option configures New, in the functional-options style.
type Option func(*config)

// WithShards sets the number of partitions, rounded up as Count
// describes; n <= 0 panics.
func WithShards(n int) Option {
	if n <= 0 {
		panic("shard: WithShards requires n > 0")
	}
	return func(c *config) { c.shards = n }
}

// Count returns the number of partitions New builds for WithShards(n):
// n rounded up to the next power of two, so shard routing stays a
// single multiply-shift. n <= 0 stands for the default, the next power
// of two >= GOMAXPROCS.
func Count(n int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return 1 << bits.Len(uint(n-1))
}

// WithDictionary sets the per-shard dictionary constructor. The default
// builds the 2-COLA.
func WithDictionary(f Factory) Option {
	if f == nil {
		panic("shard: WithDictionary requires a non-nil factory")
	}
	return func(c *config) { c.factory = f }
}

// WithBatchSize sets how many pending elements a Loader accumulates
// before flushing them, grouped per shard, under one lock acquisition
// per touched shard; k <= 0 panics. The default is 256.
func WithBatchSize(k int) Option {
	if k <= 0 {
		panic("shard: WithBatchSize requires k > 0")
	}
	return func(c *config) { c.batchSize = k }
}

// WithDAM enables DAM cost accounting: each shard gets its own Store
// with the given block and cache sizes (so the simulated cache is
// per-shard and accounting never races across shards) and passes a
// Space of it to the factory. Transfers then reports the aggregate.
func WithDAM(blockBytes, cacheBytes int64) Option {
	return func(c *config) {
		c.useDAM = true
		c.blockBytes = blockBytes
		c.cacheBytes = cacheBytes
	}
}

// fibMult is 2^64 / phi, the multiplier of fibonacci hashing; odd, so
// multiplication is a bijection on uint64 and the high bits mix every
// input bit. The same constant drives the repo's workload generators.
const fibMult = 0x9E3779B97F4A7C15

// Map is the sharded concurrent dictionary. It implements
// core.Dictionary, core.Deleter, and core.Statser; every method is safe
// for concurrent use.
type Map struct {
	shards    []*syncdict.Dict
	stores    []*dam.Store // per-shard DAM stores; nil entries unless WithDAM
	shift     uint         // 64 - log2(len(shards))
	batchSize int
	// shared records whether every shard's guard serves shared reads:
	// the answer SharedReads gives for the map as a whole.
	shared bool
}

var (
	_ core.Dictionary       = (*Map)(nil)
	_ core.Deleter          = (*Map)(nil)
	_ core.Statser          = (*Map)(nil)
	_ core.TransferCounter  = (*Map)(nil)
	_ core.BatchInserter    = (*Map)(nil)
	_ core.SharedReader     = (*Map)(nil)
	_ core.SharedReadProber = (*Map)(nil)
	_ core.CapsProber       = (*Map)(nil)
)

// New builds a sharded map from the given options.
func New(opts ...Option) *Map {
	cfg := config{
		batchSize: 256,
		factory:   func(_ int, sp *dam.Space) core.Dictionary { return cola.NewCOLA(sp) },
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	n := Count(cfg.shards)
	m := &Map{
		shards:    make([]*syncdict.Dict, n),
		stores:    make([]*dam.Store, n),
		shift:     uint(64 - bits.TrailingZeros(uint(n))),
		batchSize: cfg.batchSize,
		shared:    true,
	}
	for i := range m.shards {
		var sp *dam.Space
		if cfg.useDAM {
			m.stores[i] = dam.NewStore(cfg.blockBytes, cfg.cacheBytes)
			sp = m.stores[i].Space("shard")
		}
		d := cfg.factory(i, sp)
		if d == nil {
			panic("shard: factory returned a nil dictionary")
		}
		m.shards[i] = syncdict.New(d)
		m.shared = m.shared && m.shards[i].SharedReads()
	}
	return m
}

// shardIdxOf routes a key to its partition by fibonacci hashing: the
// top log2(S) bits of key*fibMult. With one shard the shift is 64 and
// Go defines x >> 64 == 0, so every key lands in shard 0.
func (m *Map) shardIdxOf(key uint64) int {
	return int((key * fibMult) >> m.shift)
}

func (m *Map) shardOf(key uint64) *syncdict.Dict {
	return m.shards[m.shardIdxOf(key)]
}

// NumShards reports the number of partitions.
func (m *Map) NumShards() int { return len(m.shards) }

// InnerAt returns shard i's inner dictionary, for type and capability
// introspection (e.g. verifying a save's claimed inner kind against the
// live map). Callers must not mutate it: the shard's lock is not held.
func (m *Map) InnerAt(i int) core.Dictionary { return m.shards[i].Unwrap() }

// SharedReads implements core.SharedReadProber: true only when every
// shard's structure honestly declared shared-read safety, i.e. when
// Search/Range run on the read side of every shard's guard. The map's
// own methods exist unconditionally, so this — not a type assertion —
// is the authoritative probe, exactly as on the synchronized wrapper;
// the registry's Caps.SharedReads flag for "sharded" means "forwarded
// when the inner kind has it", and this probe is how the built instance
// answers for a concrete (possibly nested) inner.
func (m *Map) SharedReads() bool { return m.shared }

// BeginSharedReads implements core.SharedReader for outer wrappers
// nesting this map: the bracket forwards to every shard's guard
// (brackets nest), which is a no-op for a shard that is not shared-read
// capable.
func (m *Map) BeginSharedReads() {
	for _, s := range m.shards {
		s.BeginSharedReads()
	}
}

// EndSharedReads closes the bracket opened by BeginSharedReads.
func (m *Map) EndSharedReads() {
	for _, s := range m.shards {
		s.EndSharedReads()
	}
}

// Caps implements core.CapsProber: what the map genuinely forwards to
// its per-shard structures — the same honest probe the synchronized and
// durable wrappers expose, so the registry's capability reporting can
// never disagree with what a wrapper actually forwards for a nested
// inner. The per-shard structures are built by one factory, so shard 0
// answers for the interface probes; shared reads require every shard
// (see SharedReads). Snapshot follows the inner (WriteTo errors on a
// non-snapshot inner), and batch is native regardless of the inner:
// ApplyBatch's per-shard grouping is the map's own fast path.
func (m *Map) Caps() core.Caps {
	c := m.shards[0].Caps()
	c.SharedReads = m.shared
	return c
}

// Insert implements core.Dictionary.
func (m *Map) Insert(key, value uint64) { m.shardOf(key).Insert(key, value) }

// Search implements core.Dictionary on the key's shard, on its guard's
// read side when the shard's structure supports shared reads, so
// searches scale with readers even within one shard.
func (m *Map) Search(key uint64) (uint64, bool) { return m.shardOf(key).Search(key) }

// Delete implements core.Deleter, forwarding to the shard's structure
// if it supports deletion and reporting false otherwise.
func (m *Map) Delete(key uint64) bool { return m.shardOf(key).Delete(key) }

// Len implements core.Dictionary: the sum of live keys over all shards.
// Shards are read-locked one at a time, so the total is a consistent
// snapshot only when no writer is concurrent.
func (m *Map) Len() int {
	n := 0
	for _, s := range m.shards {
		n += s.Len()
	}
	return n
}

// Stats implements core.Statser, accumulating the counters of every
// shard whose structure exposes them.
func (m *Map) Stats() core.Stats {
	var total core.Stats
	for _, s := range m.shards {
		total.Add(s.Stats())
	}
	return total
}

// Transfers reports the aggregate DAM block transfers across all
// per-shard stores (zero unless built WithDAM), each read on its
// shard's read side.
//
//repro:readonly
func (m *Map) Transfers() (total uint64) {
	for i, st := range m.stores {
		if st != nil {
			m.shards[i].View(func() { total += st.Transfers() })
		}
	}
	return total
}

// rangeScratch is the reusable buffer set of one Range call: every
// shard's snapshot lands back to back in buf (ends records the
// boundaries), runs and heads serve the k-way merge, and collect is
// the append callback built once so the per-shard Range calls do not
// allocate a closure. Scratches are pooled — Range can run on
// different shards concurrently — and returned with lengths reset;
// capacity is retained, which is what makes steady-state Range
// allocation-free.
type rangeScratch struct {
	buf     []core.Element
	ends    []int
	runs    [][]core.Element
	heads   []mergeHead
	collect func(core.Element) bool
}

var rangePool = sync.Pool{New: func() any {
	sc := &rangeScratch{}
	sc.collect = func(e core.Element) bool {
		sc.buf = append(sc.buf, e)
		return true
	}
	return sc
}}

func (sc *rangeScratch) release() {
	sc.buf = sc.buf[:0]
	sc.ends = sc.ends[:0]
	sc.runs = sc.runs[:0]
	sc.heads = sc.heads[:0]
	rangePool.Put(sc)
}

// Range implements core.Dictionary: fn sees every element with
// lo <= key <= hi in ascending key order, stopping early when fn
// returns false. Keys are hash-partitioned, so a contiguous key range
// spans every shard; Range snapshots each shard's slice of the window
// under that shard's lock and then k-way-merges the (already sorted)
// snapshots. The merge sees each shard at a slightly different instant
// — elements inserted while the snapshot walk is in flight may or may
// not appear, the usual weakly-consistent iteration contract.
//
// Cost: every shard's full slice of [lo, hi] is materialized before
// the first fn call, even if fn stops after one element — returning
// false saves merge work, not snapshot work. Callers probing for a
// single successor should bound hi accordingly.
func (m *Map) Range(lo, hi uint64, fn func(core.Element) bool) {
	sc := rangePool.Get().(*rangeScratch)
	defer sc.release()
	for _, s := range m.shards {
		s.Range(lo, hi, sc.collect)
		sc.ends = append(sc.ends, len(sc.buf))
	}
	// Rebuild the run views only now: collect may have grown (and
	// reallocated) buf, so earlier subslices could point at a stale
	// backing array.
	start := 0
	for _, end := range sc.ends {
		if end > start {
			sc.runs = append(sc.runs, sc.buf[start:end])
		}
		start = end
	}
	for i := range sc.runs {
		sc.heads = append(sc.heads, mergeHead{run: i})
	}
	mergeRuns(sc.runs, sc.heads, fn)
}

// mergeHead is one run's cursor in the k-way-merge heap.
type mergeHead struct {
	run int
	idx int
}

// mergeRuns streams the k sorted runs in ascending key order through a
// binary min-heap of run heads, O(total log k). h must hold one head
// per run (the caller provides it so the heap can live in reused
// scratch).
func mergeRuns(runs [][]core.Element, h []mergeHead, fn func(core.Element) bool) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(runs, h, i)
	}
	for len(h) > 0 {
		top := h[0]
		if !fn(runs[top.run][top.idx]) {
			return
		}
		if top.idx+1 < len(runs[top.run]) {
			h[0].idx++
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDown(runs, h, 0)
	}
}

// siftDown restores the min-heap property of h from index i, ordering
// heads by their run's current key.
func siftDown(runs [][]core.Element, h []mergeHead, i int) {
	headKey := func(x mergeHead) uint64 { return runs[x.run][x.idx].Key }
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(h) && headKey(h[l]) < headKey(h[min]) {
			min = l
		}
		if r < len(h) && headKey(h[r]) < headKey(h[min]) {
			min = r
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// batchScratch holds the counting-sort buffers ApplyBatch reuses:
// counts/offs are per-shard tallies and bucket cursors, buf receives
// the batch regrouped shard-contiguously. Pooled for the same reason
// as rangeScratch — loaders on different goroutines batch
// concurrently.
type batchScratch struct {
	counts []int
	offs   []int
	buf    []core.Element
}

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// ApplyBatch inserts every element, grouping the batch per shard first
// so each touched shard's lock is taken exactly once. Duplicate keys in
// the batch apply in slice order (last write wins), matching a plain
// Insert loop. This is the amortized ingestion path: for a batch of k
// elements over S shards, lock traffic drops from k acquisitions to at
// most S.
//
// Grouping is a two-pass counting sort into a pooled scratch buffer —
// count per shard, prefix-sum, scatter in input order (which keeps the
// within-shard order, preserving last-write-wins) — so steady-state
// batches allocate nothing.
func (m *Map) ApplyBatch(elems []core.Element) {
	if len(elems) == 0 {
		return
	}
	sc := batchPool.Get().(*batchScratch)
	nShards := len(m.shards)
	if cap(sc.counts) < nShards {
		sc.counts = make([]int, nShards)
		sc.offs = make([]int, nShards)
	}
	counts := sc.counts[:nShards]
	offs := sc.offs[:nShards]
	clear(counts)
	for _, e := range elems {
		counts[m.shardIdxOf(e.Key)]++
	}
	sum := 0
	for i, n := range counts {
		offs[i] = sum
		sum += n
	}
	if cap(sc.buf) < len(elems) {
		sc.buf = make([]core.Element, len(elems))
	}
	buf := sc.buf[:len(elems)]
	for _, e := range elems {
		i := m.shardIdxOf(e.Key)
		buf[offs[i]] = e
		offs[i]++
	}
	// After the scatter offs[i] is the end of bucket i; buckets are
	// contiguous, so bucket i starts where bucket i-1 ends. Each group
	// applies through the shard structure's own batch path when it has
	// one — for a durable inner that is what turns a shard's group into
	// ONE write-ahead-log record (one append syscall) instead of one per
	// element, the batch-pipelined acknowledgement path the server rides.
	start := 0
	for i := 0; i < nShards; i++ {
		end := offs[i]
		if end > start {
			m.shards[i].InsertBatch(buf[start:end])
		}
		start = end
	}
	batchPool.Put(sc)
}

// InsertBatch implements core.BatchInserter; it is ApplyBatch under the
// interface's name, so generic batch callers hit the per-shard-grouped
// lock-amortized path.
func (m *Map) InsertBatch(elems []core.Element) { m.ApplyBatch(elems) }

// Loader is the channel-fed asynchronous ingestion path: callers send
// elements on C and a background goroutine folds them into the map in
// per-shard-grouped batches of the map's batch size. Close flushes the
// tail and blocks until everything sent has been applied.
type Loader struct {
	m  *Map
	ch chan core.Element
	wg sync.WaitGroup
}

// NewLoader starts a loader goroutine for the map. The channel buffer
// is one full batch so producers rarely block on the flush.
func (m *Map) NewLoader() *Loader {
	l := &Loader{m: m, ch: make(chan core.Element, m.batchSize)}
	l.wg.Add(1)
	go l.run()
	return l
}

// C is the send side: producers write elements, Close when done.
func (l *Loader) C() chan<- core.Element { return l.ch }

// Close signals end of input and waits for the final flush. It must be
// called exactly once, after all sends have completed.
func (l *Loader) Close() {
	close(l.ch)
	l.wg.Wait()
}

func (l *Loader) run() {
	defer l.wg.Done()
	buf := make([]core.Element, 0, l.m.batchSize)
	for e := range l.ch {
		buf = append(buf, e)
		if len(buf) == l.m.batchSize {
			l.m.ApplyBatch(buf)
			buf = buf[:0]
		}
	}
	l.m.ApplyBatch(buf)
}
