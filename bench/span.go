package main

// Tracing from outside the program: spanDict is a core.Dictionary that
// forwards every call (and every capability interface) to the
// dictionary it wraps and records one span per call. The benchmark
// places it at each boundary the public constructors allow:
//
//	A  above the shard map        server.New(spanA(map))
//	B  around each shard's dict   shard.WithDictionary factory
//	C  under the durable wrapper  registry kind "bench-span-gcola"
//
// Calls nest synchronously on one goroutine (A calls B calls C), so a
// layer's self time is its spans' time minus its children's.

import (
	"errors"
	"io"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/registry"
)

type spanOp uint8

const (
	opInsert spanOp = iota
	opInsertBatch
	opSearch
	opRange
	opDelete
	opWriteTo
	opReadFrom
	opWindow // the driver's own span: one window round trip
)

// isWrite reports whether the op is an insert-family call, the only
// spans a batch parent can have as children.
func (o spanOp) isWrite() bool { return o == opInsert || o == opInsertBatch }

// span is one recorded call. Times are nanoseconds since the
// recorder's epoch.
type span struct {
	start, end int64
	key        uint64 // first key of the call; bytes written for opWriteTo
	elems      uint32 // elements in the call (1 for single-key ops)
	keyOff     uint32 // opInsertBatch with a key log: offset of the batch's keys
	op         spanOp
	shard      uint8
}

func (s span) dur() int64 { return s.end - s.start }

// recorder is a fixed-capacity, preallocated span buffer that several
// goroutines append to without a lock. Spans past the capacity are
// counted in dropped, which a valid trace keeps at zero.
type recorder struct {
	epoch   time.Time
	spans   []span
	n       atomic.Int64
	dropped atomic.Int64

	// keys logs the keys of batch spans (seam A only) so that the join
	// can tell which of two concurrent batches a shard group came from.
	keys  []uint64
	nkeys atomic.Int64

	sorted []span // recorded's result, computed once
}

func newRecorder(epoch time.Time, capSpans, capKeys int) *recorder {
	return &recorder{epoch: epoch, spans: make([]span, capSpans), keys: make([]uint64, capKeys)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) add(s span) {
	i := r.n.Add(1) - 1
	if i >= int64(len(r.spans)) {
		r.dropped.Add(1)
		return
	}
	r.spans[i] = s
}

// logKeys copies a batch's keys into the key log and returns their
// offset; ok is false when the log is absent or full.
func (r *recorder) logKeys(elems []core.Element) (off uint32, ok bool) {
	if len(r.keys) == 0 {
		return 0, false
	}
	end := r.nkeys.Add(int64(len(elems)))
	if end > int64(len(r.keys)) {
		return 0, false
	}
	for i, e := range elems {
		r.keys[int(end)-len(elems)+i] = e.Key
	}
	return uint32(int(end) - len(elems)), true
}

// recorded returns the spans added so far, ordered by start time. Call
// it only after every recording goroutine has stopped.
func (r *recorder) recorded() []span {
	if r.sorted != nil {
		return r.sorted
	}
	out := r.spans[:min(r.n.Load(), int64(len(r.spans)))]
	r.sorted = out
	slices.SortFunc(out, func(a, b span) int {
		switch {
		case a.start < b.start:
			return -1
		case a.start > b.start:
			return 1
		}
		return 0
	})
	return out
}

// spanDict forwards to inner and records a span per call. Its methods
// exist unconditionally, so — like the repo's own wrappers — it answers
// capability probes through CapsProber and SharedReadProber with what
// inner genuinely has; the traced stack therefore takes the same
// shared-read, batch and checkpoint paths as the untraced one.
type spanDict struct {
	inner core.Dictionary
	rec   *recorder
	shard uint8
	sr    core.SharedReader // nil unless inner genuinely shares reads
}

var (
	_ core.Dictionary       = (*spanDict)(nil)
	_ core.BatchInserter    = (*spanDict)(nil)
	_ core.Deleter          = (*spanDict)(nil)
	_ core.Statser          = (*spanDict)(nil)
	_ core.TransferCounter  = (*spanDict)(nil)
	_ core.Snapshotter      = (*spanDict)(nil)
	_ core.SharedReader     = (*spanDict)(nil)
	_ core.SharedReadProber = (*spanDict)(nil)
	_ core.CapsProber       = (*spanDict)(nil)
)

func newSpanDict(inner core.Dictionary, rec *recorder, shard int) *spanDict {
	s := &spanDict{inner: inner, rec: rec, shard: uint8(shard)}
	s.sr, _ = core.AsSharedReader(inner)
	return s
}

func (s *spanDict) Insert(key, value uint64) {
	t := s.rec.now()
	s.inner.Insert(key, value)
	s.rec.add(span{start: t, end: s.rec.now(), key: key, elems: 1, op: opInsert, shard: s.shard})
}

func (s *spanDict) InsertBatch(elems []core.Element) {
	if len(elems) == 0 {
		return
	}
	t := s.rec.now()
	core.InsertBatch(s.inner, elems)
	sp := span{start: t, end: s.rec.now(), key: elems[0].Key, elems: uint32(len(elems)), keyOff: noKeyLog, op: opInsertBatch, shard: s.shard}
	if off, ok := s.rec.logKeys(elems); ok {
		sp.keyOff = off
	}
	s.rec.add(sp)
}

// noKeyLog marks a batch span whose keys were not logged: the join
// then has only its first key to go by.
const noKeyLog = ^uint32(0)

func (s *spanDict) Search(key uint64) (uint64, bool) {
	t := s.rec.now()
	v, ok := s.inner.Search(key)
	s.rec.add(span{start: t, end: s.rec.now(), key: key, elems: 1, op: opSearch, shard: s.shard})
	return v, ok
}

func (s *spanDict) Range(lo, hi uint64, fn func(core.Element) bool) {
	t := s.rec.now()
	n := uint32(0)
	s.inner.Range(lo, hi, func(e core.Element) bool {
		n++
		return fn(e)
	})
	s.rec.add(span{start: t, end: s.rec.now(), key: lo, elems: n, op: opRange, shard: s.shard})
}

func (s *spanDict) Delete(key uint64) bool {
	del, ok := s.inner.(core.Deleter)
	if !ok {
		return false
	}
	t := s.rec.now()
	present := del.Delete(key)
	s.rec.add(span{start: t, end: s.rec.now(), key: key, elems: 1, op: opDelete, shard: s.shard})
	return present
}

func (s *spanDict) Len() int { return s.inner.Len() }

func (s *spanDict) Stats() core.Stats {
	if st, ok := s.inner.(core.Statser); ok {
		return st.Stats()
	}
	return core.Stats{}
}

func (s *spanDict) Transfers() uint64 {
	if tc, ok := s.inner.(core.TransferCounter); ok {
		return tc.Transfers()
	}
	return 0
}

// WriteTo forwards a checkpoint or save; the span's key field carries
// the bytes written.
func (s *spanDict) WriteTo(w io.Writer) (int64, error) {
	sn, ok := s.inner.(core.Snapshotter)
	if !ok {
		return 0, errNoSnapshot
	}
	t := s.rec.now()
	n, err := sn.WriteTo(w)
	s.rec.add(span{start: t, end: s.rec.now(), key: uint64(n), op: opWriteTo, shard: s.shard})
	return n, err
}

func (s *spanDict) ReadFrom(r io.Reader) (int64, error) {
	sn, ok := s.inner.(core.Snapshotter)
	if !ok {
		return 0, errNoSnapshot
	}
	t := s.rec.now()
	n, err := sn.ReadFrom(r)
	s.rec.add(span{start: t, end: s.rec.now(), key: uint64(n), op: opReadFrom, shard: s.shard})
	return n, err
}

func (s *spanDict) BeginSharedReads() {
	if s.sr != nil {
		s.sr.BeginSharedReads()
	}
}

func (s *spanDict) EndSharedReads() {
	if s.sr != nil {
		s.sr.EndSharedReads()
	}
}

func (s *spanDict) SharedReads() bool { return s.sr != nil }

func (s *spanDict) Caps() core.Caps { return core.CapsOf(s.inner) }

var errNoSnapshot = errors.New("bench: traced dictionary's inner kind cannot snapshot itself")

// spanKind is the bench-only registry kind behind seam C: the durable
// wrapper builds its inner by kind name (and rebuilds it from the
// checkpoint header on reopen), so the only way to put a span shim
// under it is to register a kind whose constructor wraps a gcola.
const spanKind = "bench-span-gcola"

// spanKindRecorder is where the spanKind constructor finds the traced
// run's seam-C recorder: a registry constructor takes no arguments, so
// the recorder cannot be handed to it directly.
var spanKindRecorder atomic.Pointer[recorder]

func init() {
	err := registry.Register(spanKind, registry.KindInfo{
		Doc:  "benchmark only: a gcola behind a call-recording shim",
		Caps: core.Caps{Snapshot: true, Delete: true, Batch: true, Stats: true, SharedReads: true},
		New: func(*registry.Config) (core.Dictionary, error) {
			rec := spanKindRecorder.Load()
			if rec == nil {
				return nil, errors.New("bench: " + spanKind + " built outside a traced run")
			}
			d, err := registry.Build("gcola")
			if err != nil {
				return nil, err
			}
			return newSpanDict(d, rec, 0), nil
		},
	})
	if err != nil {
		panic(err)
	}
}
