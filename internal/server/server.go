package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/hist"
)

// Latency classes: one histogram per op family, shared across
// connections (hist.Hist is atomic and allocation-free).
const (
	ClassGet = iota
	ClassPut
	ClassDel
	ClassRange
	numClasses
)

// NumClasses is the number of latency classes.
const NumClasses = numClasses

// ClassName names a latency class for reporting.
func ClassName(class int) string {
	switch class {
	case ClassGet:
		return "get"
	case ClassPut:
		return "put"
	case ClassDel:
		return "del"
	case ClassRange:
		return "range"
	}
	return fmt.Sprintf("class(%d)", class)
}

// Server serves one dictionary over the wire protocol. The dictionary
// must be safe for concurrent use (the compositions Open builds — a
// sharded map, optionally over per-shard durable wrappers — are; so
// are the synchronized and durable wrappers on their own).
//
// Capabilities are probed once with core.CapsOf: an op the dictionary
// cannot honor (DEL without a Deleter) is answered with
// StatusUnsupported, a typed wire error, never a panic. GET runs on
// the dictionary's shared-read path whenever SharedReads probed true —
// the sharded and durable wrappers bracket internally — so concurrent
// GETs scale with connections instead of serializing.
type Server struct {
	d    core.Dictionary
	caps core.Caps
	del  core.Deleter // nil when caps.Delete is false

	lat    [numClasses]hist.Hist
	panics atomic.Uint64

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup
	draining atomic.Bool
}

// New wraps a concurrency-safe dictionary for serving.
func New(d core.Dictionary) *Server {
	s := &Server{
		d:     d,
		caps:  core.CapsOf(d),
		conns: make(map[net.Conn]struct{}),
	}
	if s.caps.Delete {
		// The caps probe and the interface can only disagree for an
		// externally registered kind advertising Delete without a
		// Deleter; degrade to Unsupported rather than trusting the flag.
		s.del, _ = d.(core.Deleter)
		if s.del == nil {
			s.caps.Delete = false
		}
	}
	return s
}

// Caps reports the serving dictionary's capability sheet (the same
// bits STATS carries on the wire).
//
//repro:readonly
func (s *Server) Caps() core.Caps { return s.caps }

// Latency returns the server-side service-time histogram of one class,
// for tests and in-process harnesses.
//
//repro:readonly
func (s *Server) Latency(class int) *hist.Hist { return &s.lat[class] }

// Panics reports how many served requests have panicked. Each one was
// answered with StatusInternal and closed its own connection; the
// server and its other connections kept serving.
//
//repro:readonly
func (s *Server) Panics() uint64 { return s.panics.Load() }

// Serve accepts connections on ln until Shutdown (which returns nil
// here) or a listener error. Each connection is served by its own
// goroutine.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.draining.Load() {
			s.mu.Unlock()
			nc.Close()
			continue
		}
		s.conns[nc] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			c := newConn(s, nc)
			c.serve()
			s.mu.Lock()
			delete(s.conns, nc)
			s.mu.Unlock()
			nc.Close()
		}()
	}
}

// Shutdown drains the server: stop accepting, wake every connection
// blocked in a read (requests already received are still answered),
// and wait up to timeout for the connections to finish. Connections
// still alive after the timeout are closed forcibly and reported as an
// error — a clean drain returns nil.
func (s *Server) Shutdown(timeout time.Duration) error {
	s.draining.Store(true)
	s.mu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	for nc := range s.conns {
		// Wake blocked reads; the conn loop sees draining and finishes.
		nc.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-time.After(timeout):
		s.mu.Lock()
		forced := len(s.conns)
		for nc := range s.conns {
			nc.Close()
		}
		s.mu.Unlock()
		<-done
		return fmt.Errorf("server: drain timed out; %d connection(s) closed forcibly", forced)
	}
}

// conn is one connection's state: buffered halves plus reused scratch
// so the steady-state request loop performs no allocation.
type conn struct {
	s   *Server
	nc  net.Conn
	br  *bufio.Reader
	out []byte //repro:scratch response build buffer, reused per request
	req []byte //repro:scratch request frame buffer, reused per request

	// mark is len(out) before the latest dispatch: where a panicking
	// request's partial response starts. A flush since then leaves it
	// past len(out), and nothing is partial.
	mark int

	batch []core.Element //repro:scratch coalesced consecutive PUTs
	elems []core.Element //repro:scratch BATCH decode scratch

	// A RANGE's callback and its count and limit: bound once, so that
	// handleRange hands Range no closure that escapes with a fresh
	// context per request.
	rangeEmit        func(core.Element) bool
	rangeN, rangeMax uint32
}

func newConn(s *Server, nc net.Conn) *conn {
	c := &conn{
		s:   s,
		nc:  nc,
		br:  bufio.NewReaderSize(nc, 1<<16),
		out: make([]byte, 0, 1<<12),
		req: make([]byte, 0, 1<<12),
	}
	c.rangeEmit = c.emitRange
	return c
}

// serve runs the request loop until the peer closes, a framing error
// poisons the connection, or a drain completes. Responses accumulate
// in c.out and flush to the socket whenever the read buffer empties
// (no more pipelined requests to coalesce the write with) — one
// syscall per burst, not per response.
//
// A request that panics (an inner dictionary's I/O error is a panic by
// contract) loses its partial response and is answered StatusInternal;
// the responses before it are flushed, and only this connection
// closes. The wrappers below release their locks by defer, so the
// other connections keep being served.
func (c *conn) serve() {
	defer func() {
		if r := recover(); r != nil {
			c.out = appendFrame(c.out[:min(c.mark, len(c.out))], StatusInternal)
			c.flush()
			c.s.panics.Add(1)
			log.Printf("server: request from %v panicked, connection closed: %v", c.nc.RemoteAddr(), r)
		}
	}()
	for {
		kind, payload, buf, err := readFrame(c.br, c.req)
		c.req = buf
		if err != nil {
			switch {
			case errors.Is(err, errFrameTooLarge):
				c.out = appendFrame(c.out, StatusTooLarge)
			case errors.Is(err, errEmptyFrame):
				c.out = appendFrame(c.out, StatusBadFrame)
			}
			// EOF, a drain wake-up, or a poisoned frame: flush what we
			// owe and stop.
			c.flush()
			return
		}
		c.mark = len(c.out)
		c.dispatch(kind, payload)
		if c.br.Buffered() == 0 {
			if c.flush() != nil {
				return
			}
			if c.s.draining.Load() {
				return
			}
		}
	}
}

// flush writes the accumulated responses to the socket.
func (c *conn) flush() error {
	if len(c.out) == 0 {
		return nil
	}
	_, err := c.nc.Write(c.out)
	c.out = c.out[:0]
	return err
}

// dispatch answers one request, appending the response frame to c.out.
func (c *conn) dispatch(op byte, payload []byte) {
	switch op {
	case OpGet:
		c.handleGet(payload)
	case OpPut:
		c.handlePut(payload)
	case OpDel:
		c.handleDel(payload)
	case OpBatch:
		c.handleBatch(payload)
	case OpRange:
		c.handleRange(payload)
	case OpStats:
		c.handleStats(payload)
	default:
		c.out = appendFrame(c.out, StatusBadFrame)
	}
}

// handleGet is the zero-alloc hot path: decode, search (the
// dictionary brackets its own shared-read epoch when capable), encode
// into the reused buffer, observe service time.
func (c *conn) handleGet(payload []byte) {
	if len(payload) != 8 {
		c.out = appendFrame(c.out, StatusBadFrame)
		return
	}
	start := time.Now()
	v, ok := c.s.d.Search(binary.BigEndian.Uint64(payload))
	if ok {
		c.out = binary.BigEndian.AppendUint32(c.out, 9)
		c.out = append(c.out, StatusOK)
		c.out = binary.BigEndian.AppendUint64(c.out, v)
	} else {
		c.out = appendFrame(c.out, StatusNotFound)
	}
	c.s.lat[ClassGet].Observe(uint64(time.Since(start)))
}

// handlePut applies one PUT — but first coalesces every consecutive
// PUT frame already sitting in the read buffer into one batch apply,
// acknowledged individually. On a durable composition that turns a
// pipelined window of w PUTs into one log record per shard group
// instead of w records: the batch-WAL-ack fast path.
func (c *conn) handlePut(payload []byte) {
	if len(payload) != 16 {
		c.out = appendFrame(c.out, StatusBadFrame)
		return
	}
	start := time.Now()
	c.batch = c.batch[:0]
	c.batch = append(c.batch, core.Element{
		Key:   binary.BigEndian.Uint64(payload),
		Value: binary.BigEndian.Uint64(payload[8:]),
	})
	// Coalesce: consume complete buffered PUT frames without waiting
	// for more bytes from the peer. The Buffered guard keeps Peek from
	// blocking on the socket for bytes the peer has not sent.
	for len(c.batch) < MaxBatchElems && c.br.Buffered() >= headerBytes+17 {
		hdr, err := c.br.Peek(headerBytes + 17)
		if err != nil || binary.BigEndian.Uint32(hdr) != 17 || hdr[4] != OpPut {
			break
		}
		c.batch = append(c.batch, core.Element{
			Key:   binary.BigEndian.Uint64(hdr[5:]),
			Value: binary.BigEndian.Uint64(hdr[13:]),
		})
		c.br.Discard(headerBytes + 17)
	}
	if len(c.batch) == 1 {
		c.s.d.Insert(c.batch[0].Key, c.batch[0].Value)
	} else {
		core.InsertBatch(c.s.d, c.batch)
	}
	// Each coalesced PUT is acknowledged with its own OK frame and
	// charged the batch's service time (they waited on the same apply).
	el := uint64(time.Since(start))
	for range c.batch {
		c.out = appendFrame(c.out, StatusOK)
		c.s.lat[ClassPut].Observe(el)
	}
}

func (c *conn) handleDel(payload []byte) {
	if len(payload) != 8 {
		c.out = appendFrame(c.out, StatusBadFrame)
		return
	}
	if c.s.del == nil {
		c.out = appendFrame(c.out, StatusUnsupported)
		return
	}
	start := time.Now()
	present := c.s.del.Delete(binary.BigEndian.Uint64(payload))
	var p byte
	if present {
		p = 1
	}
	c.out = appendFrame(c.out, StatusOK, p)
	c.s.lat[ClassDel].Observe(uint64(time.Since(start)))
}

func (c *conn) handleBatch(payload []byte) {
	if len(payload) < 4 {
		c.out = appendFrame(c.out, StatusBadFrame)
		return
	}
	n := binary.BigEndian.Uint32(payload)
	if n > MaxBatchElems {
		c.out = appendFrame(c.out, StatusTooLarge)
		return
	}
	if len(payload) != 4+int(n)*16 {
		c.out = appendFrame(c.out, StatusBadFrame)
		return
	}
	start := time.Now()
	if cap(c.elems) < int(n) {
		c.elems = make([]core.Element, n)
	}
	c.elems = c.elems[:n]
	for i := range c.elems {
		off := 4 + i*16
		c.elems[i] = core.Element{
			Key:   binary.BigEndian.Uint64(payload[off:]),
			Value: binary.BigEndian.Uint64(payload[off+8:]),
		}
	}
	core.InsertBatch(c.s.d, c.elems)
	c.out = binary.BigEndian.AppendUint32(c.out, 5)
	c.out = append(c.out, StatusOK)
	c.out = binary.BigEndian.AppendUint32(c.out, n)
	c.s.lat[ClassPut].Observe(uint64(time.Since(start)))
}

func (c *conn) handleRange(payload []byte) {
	if len(payload) != 20 {
		c.out = appendFrame(c.out, StatusBadFrame)
		return
	}
	lo := binary.BigEndian.Uint64(payload)
	hi := binary.BigEndian.Uint64(payload[8:])
	max := binary.BigEndian.Uint32(payload[16:])
	if max > MaxBatchElems {
		max = MaxBatchElems
	}
	start := time.Now()
	// Build the response around a count placeholder, then patch it.
	head := len(c.out)
	c.out = binary.BigEndian.AppendUint32(c.out, 0) // frame length, patched
	c.out = append(c.out, StatusOK)
	c.out = binary.BigEndian.AppendUint32(c.out, 0) // element count, patched
	c.rangeN, c.rangeMax = 0, max
	if max > 0 {
		c.s.d.Range(lo, hi, c.rangeEmit)
	}
	n := c.rangeN
	binary.BigEndian.PutUint32(c.out[head:], uint32(1+4+n*16))
	binary.BigEndian.PutUint32(c.out[head+5:], n)
	c.s.lat[ClassRange].Observe(uint64(time.Since(start)))
}

// emitRange appends one element of a RANGE reply and counts it.
func (c *conn) emitRange(e core.Element) bool {
	c.out = binary.BigEndian.AppendUint64(c.out, e.Key)
	c.out = binary.BigEndian.AppendUint64(c.out, e.Value)
	c.rangeN++
	return c.rangeN < c.rangeMax
}

// handleStats encodes the stats payload: caps mask, live length, DAM
// transfers (when the dictionary self-accounts), and per-class
// service-time counts and quantiles.
func (c *conn) handleStats(payload []byte) {
	if len(payload) != 0 {
		c.out = appendFrame(c.out, StatusBadFrame)
		return
	}
	var transfers uint64
	if tc, ok := c.s.d.(core.TransferCounter); ok {
		transfers = tc.Transfers()
	}
	body := 4 + 8 + 8 + numClasses*4*8
	c.out = binary.BigEndian.AppendUint32(c.out, uint32(1+body))
	c.out = append(c.out, StatusOK)
	c.out = binary.BigEndian.AppendUint32(c.out, capsMask(c.s.caps))
	c.out = binary.BigEndian.AppendUint64(c.out, uint64(c.s.d.Len()))
	c.out = binary.BigEndian.AppendUint64(c.out, transfers)
	for class := 0; class < numClasses; class++ {
		h := &c.s.lat[class]
		c.out = binary.BigEndian.AppendUint64(c.out, h.Count())
		c.out = binary.BigEndian.AppendUint64(c.out, h.Quantile(0.50))
		c.out = binary.BigEndian.AppendUint64(c.out, h.Quantile(0.99))
		c.out = binary.BigEndian.AppendUint64(c.out, h.Quantile(0.999))
	}
}
