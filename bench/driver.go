package main

// The benchmark's own load driver over server.Client. internal/loadgen
// is not used: its closed loop refills the window one request per
// reply (one flush per request) and its open loop leaves requests in
// the client's bufio.Writer until the window fills, so both measure
// the generator (see README.md).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/workload"
)

// valueOf derives the value stored under a key, so any reader can
// check any answer without remembering what was written.
func valueOf(key uint64) uint64 { return key ^ 0x5DEECE66D1CE4E5B }

// Latency classes of the driver.
const (
	clsGet = iota
	clsPut
	numClasses
)

// Wire sizes of the frames the driver exchanges (4-byte length prefix,
// 1-byte opcode or status, payload).
const (
	getReqBytes   = 4 + 1 + 8
	putReqBytes   = 4 + 1 + 16
	replyHdrBytes = 4 + 1
)

// subSeed decorrelates per-connection streams of one run.
func subSeed(seed uint64, conn int) uint64 {
	return seed ^ (uint64(conn)+1)*0x9E3779B97F4A7C15
}

// bitset marks keys of a bounded keyspace.
type bitset []uint64

func newBitset(n uint64) bitset    { return make(bitset, (n+63)/64) }
func (b bitset) set(k uint64)      { b[k>>6] |= 1 << (k & 63) }
func (b bitset) has(k uint64) bool { return b[k>>6]&(1<<(k&63)) != 0 }

// connStats is what one connection measured.
type connStats struct {
	lat       [numClasses][]uint32 // per-op latency samples in ns, saturating
	cuts      [][numClasses]int    // closed loop: len(lat[class]) at the end of each slice
	late      []uint32             // open loop: how late each op was sent, ns
	attempted uint64
	failed    uint64        // transport errors, non-OK statuses, wrong answers
	puts      uint64        // acknowledged PUTs
	wireBytes uint64        // request and reply bytes, both directions
	rtt       time.Duration // sum of window round trips (flush to last reply)
	wall      time.Duration // the connection's whole measured phase
	err       error         // first transport error, if any
}

// ackedStride thins the acknowledged-PUT sample kept for the
// post-recovery readback; ackedCap bounds it per connection.
const (
	ackedStride = 16
	ackedCap    = 50_000
)

// loadConn drives one connection: it generates ops from its own
// sub-seeded stream, sends them, and checks every reply.
type loadConn struct {
	cl        *server.Client
	stream    *workload.Stream
	preloaded uint64 // keys below this were inserted during set-up
	written   bitset // keys this connection had a PUT acknowledged for
	acked     []uint64
	st        connStats
	win       *recorder // traced run: one span per window; nil otherwise
}

func newLoadConn(addr string, sc workload.Scenario, preloaded uint64) (*loadConn, error) {
	st, err := sc.Stream()
	if err != nil {
		return nil, err
	}
	cl, err := server.DialTimeout(addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	c := &loadConn{cl: cl, stream: st, preloaded: preloaded, written: newBitset(sc.KeySpace)}
	for i := range c.st.lat {
		c.st.lat[i] = make([]uint32, 0, 1<<20)
	}
	return c, nil
}

func satNS(d time.Duration) uint32 {
	if d < 0 {
		return 0
	}
	if d > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(d)
}

func (c *loadConn) send(op workload.Op) error {
	switch op.Kind {
	case workload.OpInsert:
		return c.cl.SendPut(op.Key, valueOf(op.Key))
	case workload.OpSearch:
		return c.cl.SendGet(op.Key)
	}
	return fmt.Errorf("driver: op kind %v is not part of any served workload", op.Kind)
}

// check classifies one reply and reports whether it is a legal answer
// to op. A GET may miss only a key that was neither preloaded nor
// already acknowledged to this connection.
func (c *loadConn) check(op workload.Op, r server.Reply) (class int, ok bool) {
	c.st.wireBytes += replyHdrBytes + uint64(len(r.Payload))
	if op.Kind == workload.OpInsert {
		c.st.wireBytes += putReqBytes
		if r.Status != server.StatusOK || len(r.Payload) != 0 {
			return clsPut, false
		}
		c.st.puts++
		c.written.set(op.Key)
		if c.st.puts%ackedStride == 0 {
			if len(c.acked) < ackedCap {
				c.acked = append(c.acked, op.Key)
			} else {
				c.acked[(c.st.puts/ackedStride)%ackedCap] = op.Key
			}
		}
		return clsPut, true
	}
	c.st.wireBytes += getReqBytes
	switch r.Status {
	case server.StatusOK:
		return clsGet, len(r.Payload) == 8 && binary.BigEndian.Uint64(r.Payload) == valueOf(op.Key)
	case server.StatusNotFound:
		return clsGet, op.Key >= c.preloaded && !c.written.has(op.Key)
	}
	return clsGet, false
}

// exchange flushes the ops already enqueued with send, then reads and
// checks one reply per op. due, when non-nil, holds each op's scheduled
// send time and latency is counted from it (open loop); otherwise from
// the flush (closed loop).
func (c *loadConn) exchange(ops []workload.Op, epoch time.Time, due []time.Duration) error {
	t0 := time.Since(epoch)
	err := c.cl.Flush()
	for i, op := range ops {
		c.st.attempted++
		if err != nil {
			c.st.failed++
			continue
		}
		var r server.Reply
		if r, err = c.cl.ReadReply(); err != nil {
			c.st.failed++
			continue
		}
		from := t0
		if due != nil {
			from = due[i]
		}
		class, ok := c.check(op, r)
		if !ok {
			c.st.failed++
		}
		c.st.lat[class] = append(c.st.lat[class], satNS(time.Since(epoch)-from))
	}
	rtt := time.Since(epoch) - t0
	c.st.rtt += rtt
	if c.win != nil {
		c.win.add(span{start: int64(t0), end: int64(t0 + rtt), elems: uint32(len(ops)), op: opWindow})
	}
	return err
}

// numSlices is how many equal time slices a measured phase is cut
// into. Every end-to-end metric is computed per slice and reported as
// the median over slices, so a burst of interference from the host
// spoils a slice or two, not the run.
const numSlices = 10

// cut closes every slice that ended at or before elapsed.
func (c *loadConn) cut(elapsed, dur time.Duration) {
	for len(c.st.cuts) < numSlices-1 && elapsed >= dur*time.Duration(len(c.st.cuts)+1)/numSlices {
		c.st.cuts = append(c.st.cuts, [numClasses]int{len(c.st.lat[clsGet]), len(c.st.lat[clsPut])})
	}
}

// closedLoop keeps exactly one window of `pipeline` requests in flight
// until dur has passed: send the window, flush once, read every reply.
func (c *loadConn) closedLoop(epoch time.Time, dur time.Duration) {
	start := time.Since(epoch)
	var ops [pipeline]workload.Op
	for {
		elapsed := time.Since(epoch) - start
		c.cut(elapsed, dur)
		if elapsed >= dur {
			break
		}
		for i := range ops {
			ops[i] = c.stream.Next()
			if c.st.err = c.send(ops[i]); c.st.err != nil {
				break
			}
		}
		if c.st.err == nil {
			c.st.err = c.exchange(ops[:], epoch, nil)
		}
		if c.st.err != nil {
			break
		}
	}
	c.st.wall = time.Since(epoch) - start
}

// Open-loop shape: the generator wakes every openTick, sends whatever
// is due (at most openBurst requests, so a stalled server cannot make
// the driver overrun the socket buffers), flushes, and reads the
// replies.
const (
	openTick  = time.Millisecond
	openBurst = 1024
)

// openLoop sends at a fixed rate regardless of how fast replies come
// back. Op i is due at i/rate; its latency is counted from then, so a
// stall is charged to every request it delays, and how late the
// generator itself ran is kept in st.late.
func (c *loadConn) openLoop(epoch time.Time, dur time.Duration, rate float64) {
	start := time.Since(epoch)
	gap := float64(time.Second) / rate
	ops := make([]workload.Op, 0, openBurst)
	due := make([]time.Duration, 0, openBurst)
	sent := 0
	for {
		now := time.Since(epoch) - start
		if now >= dur {
			break
		}
		n := min(int(float64(now)/gap)+1-sent, openBurst)
		ops, due = ops[:0], due[:0]
		for i := 0; i < n && c.st.err == nil; i++ {
			op := c.stream.Next()
			ops = append(ops, op)
			due = append(due, start+time.Duration(float64(sent+i)*gap))
			c.st.err = c.send(op)
		}
		if c.st.err != nil {
			break
		}
		if n > 0 {
			flushAt := time.Since(epoch)
			for _, d := range due {
				c.st.late = append(c.st.late, satNS(flushAt-d))
			}
			if c.st.err = c.exchange(ops, epoch, due); c.st.err != nil {
				break
			}
			sent += n
		}
		now = time.Since(epoch) - start
		time.Sleep(now.Truncate(openTick) + openTick - now)
	}
	c.st.wall = time.Since(epoch) - start
}

// readbackPasses is how many times the readback plays the sample: the
// first pass is the durability check, the rest only lengthen the phase
// whose GET latencies the durable workload reports.
const readbackPasses = 5

// readback GETs every key in windows of `pipeline`; each must be found.
// The phase is cut into numSlices slices of equal op count.
func (c *loadConn) readback(epoch time.Time, keys []uint64) {
	for _, k := range keys {
		c.written.set(k)
	}
	start := time.Since(epoch)
	total := readbackPasses * len(keys)
	var ops [pipeline]workload.Op
	for done := 0; done < total && c.st.err == nil; {
		n := min(total-done, pipeline)
		for i := range ops[:n] {
			ops[i] = workload.Op{Kind: workload.OpSearch, Key: keys[(done+i)%len(keys)]}
			if c.st.err = c.send(ops[i]); c.st.err != nil {
				break
			}
		}
		if c.st.err == nil {
			c.st.err = c.exchange(ops[:n], epoch, nil)
		}
		done += n
		c.cut(time.Duration(done), time.Duration(total))
	}
	c.st.wall = time.Since(epoch) - start
}

// runConns runs fn on every connection concurrently and waits.
func runConns(conns []*loadConn, fn func(i int, c *loadConn)) {
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i, c)
		}()
	}
	wg.Wait()
}

// dialConns opens numConns driver connections, each with its own
// sub-seeded stream of the scenario.
func dialConns(addr string, sc workload.Scenario, preloaded uint64) ([]*loadConn, error) {
	conns := make([]*loadConn, 0, numConns)
	for i := 0; i < numConns; i++ {
		s := sc
		s.Seed = subSeed(sc.Seed, i)
		c, err := newLoadConn(addr, s, preloaded)
		if err != nil {
			closeConns(conns)
			return nil, err
		}
		conns = append(conns, c)
	}
	return conns, nil
}

func closeConns(conns []*loadConn) {
	for _, c := range conns {
		_ = c.cl.Close() // best effort: the run's verdict is already in the stats
	}
}

// phaseStats folds the connections' measurements of one phase.
type phaseStats struct {
	lat       [numClasses][]uint32 // sorted
	slices    []sliceStats         // nil unless every connection cut its phase
	late      []uint32             // sorted
	attempted uint64
	failed    uint64
	puts      uint64
	wireBytes uint64
	rtt       time.Duration // summed over connections
	wall      time.Duration // summed over connections
	elapsed   time.Duration // longest connection
	err       error
}

func foldStats(conns []*loadConn) phaseStats {
	var p phaseStats
	for _, c := range conns {
		for i := range p.lat {
			p.lat[i] = append(p.lat[i], c.st.lat[i]...)
		}
		p.late = append(p.late, c.st.late...)
		p.attempted += c.st.attempted
		p.failed += c.st.failed
		p.puts += c.st.puts
		p.wireBytes += c.st.wireBytes
		p.rtt += c.st.rtt
		p.wall += c.st.wall
		p.elapsed = max(p.elapsed, c.st.wall)
		p.err = errors.Join(p.err, c.st.err)
	}
	p.slices = foldSlices(conns)
	for i := range p.lat {
		slices.Sort(p.lat[i])
	}
	slices.Sort(p.late)
	return p
}

// sliceStats is one time slice of a phase, over all connections.
type sliceStats struct {
	lat [numClasses][]uint32 // sorted
	ops int
}

// foldSlices regroups the connections' samples by slice. It returns nil
// if any connection stopped before closing all its slices.
func foldSlices(conns []*loadConn) []sliceStats {
	out := make([]sliceStats, numSlices)
	for _, c := range conns {
		if len(c.st.cuts) != numSlices-1 {
			return nil
		}
		from := [numClasses]int{}
		for i := range out {
			to := [numClasses]int{len(c.st.lat[clsGet]), len(c.st.lat[clsPut])}
			if i < numSlices-1 {
				to = c.st.cuts[i]
			}
			for class := range to {
				out[i].lat[class] = append(out[i].lat[class], c.st.lat[class][from[class]:to[class]]...)
				out[i].ops += to[class] - from[class]
			}
			from = to
		}
	}
	for i := range out {
		for class := range out[i].lat {
			slices.Sort(out[i].lat[class])
		}
	}
	return out
}

// quantile is the q-quantile of sorted samples, interpolated between
// the two nearest ranks; 0 for no samples.
func quantile[T uint32 | int64](sorted []T, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	hi := min(lo+1, len(sorted)-1)
	frac := pos - float64(lo)
	return float64(sorted[lo])*(1-frac) + float64(sorted[hi])*frac
}

// quantileUS is the q-quantile of sorted nanosecond samples, in
// microseconds.
func quantileUS(sorted []uint32, q float64) float64 { return quantile(sorted, q) / 1e3 }

// shuffledKeys is a seeded permutation of 0..n-1: the preload order.
func shuffledKeys(seed uint64, n int) []uint32 {
	keys := make([]uint32, n)
	for i := range keys {
		keys[i] = uint32(i)
	}
	rng := workload.NewRNG(seed ^ 0x70726C6F6164) // "preload"
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		keys[i], keys[j] = keys[j], keys[i]
	}
	return keys
}

// preload inserts the keys through BATCH frames, the key range split
// evenly over numConns connections, each frame acknowledged before the
// next is sent.
func preload(addr string, keys []uint32) error {
	errs := make([]error, numConns)
	var wg sync.WaitGroup
	for i := 0; i < numConns; i++ {
		part := keys[len(keys)*i/numConns : len(keys)*(i+1)/numConns]
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = preloadPart(addr, part)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func preloadPart(addr string, keys []uint32) error {
	cl, err := server.DialTimeout(addr, 5*time.Second)
	if err != nil {
		return err
	}
	defer cl.Close()
	frame := make([]core.Element, 0, batchFrame)
	for len(keys) > 0 {
		n := min(len(keys), batchFrame)
		frame = frame[:0]
		for _, k := range keys[:n] {
			frame = append(frame, core.Element{Key: uint64(k), Value: valueOf(uint64(k))})
		}
		if err := cl.PutBatch(frame); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		keys = keys[n:]
	}
	return nil
}
