package server

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"time"

	"repro/internal/core"
)

// Client speaks the wire protocol over one connection. It is not safe
// for concurrent use; open one Client per goroutine (the load
// generator opens one per simulated connection).
//
// Two layers: the Send*/Flush/ReadReply half pipelines — any number of
// requests may be in flight, replies come back in request order — and
// the named convenience methods (Get, Put, ...) are the synchronous
// send-flush-read composition of that half.
type Client struct {
	nc net.Conn
	br *bufio.Reader
	bw *bufio.Writer

	frame []byte //repro:scratch reply frame buffer, reused per read
}

// Dial connects to a server.
func Dial(addr string) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(nc), nil
}

// DialTimeout is Dial with a connect timeout.
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return NewClient(nc), nil
}

// NewClient wraps an established connection.
func NewClient(nc net.Conn) *Client {
	return &Client{
		nc: nc,
		br: bufio.NewReaderSize(nc, 1<<16),
		bw: bufio.NewWriterSize(nc, 1<<16),
	}
}

// Close flushes and closes the connection.
func (c *Client) Close() error {
	ferr := c.bw.Flush()
	cerr := c.nc.Close()
	if ferr != nil {
		return ferr
	}
	return cerr
}

// SendGet enqueues a GET without flushing.
func (c *Client) SendGet(key uint64) error {
	b, err := c.request(OpGet, 8)
	if err != nil {
		return err
	}
	return c.write(binary.BigEndian.AppendUint64(b, key))
}

// SendPut enqueues a PUT without flushing.
func (c *Client) SendPut(key, value uint64) error {
	b, err := c.request(OpPut, 16)
	if err != nil {
		return err
	}
	b = binary.BigEndian.AppendUint64(b, key)
	return c.write(binary.BigEndian.AppendUint64(b, value))
}

// SendDel enqueues a DEL without flushing.
func (c *Client) SendDel(key uint64) error {
	b, err := c.request(OpDel, 8)
	if err != nil {
		return err
	}
	return c.write(binary.BigEndian.AppendUint64(b, key))
}

// SendBatch enqueues a BATCH-PUT without flushing. The batch must hold
// at most MaxBatchElems elements.
func (c *Client) SendBatch(elems []core.Element) error {
	if len(elems) > MaxBatchElems {
		return fmt.Errorf("server: batch of %d exceeds the %d-element frame limit", len(elems), MaxBatchElems)
	}
	b, err := c.room(headerBytes + 1 + 4)
	if err != nil {
		return err
	}
	b = appendHeader(b, OpBatch, 4+len(elems)*16)
	if err := c.write(binary.BigEndian.AppendUint32(b, uint32(len(elems)))); err != nil {
		return err
	}
	for _, el := range elems {
		if b, err = c.room(16); err != nil {
			return err
		}
		b = binary.BigEndian.AppendUint64(b, el.Key)
		if err := c.write(binary.BigEndian.AppendUint64(b, el.Value)); err != nil {
			return err
		}
	}
	return nil
}

// SendRange enqueues a RANGE without flushing; the server returns at
// most max elements (capped at MaxBatchElems).
func (c *Client) SendRange(lo, hi uint64, max int) error {
	b, err := c.request(OpRange, 20)
	if err != nil {
		return err
	}
	b = binary.BigEndian.AppendUint64(b, lo)
	b = binary.BigEndian.AppendUint64(b, hi)
	return c.write(binary.BigEndian.AppendUint32(b, uint32(max)))
}

// SendStats enqueues a STATS without flushing.
func (c *Client) SendStats() error {
	b, err := c.request(OpStats, 0)
	if err != nil {
		return err
	}
	return c.write(b)
}

// request starts a request frame of op with an n-byte payload in the
// write buffer's free space (see room); the caller appends the payload
// and hands the frame to write.
func (c *Client) request(op byte, n int) ([]byte, error) {
	b, err := c.room(headerBytes + 1 + n)
	if err != nil {
		return nil, err
	}
	return appendHeader(b, op, n), nil
}

// room returns an empty slice over the write buffer's free space, with
// capacity for at least n bytes, flushing first when the buffer lacks
// it. A frame built there costs no allocation; built in an array of its
// own, it would escape through bufio.Writer.Write.
func (c *Client) room(n int) ([]byte, error) {
	if c.bw.Available() < n {
		if err := c.bw.Flush(); err != nil {
			return nil, err
		}
	}
	return c.bw.AvailableBuffer(), nil
}

// write commits bytes appended to a room slice to the write buffer.
func (c *Client) write(b []byte) error {
	_, err := c.bw.Write(b)
	return err
}

// Flush pushes every enqueued request to the socket.
func (c *Client) Flush() error { return c.bw.Flush() }

// Reply is one response frame. Payload aliases the client's reused
// read buffer: it is valid only until the next ReadReply.
type Reply struct {
	Status  byte
	Payload []byte
}

// ReadReply reads the next response frame (flushing first, so a bare
// Send-then-ReadReply pair cannot deadlock on an unflushed request).
func (c *Client) ReadReply() (Reply, error) {
	if c.bw.Buffered() > 0 {
		if err := c.bw.Flush(); err != nil {
			return Reply{}, err
		}
	}
	status, payload, buf, err := readFrame(c.br, c.frame)
	c.frame = buf
	if err != nil {
		return Reply{}, err
	}
	return Reply{Status: status, Payload: payload}, nil
}

// statusErr converts a non-OK status into an error (NotFound is
// handled by the callers that expect it).
func statusErr(op string, r Reply) error {
	return fmt.Errorf("server: %s answered %s", op, statusName(r.Status))
}

// Get looks one key up.
func (c *Client) Get(key uint64) (value uint64, ok bool, err error) {
	if err := c.SendGet(key); err != nil {
		return 0, false, err
	}
	r, err := c.ReadReply()
	if err != nil {
		return 0, false, err
	}
	switch r.Status {
	case StatusOK:
		if len(r.Payload) != 8 {
			return 0, false, fmt.Errorf("server: GET reply carries %d payload bytes, want 8", len(r.Payload))
		}
		return binary.BigEndian.Uint64(r.Payload), true, nil
	case StatusNotFound:
		return 0, false, nil
	}
	return 0, false, statusErr("GET", r)
}

// Put stores one element, acknowledged (on a durable composition, the
// write-ahead log record is on disk before this returns).
func (c *Client) Put(key, value uint64) error {
	if err := c.SendPut(key, value); err != nil {
		return err
	}
	r, err := c.ReadReply()
	if err != nil {
		return err
	}
	if r.Status != StatusOK {
		return statusErr("PUT", r)
	}
	return nil
}

// Del removes one key, reporting whether it was present. A dictionary
// without delete support answers (false, error) with the wire-level
// unsupported status in the error.
func (c *Client) Del(key uint64) (present bool, err error) {
	if err := c.SendDel(key); err != nil {
		return false, err
	}
	r, err := c.ReadReply()
	if err != nil {
		return false, err
	}
	if r.Status != StatusOK {
		return false, statusErr("DEL", r)
	}
	if len(r.Payload) != 1 {
		return false, fmt.Errorf("server: DEL reply carries %d payload bytes, want 1", len(r.Payload))
	}
	return r.Payload[0] == 1, nil
}

// PutBatch stores a batch in one acknowledged frame.
func (c *Client) PutBatch(elems []core.Element) error {
	if err := c.SendBatch(elems); err != nil {
		return err
	}
	r, err := c.ReadReply()
	if err != nil {
		return err
	}
	if r.Status != StatusOK {
		return statusErr("BATCH", r)
	}
	if len(r.Payload) != 4 || int(binary.BigEndian.Uint32(r.Payload)) != len(elems) {
		return fmt.Errorf("server: BATCH acknowledged the wrong count")
	}
	return nil
}

// Range returns up to max elements with lo <= key <= hi in ascending
// key order.
func (c *Client) Range(lo, hi uint64, max int) ([]core.Element, error) {
	if err := c.SendRange(lo, hi, max); err != nil {
		return nil, err
	}
	r, err := c.ReadReply()
	if err != nil {
		return nil, err
	}
	if r.Status != StatusOK {
		return nil, statusErr("RANGE", r)
	}
	return decodeRange(r)
}

// decodeRange parses a RANGE reply payload.
func decodeRange(r Reply) ([]core.Element, error) {
	if len(r.Payload) < 4 {
		return nil, fmt.Errorf("server: short RANGE reply")
	}
	n := binary.BigEndian.Uint32(r.Payload)
	if len(r.Payload) != 4+int(n)*16 {
		return nil, fmt.Errorf("server: RANGE reply count %d disagrees with %d payload bytes", n, len(r.Payload))
	}
	out := make([]core.Element, n)
	for i := range out {
		off := 4 + i*16
		out[i] = core.Element{
			Key:   binary.BigEndian.Uint64(r.Payload[off:]),
			Value: binary.BigEndian.Uint64(r.Payload[off+8:]),
		}
	}
	return out, nil
}

// ClassStats is one latency class's server-side service-time summary.
type ClassStats struct {
	Count          uint64
	P50, P99, P999 uint64 // nanoseconds
}

// Stats is the decoded STATS reply.
type Stats struct {
	Caps      core.Caps
	Len       uint64
	Transfers uint64
	Classes   [numClasses]ClassStats
}

// Class returns the named class's summary (see ClassName).
func (s Stats) Class(class int) ClassStats { return s.Classes[class] }

// Stats fetches the server's capability sheet, live length, transfer
// count, and per-class latency summary.
func (c *Client) Stats() (Stats, error) {
	if err := c.SendStats(); err != nil {
		return Stats{}, err
	}
	r, err := c.ReadReply()
	if err != nil {
		return Stats{}, err
	}
	if r.Status != StatusOK {
		return Stats{}, statusErr("STATS", r)
	}
	want := 4 + 8 + 8 + numClasses*4*8
	if len(r.Payload) != want {
		return Stats{}, fmt.Errorf("server: STATS reply carries %d payload bytes, want %d", len(r.Payload), want)
	}
	var st Stats
	st.Caps = capsOfMask(binary.BigEndian.Uint32(r.Payload))
	st.Len = binary.BigEndian.Uint64(r.Payload[4:])
	st.Transfers = binary.BigEndian.Uint64(r.Payload[12:])
	off := 20
	for class := 0; class < numClasses; class++ {
		st.Classes[class] = ClassStats{
			Count: binary.BigEndian.Uint64(r.Payload[off:]),
			P50:   binary.BigEndian.Uint64(r.Payload[off+8:]),
			P99:   binary.BigEndian.Uint64(r.Payload[off+16:]),
			P999:  binary.BigEndian.Uint64(r.Payload[off+24:]),
		}
		off += 32
	}
	return st, nil
}
