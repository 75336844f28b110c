package server

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"

	"repro/internal/cola"
	"repro/internal/syncdict"
)

// FuzzServe sends arbitrary bytes down one loopback connection and
// half-closes it. Whatever the bytes hold — valid frames, unknown
// opcodes, short payloads, lying length prefixes — the server must
// answer and close the connection within a deadline without panicking,
// and when it closes cleanly its reply must be a whole sequence of
// well-formed response frames.
func FuzzServe(f *testing.F) {
	k := binary.BigEndian.AppendUint64
	u32 := binary.BigEndian.AppendUint32
	f.Add(appendFrame(nil, OpGet, k(nil, 7)...))
	f.Add(appendFrame(nil, OpPut, k(k(nil, 7), 70)...))
	f.Add(appendFrame(nil, OpDel, k(nil, 7)...))
	f.Add(appendFrame(nil, OpBatch, k(k(k(k(u32(nil, 2), 1), 10), 2), 20)...))
	f.Add(appendFrame(nil, OpRange, u32(k(k(nil, 0), 100), 16)...))
	f.Add(appendFrame(nil, OpStats))

	srv := New(syncdict.New(cola.NewCOLA(nil)))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	f.Cleanup(func() {
		srv.Shutdown(5 * time.Second)
		<-done
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		nc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		nc.SetDeadline(time.Now().Add(5 * time.Second))
		// A poisoned frame closes the connection early, so the write
		// may fail; the read below still sees the close.
		nc.Write(data)
		nc.(*net.TCPConn).CloseWrite()
		reply, err := io.ReadAll(nc)
		if errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("connection not closed within the deadline (%d bytes of reply)", len(reply))
		}
		if err != nil {
			return // reset: the server closed on a poisoned frame with input unread
		}
		for len(reply) > 0 {
			if len(reply) < headerBytes+1 {
				t.Fatalf("torn response frame %x", reply)
			}
			n := int(binary.BigEndian.Uint32(reply))
			if n < 1 || headerBytes+n > len(reply) || reply[headerBytes] > StatusInternal {
				t.Fatalf("malformed response frame %x", reply[:min(len(reply), 32)])
			}
			reply = reply[headerBytes+n:]
		}
	})
}
