// Package server is the network front-end over any registry-built
// dictionary: a length-prefixed binary protocol (GET / PUT / DEL /
// BATCH-PUT / RANGE / STATS) over TCP, a per-connection pipelining
// server whose hot read path is allocation-free, and a client whose
// low-level send/read halves let callers keep many requests in flight
// on one connection.
//
// # Wire format
//
// Every request and response is one frame:
//
//	request:  [u32 length][u8 opcode][payload]
//	response: [u32 length][u8 status][payload]
//
// The length is big-endian and counts the opcode/status byte plus the
// payload (so the smallest frame is length 1). Keys, values, and
// counts inside payloads are big-endian too. Per-op payloads:
//
//	GET    req key(8)                     resp OK value(8) | NotFound
//	PUT    req key(8) value(8)            resp OK
//	DEL    req key(8)                     resp OK present(1) | Unsupported
//	BATCH  req count(4) count×{key,value} resp OK count(4)
//	RANGE  req lo(8) hi(8) max(4)         resp OK count(4) count×{key,value}
//	STATS  req —                          resp OK stats payload (see Stats)
//
// # Pipelining
//
// A client may send any number of requests before reading replies;
// the server answers strictly in request order, one response frame
// per request frame. Consecutive PUT frames already buffered when the
// server drains its read buffer are coalesced into a single batch
// apply — through one write-ahead-log record per shard group on a
// durable composition — and still acknowledged individually, which is
// what makes pipelined ingestion cheap: the deeper the client's
// window, the fewer log syscalls per acknowledged element.
//
// # Errors
//
// Unsupported (an op the serving dictionary's capabilities exclude,
// probed with core.CapsOf) and NotFound are per-request verdicts; the
// connection stays usable. BadFrame and TooLarge poison the
// connection — framing may be lost, so the server answers and closes.
package server

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/core"
)

// Opcodes.
const (
	OpGet   byte = 1
	OpPut   byte = 2
	OpDel   byte = 3
	OpBatch byte = 4
	OpRange byte = 5
	OpStats byte = 6
)

// Response statuses.
const (
	StatusOK          byte = 0
	StatusNotFound    byte = 1
	StatusUnsupported byte = 2
	StatusBadFrame    byte = 3
	StatusTooLarge    byte = 4
	StatusInternal    byte = 5
)

// Frame and payload limits. MaxBatchElems bounds one BATCH request
// (and one RANGE response); MaxFrameBytes is derived so the largest
// legal frame fits and anything bigger is rejected before allocation.
const (
	MaxBatchElems = 1 << 16
	MaxFrameBytes = 1 + 4 + MaxBatchElems*16
)

// headerBytes is the frame-length prefix size.
const headerBytes = 4

// minFrameBuf is the capacity readFrame gives a buffer it has to
// allocate: room for every fixed-size request and reply frame.
const minFrameBuf = 256

// StatusText names a status byte for error messages and logs.
func StatusText(s byte) string { return statusName(s) }

// statusName names a status byte for error messages.
func statusName(s byte) string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusNotFound:
		return "not-found"
	case StatusUnsupported:
		return "unsupported"
	case StatusBadFrame:
		return "bad-frame"
	case StatusTooLarge:
		return "too-large"
	case StatusInternal:
		return "internal"
	}
	return fmt.Sprintf("status(%d)", s)
}

// opName names an opcode for error messages.
func opName(op byte) string {
	switch op {
	case OpGet:
		return "GET"
	case OpPut:
		return "PUT"
	case OpDel:
		return "DEL"
	case OpBatch:
		return "BATCH"
	case OpRange:
		return "RANGE"
	case OpStats:
		return "STATS"
	}
	return fmt.Sprintf("op(%d)", op)
}

// Caps-mask bits of the STATS payload, mirroring core.Caps.
const (
	capSnapshot    = 1 << 0
	capWAL         = 1 << 1
	capDelete      = 1 << 2
	capBatch       = 1 << 3
	capStats       = 1 << 4
	capSharedReads = 1 << 5
)

// capsMask packs core.Caps into the STATS wire bits.
func capsMask(c core.Caps) uint32 {
	var m uint32
	if c.Snapshot {
		m |= capSnapshot
	}
	if c.WAL {
		m |= capWAL
	}
	if c.Delete {
		m |= capDelete
	}
	if c.Batch {
		m |= capBatch
	}
	if c.Stats {
		m |= capStats
	}
	if c.SharedReads {
		m |= capSharedReads
	}
	return m
}

// capsOfMask unpacks the STATS wire bits back into core.Caps.
func capsOfMask(m uint32) core.Caps {
	return core.Caps{
		Snapshot:    m&capSnapshot != 0,
		WAL:         m&capWAL != 0,
		Delete:      m&capDelete != 0,
		Batch:       m&capBatch != 0,
		Stats:       m&capStats != 0,
		SharedReads: m&capSharedReads != 0,
	}
}

// appendFrame appends one frame (header, kind byte, payload) to dst.
func appendFrame(dst []byte, kind byte, payload ...byte) []byte {
	return append(appendHeader(dst, kind, len(payload)), payload...)
}

// appendHeader appends the header and kind byte of a frame whose payload
// is n bytes long.
func appendHeader(dst []byte, kind byte, n int) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(1+n))
	return append(dst, kind)
}

// readFrame reads one frame into buf (grown as needed) and returns the
// kind byte, the payload (aliasing buf), and the possibly-grown buffer.
// The length prefix is read into buf too: a header array of its own
// would escape through io.Reader and cost an allocation per frame. A
// frame longer than MaxFrameBytes returns errFrameTooLarge without
// consuming the body, so the caller can answer before closing.
func readFrame(r io.Reader, buf []byte) (kind byte, payload, newBuf []byte, err error) {
	if cap(buf) < headerBytes {
		buf = make([]byte, headerBytes, minFrameBuf)
	}
	hdr := buf[:headerBytes]
	if _, err = io.ReadFull(r, hdr); err != nil {
		return 0, nil, buf, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n == 0 {
		return 0, nil, buf, errEmptyFrame
	}
	if n > MaxFrameBytes {
		return 0, nil, buf, errFrameTooLarge
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err = io.ReadFull(r, buf); err != nil {
		return 0, nil, buf, err
	}
	return buf[0], buf[1:], buf, nil
}

// Framing-level sentinel errors.
var (
	errEmptyFrame    = fmt.Errorf("server: zero-length frame")
	errFrameTooLarge = fmt.Errorf("server: frame exceeds %d bytes", MaxFrameBytes)
)
