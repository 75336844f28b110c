// Package snap implements the repository's self-describing snapshot
// container. A snapshot file is one container:
//
//	magic "RSNP" | container version u32 |
//	header length u32 | header bytes | header CRC32 u32 |
//	payload length u64 | payload bytes | payload CRC32 u32
//
// all little-endian, CRC32 over the IEEE polynomial. The header is an
// encoded Spec — the registry kind that wrote the payload plus the
// options it was built with — so a loader can reconstruct the right
// structure without the caller knowing what was saved. The payload is
// whatever the structure's own core.Snapshotter.WriteTo emitted; the
// container never interprets it.
//
// Encode holds no copy of the payload when the destination is a file:
// the structure's WriteTo streams through a running CRC straight to it
// and the payload length, known only afterwards, is patched in place —
// a checkpoint is one sequential pass. Other destinations get the same
// bytes staged in memory first. See Encode.
//
// Decode still buffers the payload, and that is deliberate: it verifies
// both checksums before returning, so a structure's ReadFrom only ever
// sees payload bytes that survived CRC verification — corruption is
// reported as a typed error here, not as a misparse inside a structure
// decoder — and the trailer CRC cannot be checked before the last
// payload byte has been read. The buffer is the size of the payload
// (tens of bytes per element), the same order as the structure being
// restored, and lives only until ReadFrom returns.
//
// The format is designed for safe decoding of hostile input: every
// length field is bounded before use, allocations grow with bytes
// actually read rather than with claimed lengths, and all failures are
// wrapped core.ErrBadMagic / core.ErrBadVersion / core.ErrCorrupt.
package snap

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/core"
)

const (
	// Magic identifies a container stream.
	Magic = "RSNP"
	// Version is the container format version this build reads and
	// writes.
	Version = 1

	// Decode limits. A legitimate header is tens to hundreds of bytes
	// (kind name plus a handful of options); the cap is generous so
	// deeply nested wrapper specs fit, while a corrupt length field
	// fails fast instead of driving a huge allocation.
	maxHeaderBytes = 1 << 20
	maxStringLen   = 1 << 12
	maxOpts        = 64
	maxSpecDepth   = 8
)

// Option value kinds, the tag byte of an encoded Opt.
const (
	tagInt byte = iota
	tagFloat
	tagString
	tagSpec
	tagIntPair
)

// Opt is one recorded build option: a name (the registry's canonical
// "WithX" constants) and a tagged value. Exactly one value field is
// meaningful, selected by Tag.
type Opt struct {
	Name  string
	Tag   byte
	Int   int64
	Int2  int64 // second value of an IntPair
	Float float64
	Str   string
	Spec  *Spec // nested spec (a wrapper kind's inner selection)
}

// Int makes an integer-valued option.
func Int(name string, v int64) Opt { return Opt{Name: name, Tag: tagInt, Int: v} }

// IntPair makes a two-integer option (e.g. a block/cache geometry).
func IntPair(name string, a, b int64) Opt {
	return Opt{Name: name, Tag: tagIntPair, Int: a, Int2: b}
}

// Float makes a float-valued option.
func Float(name string, v float64) Opt { return Opt{Name: name, Tag: tagFloat, Float: v} }

// String makes a string-valued option.
func String(name, v string) Opt { return Opt{Name: name, Tag: tagString, Str: v} }

// Nested makes a spec-valued option (a wrapper kind's inner structure).
func Nested(name string, s *Spec) Opt { return Opt{Name: name, Tag: tagSpec, Spec: s} }

// Spec records how to rebuild the structure a payload belongs to: the
// registry kind and the serializable options it was built with.
type Spec struct {
	Kind string
	Opts []Opt
}

// Encode writes one container: the spec as the header, then the
// payload produced by wt, both CRC-framed. It returns the total bytes
// written. wt.WriteTo is called exactly once.
//
// The payload's length precedes it on the wire but is known only after
// it. When w can overwrite what it has taken (an *os.File not opened
// for append — what checkpoints and SaveFile pass), the payload streams
// through a running CRC straight to w behind a placeholder length that
// Encode overwrites at the end. Until then the file is not a valid
// container, so its writers rename it into place only after Encode has
// returned; a failed Encode leaves a torn container behind. Any other w
// receives the same bytes in one Write once they have been staged in
// memory, and nothing at all on failure.
func Encode(w io.Writer, spec *Spec, wt io.WriterTo) (int64, error) {
	var header bytes.Buffer
	if err := encodeSpec(&header, spec, 0); err != nil {
		return 0, err
	}
	var pre bytes.Buffer
	pre.Grow(len(Magic) + 4 + 4 + header.Len() + 4 + 8)
	pre.WriteString(Magic)
	putU32(&pre, Version)
	putU32(&pre, uint32(header.Len()))
	pre.Write(header.Bytes())
	putU32(&pre, crc32.ChecksumIEEE(header.Bytes()))
	lenAt := int64(pre.Len())
	putU64(&pre, 0) // payload length, patched once known

	var payloadLen [8]byte
	if at, base, ok := patchable(w); ok {
		n, size, err := stream(w, pre.Bytes(), wt)
		if err != nil {
			return n, err
		}
		binary.LittleEndian.PutUint64(payloadLen[:], uint64(size))
		if _, err := at.WriteAt(payloadLen[:], base+lenAt); err != nil {
			return n, fmt.Errorf("snap: patching payload length: %w", err)
		}
		return n, nil
	}
	var staged bytes.Buffer
	_, size, err := stream(&staged, pre.Bytes(), wt)
	if err != nil {
		return 0, err
	}
	binary.LittleEndian.PutUint64(payloadLen[:], uint64(size))
	copy(staged.Bytes()[lenAt:], payloadLen[:])
	n, err := w.Write(staged.Bytes())
	return int64(n), err
}

// stream writes a container whose payload length is still the
// placeholder in pre: the preamble, wt's bytes through a running CRC,
// then the CRC trailer. It returns the bytes written and the payload's
// size.
func stream(w io.Writer, pre []byte, wt io.WriterTo) (n, size int64, err error) {
	k, err := w.Write(pre)
	n = int64(k)
	if err != nil {
		return n, 0, err
	}
	cw := crcWriter{w: w}
	_, err = wt.WriteTo(&cw)
	n += cw.n
	if err != nil {
		return n, cw.n, fmt.Errorf("snap: encoding payload: %w", err)
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], cw.crc)
	k, err = w.Write(sum[:])
	return n + int64(k), cw.n, err
}

// crcWriter forwards to w, counting and checksumming what w accepted.
type crcWriter struct {
	w   io.Writer
	crc uint32
	n   int64
}

func (c *crcWriter) Write(b []byte) (int, error) {
	k, err := c.w.Write(b)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, b[:k])
	c.n += int64(k)
	return k, err
}

// patchable reports whether w can overwrite bytes it has already taken
// and, if so, the offset the container will start at. A pipe behind an
// *os.File cannot seek, and a file opened for append refuses WriteAt
// (asked here with no bytes, so nothing is written) — better learned
// now than after the payload.
func patchable(w io.Writer) (at io.WriterAt, base int64, ok bool) {
	p, ok := w.(interface {
		io.Seeker
		io.WriterAt
	})
	if !ok {
		return nil, 0, false
	}
	base, err := p.Seek(0, io.SeekCurrent)
	if err != nil {
		return nil, 0, false
	}
	if _, err := p.WriteAt(nil, base); err != nil {
		return nil, 0, false
	}
	return p, base, true
}

// DecodeHeader reads and verifies only the container preamble and
// header, returning the spec without touching the payload — for
// listing tools that want to know what a snapshot holds without paying
// to read (and checksum) its contents. The reader is left positioned
// at the payload length field.
func DecodeHeader(r io.Reader) (*Spec, error) {
	spec, err := decodeHeaderFrom(r)
	return spec, err
}

// Decode reads one container, verifies both checksums, and returns the
// spec together with a reader over the verified payload bytes. Failures
// wrap the typed core errors: core.ErrBadMagic (not a container),
// core.ErrBadVersion (written by a newer format), core.ErrCorrupt
// (truncation or checksum mismatch anywhere).
func Decode(r io.Reader) (*Spec, *bytes.Reader, error) {
	spec, err := decodeHeaderFrom(r)
	if err != nil {
		return nil, nil, err
	}

	var lenBuf [8]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, nil, fmt.Errorf("snap: payload length truncated: %w", core.ErrCorrupt)
	}
	payloadLen := binary.LittleEndian.Uint64(lenBuf[:])
	if payloadLen > math.MaxInt64 {
		return nil, nil, fmt.Errorf("snap: payload length %d out of range: %w", payloadLen, core.ErrCorrupt)
	}
	// Copy through a limited reader into a growing buffer: the
	// allocation tracks bytes actually present, so a corrupt length
	// fails with ErrCorrupt instead of a giant up-front make.
	var payload bytes.Buffer
	copied, err := io.Copy(&payload, io.LimitReader(r, int64(payloadLen)))
	if err != nil || uint64(copied) != payloadLen {
		return nil, nil, fmt.Errorf("snap: payload truncated at %d of %d bytes: %w",
			copied, payloadLen, core.ErrCorrupt)
	}
	var sums [4]byte
	if _, err := io.ReadFull(r, sums[:]); err != nil {
		return nil, nil, fmt.Errorf("snap: payload checksum truncated: %w", core.ErrCorrupt)
	}
	if got, want := crc32.ChecksumIEEE(payload.Bytes()), binary.LittleEndian.Uint32(sums[:]); got != want {
		return nil, nil, fmt.Errorf("snap: payload checksum %08x, stored %08x: %w", got, want, core.ErrCorrupt)
	}
	return spec, bytes.NewReader(payload.Bytes()), nil
}

// decodeHeaderFrom consumes and verifies the preamble and header.
func decodeHeaderFrom(r io.Reader) (*Spec, error) {
	// The magic is checked on its own before anything else is read, so a
	// stream that is not a container at all — however short — reports
	// ErrBadMagic, and ErrCorrupt is reserved for damage past a valid
	// preamble.
	var fixed [12]byte
	if n, err := io.ReadFull(r, fixed[:4]); err != nil {
		// Only a non-empty prefix of the magic is evidence of a torn
		// container; an empty stream matches the empty prefix vacuously
		// and must still report "not a container".
		if n > 0 && string(fixed[:n]) == Magic[:n] {
			return nil, fmt.Errorf("snap: container preamble truncated: %w", core.ErrCorrupt)
		}
		return nil, fmt.Errorf("snap: %d-byte stream is not a container: %w", n, core.ErrBadMagic)
	}
	if string(fixed[:4]) != Magic {
		return nil, fmt.Errorf("snap: magic %q, want %q: %w", fixed[:4], Magic, core.ErrBadMagic)
	}
	if _, err := io.ReadFull(r, fixed[4:]); err != nil {
		return nil, fmt.Errorf("snap: container preamble truncated: %w", core.ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(fixed[4:8]); v != Version {
		return nil, fmt.Errorf("snap: container version %d, this build reads %d: %w",
			v, Version, core.ErrBadVersion)
	}
	headerLen := binary.LittleEndian.Uint32(fixed[8:12])
	if headerLen > maxHeaderBytes {
		return nil, fmt.Errorf("snap: header length %d exceeds limit %d: %w",
			headerLen, maxHeaderBytes, core.ErrCorrupt)
	}
	header := make([]byte, headerLen)
	if _, err := io.ReadFull(r, header); err != nil {
		return nil, fmt.Errorf("snap: header truncated: %w", core.ErrCorrupt)
	}
	var sums [4]byte
	if _, err := io.ReadFull(r, sums[:]); err != nil {
		return nil, fmt.Errorf("snap: header checksum truncated: %w", core.ErrCorrupt)
	}
	if got, want := crc32.ChecksumIEEE(header), binary.LittleEndian.Uint32(sums[:]); got != want {
		return nil, fmt.Errorf("snap: header checksum %08x, stored %08x: %w", got, want, core.ErrCorrupt)
	}
	spec, rest, err := decodeSpec(header, 0)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("snap: %d trailing header bytes: %w", len(rest), core.ErrCorrupt)
	}
	return spec, nil
}

// encodeSpec appends the header encoding of s:
//
//	kind string | opt count u16 | per opt: name string | tag u8 | value
//
// where string is u16 length + bytes, Int/Float/IntPair values are
// 8-byte words, and tagSpec recurses.
func encodeSpec(b *bytes.Buffer, s *Spec, depth int) error {
	if depth > maxSpecDepth {
		return fmt.Errorf("snap: spec nesting deeper than %d", maxSpecDepth)
	}
	if err := putString(b, s.Kind); err != nil {
		return err
	}
	if len(s.Opts) > maxOpts {
		return fmt.Errorf("snap: %d options exceed limit %d", len(s.Opts), maxOpts)
	}
	putU16(b, uint16(len(s.Opts)))
	for _, o := range s.Opts {
		if err := putString(b, o.Name); err != nil {
			return err
		}
		b.WriteByte(o.Tag)
		switch o.Tag {
		case tagInt:
			putU64(b, uint64(o.Int))
		case tagIntPair:
			putU64(b, uint64(o.Int))
			putU64(b, uint64(o.Int2))
		case tagFloat:
			putU64(b, math.Float64bits(o.Float))
		case tagString:
			if err := putString(b, o.Str); err != nil {
				return err
			}
		case tagSpec:
			if o.Spec == nil {
				return fmt.Errorf("snap: option %q has a nil nested spec", o.Name)
			}
			if err := encodeSpec(b, o.Spec, depth+1); err != nil {
				return err
			}
		default:
			return fmt.Errorf("snap: option %q has unknown tag %d", o.Name, o.Tag)
		}
	}
	return nil
}

// decodeSpec parses one spec from the front of b, returning the
// remaining bytes. All limits mirror encodeSpec's.
func decodeSpec(b []byte, depth int) (*Spec, []byte, error) {
	if depth > maxSpecDepth {
		return nil, nil, fmt.Errorf("snap: spec nesting deeper than %d: %w", maxSpecDepth, core.ErrCorrupt)
	}
	kind, b, err := getString(b)
	if err != nil {
		return nil, nil, err
	}
	if len(b) < 2 {
		return nil, nil, fmt.Errorf("snap: spec truncated before option count: %w", core.ErrCorrupt)
	}
	nopts := int(binary.LittleEndian.Uint16(b))
	b = b[2:]
	if nopts > maxOpts {
		return nil, nil, fmt.Errorf("snap: option count %d exceeds limit %d: %w", nopts, maxOpts, core.ErrCorrupt)
	}
	spec := &Spec{Kind: kind, Opts: make([]Opt, 0, nopts)}
	for i := 0; i < nopts; i++ {
		var o Opt
		if o.Name, b, err = getString(b); err != nil {
			return nil, nil, err
		}
		if len(b) < 1 {
			return nil, nil, fmt.Errorf("snap: option %q truncated before tag: %w", o.Name, core.ErrCorrupt)
		}
		o.Tag, b = b[0], b[1:]
		switch o.Tag {
		case tagInt:
			var v uint64
			if v, b, err = getU64(b); err != nil {
				return nil, nil, err
			}
			o.Int = int64(v)
		case tagIntPair:
			var v, v2 uint64
			if v, b, err = getU64(b); err != nil {
				return nil, nil, err
			}
			if v2, b, err = getU64(b); err != nil {
				return nil, nil, err
			}
			o.Int, o.Int2 = int64(v), int64(v2)
		case tagFloat:
			var v uint64
			if v, b, err = getU64(b); err != nil {
				return nil, nil, err
			}
			o.Float = math.Float64frombits(v)
		case tagString:
			if o.Str, b, err = getString(b); err != nil {
				return nil, nil, err
			}
		case tagSpec:
			if o.Spec, b, err = decodeSpec(b, depth+1); err != nil {
				return nil, nil, err
			}
		default:
			return nil, nil, fmt.Errorf("snap: option %q has unknown tag %d: %w", o.Name, o.Tag, core.ErrCorrupt)
		}
		spec.Opts = append(spec.Opts, o)
	}
	return spec, b, nil
}

func putU16(b *bytes.Buffer, v uint16) {
	var s [2]byte
	binary.LittleEndian.PutUint16(s[:], v)
	b.Write(s[:])
}

func putU32(b *bytes.Buffer, v uint32) {
	var s [4]byte
	binary.LittleEndian.PutUint32(s[:], v)
	b.Write(s[:])
}

func putU64(b *bytes.Buffer, v uint64) {
	var s [8]byte
	binary.LittleEndian.PutUint64(s[:], v)
	b.Write(s[:])
}

func putString(b *bytes.Buffer, s string) error {
	if len(s) > maxStringLen {
		return fmt.Errorf("snap: string of %d bytes exceeds limit %d", len(s), maxStringLen)
	}
	putU16(b, uint16(len(s)))
	b.WriteString(s)
	return nil
}

func getString(b []byte) (string, []byte, error) {
	if len(b) < 2 {
		return "", nil, fmt.Errorf("snap: string length truncated: %w", core.ErrCorrupt)
	}
	n := int(binary.LittleEndian.Uint16(b))
	b = b[2:]
	if n > maxStringLen {
		return "", nil, fmt.Errorf("snap: string of %d bytes exceeds limit %d: %w", n, maxStringLen, core.ErrCorrupt)
	}
	if len(b) < n {
		return "", nil, fmt.Errorf("snap: string truncated: %w", core.ErrCorrupt)
	}
	return string(b[:n]), b[n:], nil
}

func getU64(b []byte) (uint64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, fmt.Errorf("snap: word truncated: %w", core.ErrCorrupt)
	}
	return binary.LittleEndian.Uint64(b), b[8:], nil
}
