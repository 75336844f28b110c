package shard

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/core"
)

// Composed snapshot codec: the sharded map persists itself as its
// partition vector, each shard's payload produced by (and restored
// through) the inner dictionary's own core.Snapshotter. Layout,
// little-endian:
//
//	magic "SHRD" | version u32 | shard count u32 |
//	per shard: payload length u64 | payload bytes
//
// Keys route to shards by hash, so the shard count is part of the
// format: a snapshot only restores into a map with the same number of
// partitions (the registry's Save records the count for exactly this
// reason). Inner payloads self-identify, so feeding a shard section to
// the wrong inner kind fails with its ErrBadMagic rather than a
// misparse.
const (
	snapshotMagic   = "SHRD"
	snapshotVersion = 1

	// maxShardPayload bounds one shard's claimed payload length; the
	// buffer still grows only with bytes actually read.
	maxShardPayload = int64(1) << 40
)

var _ core.Snapshotter = (*Map)(nil)

// WriteTo implements io.WriterTo. Every shard's inner dictionary must
// implement core.Snapshotter. Shards are serialized one at a time under
// their own locks (the usual weakly-consistent aggregate view: writers
// concurrent with WriteTo land in the snapshot or not per shard).
func (m *Map) WriteTo(w io.Writer) (int64, error) {
	var head [8]byte
	var n int64
	writeAll := func(b []byte) error {
		k, err := w.Write(b)
		n += int64(k)
		return err
	}
	if err := writeAll([]byte(snapshotMagic)); err != nil {
		return n, err
	}
	binary.LittleEndian.PutUint32(head[0:4], snapshotVersion)
	binary.LittleEndian.PutUint32(head[4:8], uint32(len(m.shards)))
	if err := writeAll(head[:8]); err != nil {
		return n, err
	}
	var buf bytes.Buffer
	for i, s := range m.shards {
		if _, ok := s.Unwrap().(core.Snapshotter); !ok {
			return n, fmt.Errorf("shard: inner dictionary %T is not a Snapshotter", s.Unwrap())
		}
		buf.Reset()
		if _, err := s.WriteTo(&buf); err != nil {
			return n, fmt.Errorf("shard: snapshotting shard %d: %w", i, err)
		}
		binary.LittleEndian.PutUint64(head[:8], uint64(buf.Len()))
		if err := writeAll(head[:8]); err != nil {
			return n, err
		}
		if err := writeAll(buf.Bytes()); err != nil {
			return n, err
		}
	}
	return n, nil
}

// ReadFrom implements io.ReaderFrom: it restores a WriteTo stream into
// a freshly built, empty map with the same shard count (rebuild with
// WithShards on a mismatch). Each shard's section is buffered in full
// and handed to the inner dictionary's ReadFrom as an exact in-memory
// slice, so inner decoders can never over-consume a neighbour's bytes;
// then every key the shard holds must route to it, or the stream is
// corrupt (sections in the wrong order would load and then miss every
// search). A failed ReadFrom leaves the map unusable: build a new one.
func (m *Map) ReadFrom(r io.Reader) (int64, error) {
	if m.Len() != 0 {
		return 0, errors.New("shard: ReadFrom into a non-empty map")
	}
	var head [8]byte
	var n int64
	readFull := func(b []byte) error {
		if _, err := io.ReadFull(r, b); err != nil {
			return fmt.Errorf("shard: snapshot truncated at byte %d: %w", n, core.ErrCorrupt)
		}
		n += int64(len(b))
		return nil
	}
	magic := make([]byte, len(snapshotMagic))
	if err := readFull(magic); err != nil {
		return n, err
	}
	if string(magic) != snapshotMagic {
		return n, fmt.Errorf("shard: snapshot magic %q, want %q: %w", magic, snapshotMagic, core.ErrBadMagic)
	}
	if err := readFull(head[:8]); err != nil {
		return n, err
	}
	if v := binary.LittleEndian.Uint32(head[0:4]); v != snapshotVersion {
		return n, fmt.Errorf("shard: snapshot version %d, this build reads %d: %w",
			v, snapshotVersion, core.ErrBadVersion)
	}
	if count := binary.LittleEndian.Uint32(head[4:8]); int(count) != len(m.shards) {
		return n, fmt.Errorf("shard: snapshot has %d shards, map built with %d (rebuild with WithShards(%d))",
			count, len(m.shards), count)
	}
	var section bytes.Buffer
	for i, s := range m.shards {
		if _, ok := s.Unwrap().(core.Snapshotter); !ok {
			return n, fmt.Errorf("shard: inner dictionary %T is not a Snapshotter", s.Unwrap())
		}
		if err := readFull(head[:8]); err != nil {
			return n, err
		}
		payloadLen := int64(binary.LittleEndian.Uint64(head[:8]))
		if payloadLen < 0 || payloadLen > maxShardPayload {
			return n, fmt.Errorf("shard: shard %d payload length %d out of range: %w",
				i, payloadLen, core.ErrCorrupt)
		}
		section.Reset()
		copied, err := io.Copy(&section, io.LimitReader(r, payloadLen))
		n += copied
		if err != nil || copied != payloadLen {
			return n, fmt.Errorf("shard: shard %d payload truncated at %d of %d bytes: %w",
				i, copied, payloadLen, core.ErrCorrupt)
		}
		if _, err := s.ReadFrom(bytes.NewReader(section.Bytes())); err != nil {
			return n, fmt.Errorf("shard: restoring shard %d: %w", i, err)
		}
		stray, misrouted := uint64(0), false
		s.Range(0, math.MaxUint64, func(e core.Element) bool {
			stray, misrouted = e.Key, m.shardIdxOf(e.Key) != i
			return !misrouted
		})
		if misrouted {
			return n, fmt.Errorf("shard: shard %d's section holds key %#x, which routes to shard %d: %w",
				i, stray, m.shardIdxOf(stray), core.ErrCorrupt)
		}
	}
	return n, nil
}
