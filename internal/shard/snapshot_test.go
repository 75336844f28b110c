package shard

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
)

// snapshotKey spreads sequential indices over the key space and so
// over every shard.
func snapshotKey(i int) uint64 { return uint64(i+1) * 0xD1B54A32D192ED03 }

// validStream is the WriteTo stream of a two-shard map of n keys.
func validStream(tb testing.TB, n int) []byte {
	tb.Helper()
	m := New(WithShards(2))
	for i := 0; i < n; i++ {
		m.Insert(snapshotKey(i), uint64(i))
	}
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// swapSections returns a two-shard stream with its two sections in
// each other's place: every section is intact, and every key sits in
// the shard it does not route to.
func swapSections(stream []byte) []byte {
	const head = len(snapshotMagic) + 8
	end0 := head + 8 + int(binary.LittleEndian.Uint64(stream[head:]))
	out := append([]byte(nil), stream[:head]...)
	out = append(out, stream[end0:]...)
	return append(out, stream[head:end0]...)
}

// TestReadFromRejectsMisroutedSections: a stream whose sections were
// swapped decodes section by section, but its keys route to the other
// shard, so every search would miss; ReadFrom reports it as corrupt.
func TestReadFromRejectsMisroutedSections(t *testing.T) {
	const n = 10_000
	stream := validStream(t, n)
	m := New(WithShards(2))
	if _, err := m.ReadFrom(bytes.NewReader(stream)); err != nil {
		t.Fatalf("intact stream: %v", err)
	}
	for i := 0; i < n; i++ {
		if v, ok := m.Search(snapshotKey(i)); !ok || v != uint64(i) {
			t.Fatalf("intact stream: key %d: Search = (%d, %v)", i, v, ok)
		}
	}
	if _, err := New(WithShards(2)).ReadFrom(bytes.NewReader(swapSections(stream))); !errors.Is(err, core.ErrCorrupt) {
		t.Fatalf("swapped sections: err = %v, want ErrCorrupt", err)
	}
}

// FuzzReadFrom: any byte string either fails to decode into a fresh
// two-shard map with a typed error (or a configuration mismatch: a
// stream of another shard count, a section of another growth factor or
// pointer density), or loads a map whose every key sits in the shard it
// routes to and is found by Search.
func FuzzReadFrom(f *testing.F) {
	stream := validStream(f, 1_000)
	f.Add(stream)
	f.Add(swapSections(stream))
	f.Add(stream[:len(stream)/2])

	f.Fuzz(func(t *testing.T, data []byte) {
		m := New(WithShards(2))
		if _, err := m.ReadFrom(bytes.NewReader(data)); err != nil {
			if errors.Is(err, core.ErrBadMagic) || errors.Is(err, core.ErrBadVersion) || errors.Is(err, core.ErrCorrupt) {
				return
			}
			if strings.Contains(err.Error(), "map built with") || strings.Contains(err.Error(), "structure configured with") {
				return
			}
			t.Fatalf("untyped decode error: %v", err)
		}
		for i := 0; i < m.NumShards(); i++ {
			m.InnerAt(i).Range(0, ^uint64(0), func(e core.Element) bool {
				if got := m.shardIdxOf(e.Key); got != i {
					t.Fatalf("key %#x loaded into shard %d, routes to %d", e.Key, i, got)
				}
				if v, ok := m.Search(e.Key); !ok || v != e.Value {
					t.Fatalf("key %#x ranged with value %d, Search = (%d, %v)", e.Key, e.Value, v, ok)
				}
				return true
			})
		}
	})
}
