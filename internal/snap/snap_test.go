package snap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

// payloadBytes is a trivial WriterTo for container tests.
type payloadBytes []byte

func (p payloadBytes) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(p)
	return int64(n), err
}

func testSpec() *Spec {
	return &Spec{
		Kind: "sharded",
		Opts: []Opt{
			Int("WithShards", 8),
			IntPair("WithShardDAM", 4096, 1<<20),
			Nested("WithInner", &Spec{
				Kind: "gcola",
				Opts: []Opt{
					Int("WithGrowthFactor", 4),
					Float("WithPointerDensity", 0.1),
					String("WithWALPath", "x.wal"),
				},
			}),
		},
	}
}

func encodeValid(t testing.TB, spec *Spec, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := Encode(&buf, spec, payloadBytes(payload)); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return buf.Bytes()
}

func TestContainerRoundTrip(t *testing.T) {
	want := testSpec()
	payload := []byte("structure payload bytes \x00\x01\x02")
	data := encodeValid(t, want, payload)

	got, pr, err := Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("spec mismatch:\n got %+v\nwant %+v", got, want)
	}
	back, err := io.ReadAll(pr)
	if err != nil || !bytes.Equal(back, payload) {
		t.Fatalf("payload mismatch: %q (%v)", back, err)
	}
}

// mustClose closes c and fails the test on error (durerr: a dropped
// Close can hide a failed flush).
func mustClose(t testing.TB, c io.Closer) {
	t.Helper()
	if err := c.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
}

// countedPayload is a WriterTo that writes in several pieces and counts
// its calls: Encode must run it exactly once per container.
type countedPayload struct {
	pieces [][]byte
	calls  int
	fail   error // returned after the pieces, if set
}

func (p *countedPayload) WriteTo(w io.Writer) (int64, error) {
	p.calls++
	var n int64
	for _, piece := range p.pieces {
		k, err := w.Write(piece)
		n += int64(k)
		if err != nil {
			return n, err
		}
	}
	return n, p.fail
}

// TestEncodeDestinations: every kind of destination receives the same
// container bytes from one WriteTo call — a file (length patched in
// place), a file written from a nonzero offset, and the destinations
// that cannot be patched and are staged instead: a buffer, a file
// opened for append, a pipe.
func TestEncodeDestinations(t *testing.T) {
	spec := testSpec()
	pieces := [][]byte{[]byte("first piece "), bytes.Repeat([]byte{0xA5}, 70000), []byte(" last piece")}
	want := encodeValid(t, spec, bytes.Join(pieces, nil))
	if _, payload, err := Decode(bytes.NewReader(want)); err != nil || payload.Len() != len(bytes.Join(pieces, nil)) {
		t.Fatalf("staged container does not decode: %v", err)
	}
	dir := t.TempDir()
	encodeTo := func(t *testing.T, f *os.File) {
		t.Helper()
		p := &countedPayload{pieces: pieces}
		n, err := Encode(f, spec, p)
		if err != nil || n != int64(len(want)) {
			t.Fatalf("Encode = (%d, %v), want %d bytes", n, err, len(want))
		}
		if p.calls != 1 {
			t.Fatalf("WriteTo ran %d times, want exactly once", p.calls)
		}
	}
	readBack := func(t *testing.T, path string, skip int) {
		t.Helper()
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[skip:], want) {
			t.Fatalf("destination holds %d bytes that differ from the staged container's %d", len(got)-skip, len(want))
		}
	}

	t.Run("file", func(t *testing.T) {
		path := filepath.Join(dir, "plain")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer mustClose(t, f)
		encodeTo(t, f)
		// The patch must not move the file position: a caller may append.
		if pos, err := f.Seek(0, io.SeekCurrent); err != nil || pos != int64(len(want)) {
			t.Fatalf("file position after Encode = (%d, %v), want %d", pos, err, len(want))
		}
		readBack(t, path, 0)
	})
	t.Run("file at an offset", func(t *testing.T) {
		path := filepath.Join(dir, "offset")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer mustClose(t, f)
		if _, err := f.WriteString("prefix!"); err != nil {
			t.Fatal(err)
		}
		encodeTo(t, f)
		readBack(t, path, len("prefix!"))
	})
	t.Run("append-mode file", func(t *testing.T) {
		path := filepath.Join(dir, "append")
		if err := os.WriteFile(path, []byte("prefix!"), 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer mustClose(t, f)
		encodeTo(t, f)
		readBack(t, path, len("prefix!"))
	})
	t.Run("pipe", func(t *testing.T) {
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		defer mustClose(t, r)
		got := make(chan []byte, 1)
		go func() {
			b, _ := io.ReadAll(r)
			got <- b
		}()
		encodeTo(t, w)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if b := <-got; !bytes.Equal(b, want) {
			t.Fatalf("pipe carried %d bytes that differ from the staged container's %d", len(b), len(want))
		}
	})
}

// TestEncodeFailedPayload: a WriteTo error surfaces wrapped; a staged
// destination has then received nothing, and a file no patched length
// (its container stays invalid).
func TestEncodeFailedPayload(t *testing.T) {
	boom := errors.New("boom")
	p := &countedPayload{pieces: [][]byte{[]byte("partial")}, fail: boom}
	var buf bytes.Buffer
	if n, err := Encode(&buf, testSpec(), p); !errors.Is(err, boom) || n != 0 || buf.Len() != 0 {
		t.Fatalf("staged Encode = (%d, %v) with %d bytes delivered, want (0, boom) and none", n, err, buf.Len())
	}
	path := filepath.Join(t.TempDir(), "torn")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, f)
	if _, err := Encode(f, testSpec(), p); !errors.Is(err, boom) {
		t.Fatalf("file Encode error = %v, want boom", err)
	}
	torn, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Decode(bytes.NewReader(torn)); !errors.Is(err, core.ErrCorrupt) {
		t.Fatalf("a torn container decodes with %v, want ErrCorrupt", err)
	}
}

func TestContainerEmptyPayloadAndOpts(t *testing.T) {
	data := encodeValid(t, &Spec{Kind: "cola"}, nil)
	got, pr, err := Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != "cola" || len(got.Opts) != 0 || pr.Len() != 0 {
		t.Fatalf("got %+v, payload len %d", got, pr.Len())
	}
}

func TestContainerTypedErrors(t *testing.T) {
	data := encodeValid(t, testSpec(), []byte("payload"))

	t.Run("bad magic", func(t *testing.T) {
		b := append([]byte(nil), data...)
		copy(b, "JUNK")
		if _, _, err := Decode(bytes.NewReader(b)); !errors.Is(err, core.ErrBadMagic) {
			t.Fatalf("got %v, want ErrBadMagic", err)
		}
	})
	t.Run("future version", func(t *testing.T) {
		b := append([]byte(nil), data...)
		binary.LittleEndian.PutUint32(b[4:8], Version+1)
		if _, _, err := Decode(bytes.NewReader(b)); !errors.Is(err, core.ErrBadVersion) {
			t.Fatalf("got %v, want ErrBadVersion", err)
		}
	})
	t.Run("not a snapshot at all", func(t *testing.T) {
		if _, _, err := Decode(strings.NewReader("hello world, definitely not a container")); !errors.Is(err, core.ErrBadMagic) {
			t.Fatalf("got %v, want ErrBadMagic", err)
		}
	})
	t.Run("empty stream", func(t *testing.T) {
		// Zero bytes is "not a container", not a torn one: the empty
		// prefix matches the magic vacuously and must not read as damage.
		if _, _, err := Decode(strings.NewReader("")); !errors.Is(err, core.ErrBadMagic) {
			t.Fatalf("got %v, want ErrBadMagic", err)
		}
	})
	t.Run("header bit flip", func(t *testing.T) {
		b := append([]byte(nil), data...)
		b[14] ^= 0x40 // inside the header bytes
		if _, _, err := Decode(bytes.NewReader(b)); !errors.Is(err, core.ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
	t.Run("payload bit flip", func(t *testing.T) {
		b := append([]byte(nil), data...)
		b[len(b)-6] ^= 0x01 // inside the payload bytes
		if _, _, err := Decode(bytes.NewReader(b)); !errors.Is(err, core.ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
	t.Run("oversized header length", func(t *testing.T) {
		b := append([]byte(nil), data...)
		binary.LittleEndian.PutUint32(b[8:12], maxHeaderBytes+1)
		if _, _, err := Decode(bytes.NewReader(b)); !errors.Is(err, core.ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
	t.Run("lying payload length", func(t *testing.T) {
		b := append([]byte(nil), data...)
		// The payload length sits right after header+CRC; find it by
		// recomputing the layout.
		hlen := binary.LittleEndian.Uint32(b[8:12])
		off := 12 + int(hlen) + 4
		binary.LittleEndian.PutUint64(b[off:off+8], 1<<40)
		if _, _, err := Decode(bytes.NewReader(b)); !errors.Is(err, core.ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
	t.Run("every truncation point", func(t *testing.T) {
		for cut := 0; cut < len(data); cut++ {
			if _, _, err := Decode(bytes.NewReader(data[:cut])); err == nil {
				t.Fatalf("accepted container truncated at %d/%d", cut, len(data))
			}
		}
	})
}

func TestContainerLimits(t *testing.T) {
	if _, err := Encode(io.Discard, &Spec{Kind: strings.Repeat("k", maxStringLen+1)}, payloadBytes(nil)); err == nil {
		t.Fatal("Encode accepted an oversized kind name")
	}
	deep := &Spec{Kind: "leaf"}
	for i := 0; i < maxSpecDepth+2; i++ {
		deep = &Spec{Kind: "wrap", Opts: []Opt{Nested("WithInner", deep)}}
	}
	if _, err := Encode(io.Discard, deep, payloadBytes(nil)); err == nil {
		t.Fatal("Encode accepted over-deep nesting")
	}
	many := &Spec{Kind: "k"}
	for i := 0; i <= maxOpts; i++ {
		many.Opts = append(many.Opts, Int("WithShards", int64(i)))
	}
	if _, err := Encode(io.Discard, many, payloadBytes(nil)); err == nil {
		t.Fatal("Encode accepted too many options")
	}
}

// FuzzReadFrom fuzzes the container decoder (the satellite's name for
// the entry point; Decode is the container's ReadFrom): seeded with
// valid containers, the fuzzer mutates freely and the decoder must
// never panic, loop, or allocate unboundedly — any outcome other than a
// clean (spec, payload) or a typed error is a bug. When a mutant still
// decodes, re-encoding its spec must round-trip (the format is
// canonical for what it accepts).
func FuzzReadFrom(f *testing.F) {
	f.Add(encodeValid(f, testSpec(), []byte("some payload")))
	f.Add(encodeValid(f, &Spec{Kind: "cola"}, nil))
	f.Add(encodeValid(f, &Spec{
		Kind: "durable",
		Opts: []Opt{String("WithWALPath", "a.wal"), Int("WithCheckpointEvery", 64)},
	}, bytes.Repeat([]byte{0xAB}, 1024)))
	f.Add([]byte(Magic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, pr, err := Decode(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, core.ErrBadMagic) && !errors.Is(err, core.ErrBadVersion) && !errors.Is(err, core.ErrCorrupt) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		payload, err := io.ReadAll(pr)
		if err != nil {
			t.Fatalf("reading verified payload: %v", err)
		}
		var buf bytes.Buffer
		if _, err := Encode(&buf, spec, payloadBytes(payload)); err != nil {
			t.Fatalf("re-encoding accepted spec: %v", err)
		}
		spec2, _, err := Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-decoding own encoding: %v", err)
		}
		if !reflect.DeepEqual(spec, spec2) {
			t.Fatalf("spec not canonical:\n first %+v\nsecond %+v", spec, spec2)
		}
	})
}
