package cola

import (
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"repro/internal/extmem"
	"repro/internal/workload"
)

// mustPanic runs f and returns the message it panicked with.
func mustPanic(t *testing.T, f func()) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic")
		}
		msg = fmt.Sprint(r)
	}()
	f()
	return ""
}

// levelShape is what a failed merge must leave as it found it: where each
// level's cells are and which image holds them.
type levelShape struct {
	ext             *extmem.Level
	start, real, la int
}

func levelShapes(c *GCOLA) (shapes []levelShape) {
	for _, lv := range c.levels {
		shapes = append(shapes, levelShape{lv.ext, lv.start, lv.real, lv.la})
	}
	return shapes
}

// requireMergeUndone checks that the spill directory holds no temp file
// and the structure is the one from before the failed insert: the same
// levels with the same images, every key still found.
func requireMergeUndone(t *testing.T, c *GCOLA, shape []levelShape, keys []uint64) {
	t.Helper()
	if tmp, _ := filepath.Glob(filepath.Join(c.ext.Dir(), "*.tmp")); len(tmp) != 0 {
		t.Fatalf("the failed merge left %v behind", tmp)
	}
	for l, lv := range levelShapes(c) {
		if l < len(shape) && lv != shape[l] || l >= len(shape) && lv.real+lv.la != 0 {
			t.Fatalf("level %d changed under the failed merge: %+v", l, lv)
		}
	}
	c.n-- // Insert counted the key the merge then lost
	c.checkInvariants()
	for _, k := range keys {
		if v, ok := c.Search(k); !ok || v != k+1 {
			t.Fatalf("Search(%d) = (%d, %v) after the failed merge", k, v, ok)
		}
	}
}

// TestSpilledMergeWriteFailure makes the level image's file fail in the
// middle of a run — the process's file size limit is lowered to 300 KiB
// for the one insert whose cascade writes a 560 KiB level — and, in a
// second structure, makes it impossible to create at all. Either way the
// insert panics with the spill path's message, the half-written image is
// gone, and the levels are the ones from before.
func TestSpilledMergeWriteFailure(t *testing.T) {
	fill := func(c *GCOLA) (keys []uint64) {
		seq := workload.NewRandomUnique(29)
		for i := 0; i < 1<<14-1; i++ { // levels 0..13 full: the next insert carries into 14
			k := seq.Next()
			keys = append(keys, k)
			c.Insert(k, k+1)
		}
		return keys
	}

	t.Run("mid-run", func(t *testing.T) {
		c := openSpilled(t, Options{Growth: 2, PointerDensity: DefaultPointerDensity})
		keys := fill(c)
		shape := levelShapes(c)

		var old syscall.Rlimit
		if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
			t.Skipf("getrlimit: %v", err)
		}
		signal.Ignore(syscall.SIGXFSZ) // a write past the limit then fails with EFBIG instead of killing the process
		defer signal.Reset(syscall.SIGXFSZ)
		if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &syscall.Rlimit{Cur: 300 << 10, Max: old.Max}); err != nil {
			t.Skipf("setrlimit: %v", err)
		}
		msg := mustPanic(t, func() {
			defer syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old) //nolint:errcheck // raising the soft limit back to where it was
			c.Insert(1, 2)
		})
		if !strings.HasPrefix(msg, "cola: level 14 spill write: extmem: write chunk 64 of level 14: ") {
			t.Fatalf("panic %q", msg)
		}
		requireMergeUndone(t, c, shape, keys)
	})

	t.Run("create", func(t *testing.T) {
		c := openSpilled(t, Options{Growth: 2, PointerDensity: DefaultPointerDensity})
		keys := fill(c)
		shape := levelShapes(c)
		dir := c.ext.Dir()
		if err := os.Rename(dir, dir+".away"); err != nil {
			t.Fatal(err)
		}
		msg := mustPanic(t, func() { c.Insert(1, 2) })
		if !strings.HasPrefix(msg, "cola: level 14 spill writer: extmem: create level 14 image: ") {
			t.Fatalf("panic %q", msg)
		}
		if err := os.Rename(dir+".away", dir); err != nil {
			t.Fatal(err)
		}
		requireMergeUndone(t, c, shape, keys)
	})
}
