package harness

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/all.golden from this build")

// goldenPath holds the identity of every perf record All() emits at
// goldenConfig — op, kind, x, y_index — and, for each transfer-valued
// record, the exact bits of transfers_per_op. Rate records carry only
// their identity: wall-clock numbers are not reproducible.
const goldenPath = "testdata/all.golden"

var goldenConfig = Config{LogN: 12, LogNStart: 8, Searches: 512}

// TestAllTransfersGolden holds every figure in All() to the DAM charge
// stream it was recorded with, bit for bit, so a refactor of the
// measurement code is checked by go test and not only by a full-size
// streambench run against BENCH_0.json.
func TestAllTransfersGolden(t *testing.T) {
	var b strings.Builder
	transfers := 0
	for _, r := range PerfRecords(goldenConfig.All()) {
		fmt.Fprintf(&b, "%s\t%s\t%g\t%d", r.Op, r.Kind, r.X, r.YIndex)
		if r.NsPerOp == 0 {
			fmt.Fprintf(&b, "\t%016x", math.Float64bits(r.TransfersPerOp))
			transfers++
		}
		b.WriteByte('\n')
	}
	got := b.String()
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s: %d transfer-valued records", goldenPath, transfers)
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("record %d differs from %s:\n got  %q\n want %q", i, goldenPath, gl[i], wl[i])
		}
	}
	t.Fatalf("All() emitted %d records, %s holds %d", len(gl)-1, goldenPath, len(wl)-1)
}
