package hypothesis

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"strings"
	"testing"

	"repro/internal/harness"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/verdicts.golden from this build")

// verdictsGolden holds the verdict JSON, as streambench -hypothesis
// -json writes it, of every bundle whose metric is deterministic.
const verdictsGolden = "testdata/verdicts.golden"

// TestVerdictsGolden pins every deterministic bundle's verdict — arm
// labels, measured values and observed ratios — byte for byte at seed
// 42, so a refactor of the measurement path cannot move a number
// unnoticed. Regenerate with -update only for a change meant to move
// numbers.
func TestVerdictsGolden(t *testing.T) {
	var got bytes.Buffer
	enc := json.NewEncoder(&got)
	enc.SetIndent("", "  ")
	for _, name := range Names() {
		if b, _ := Get(name); b.Metric != MetricTransfersPerOp {
			continue
		}
		v, err := Run(name, harness.Config{Seed: 42})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	if *updateGolden {
		if err := os.WriteFile(verdictsGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(verdictsGolden)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("line %d differs from %s:\n got  %s\n want %s", i+1, verdictsGolden, gl[i], wl[i])
		}
	}
	t.Fatalf("verdicts hold %d lines, %s holds %d", len(gl), verdictsGolden, len(wl))
}
