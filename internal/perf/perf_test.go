package perf

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func sampleReport() *Report {
	rep := NewReport("test run")
	rep.Add(
		Result{Op: "figure-2-wall-clock", Kind: "2-COLA", LogN: 12, X: 12, NsPerOp: 812.5},
		Result{Op: "figure-2-transfers", Kind: "2-COLA", LogN: 12, X: 12, TransfersPerOp: 0.031},
		Result{Op: "gobench", Kind: "Fig2RandomInserts/2-COLA", NsPerOp: 900,
			AllocsPerOp: F(0), BytesPerOp: F(0)},
		Result{Op: "e6-transfers", Kind: "B-tree", X: 4096, YIndex: 1, TransfersPerOp: 2.5},
	)
	return rep
}

func TestReportRoundTrip(t *testing.T) {
	rep := sampleReport()
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !reflect.DeepEqual(rep, got) {
		t.Fatalf("round trip mismatch:\nwrote %+v\nread  %+v", rep, got)
	}
}

func TestReportFileRoundTrip(t *testing.T) {
	rep := sampleReport()
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !reflect.DeepEqual(rep, got) {
		t.Fatal("file round trip mismatch")
	}
}

func TestReadRejectsBadReports(t *testing.T) {
	cases := map[string]string{
		"future schema": `{"schema": 99, "host": {}, "results": []}`,
		"empty op":      `{"schema": 1, "host": {}, "results": [{"op": "", "kind": "x"}]}`,
		"duplicate key": `{"schema": 1, "host": {}, "results": [
			{"op": "a", "kind": "x"}, {"op": "a", "kind": "x"}]}`,
		"not json": `nope`,
	}
	for name, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("%s: Read accepted invalid report", name)
		}
	}
}

// mkPair builds a baseline/candidate pair sharing one record key, with
// the candidate's metrics scaled or overridden by mutate.
func mkPair(base Result, mutate func(*Result)) (*Report, *Report) {
	b := NewReport("base")
	b.Add(base)
	cand := base
	mutate(&cand)
	n := NewReport("cand")
	n.Add(cand)
	return b, n
}

func regressions(t *testing.T, b, n *Report, th Thresholds) []Delta {
	t.Helper()
	return Compare(b, n, th).Regressions()
}

func TestCompareNsThreshold(t *testing.T) {
	base := Result{Op: "bench", Kind: "insert", NsPerOp: 1000, Samples: 1 << 20}
	th := DefaultThresholds()

	b, n := mkPair(base, func(r *Result) { r.NsPerOp = 1240 })
	if regs := regressions(t, b, n, th); len(regs) != 0 {
		t.Fatalf("+24%% flagged under 25%% threshold: %+v", regs)
	}
	b, n = mkPair(base, func(r *Result) { r.NsPerOp = 1260 })
	regs := regressions(t, b, n, th)
	if len(regs) != 1 || regs[0].Metric != "ns/op" {
		t.Fatalf("+26%% not flagged: %+v", regs)
	}
}

func TestCompareNsNoiseFloor(t *testing.T) {
	base := Result{Op: "bench", Kind: "search", NsPerOp: 10, Samples: 1 << 20}
	b, n := mkPair(base, func(r *Result) { r.NsPerOp = 20 })
	if regs := regressions(t, b, n, DefaultThresholds()); len(regs) != 0 {
		t.Fatalf("sub-noise-floor regression flagged: %+v", regs)
	}
}

// TestCompareNsSampleFloor pins the rule that saves the gate from
// flaking: one-shot figure windows (small or absent sample counts)
// are never ns-gated, however large the delta.
func TestCompareNsSampleFloor(t *testing.T) {
	th := DefaultThresholds()
	for _, samples := range []int{0, 100, th.MinSamples - 1} {
		base := Result{Op: "fig", Kind: "2-COLA", NsPerOp: 1000, Samples: samples}
		b, n := mkPair(base, func(r *Result) { r.NsPerOp = 4000 })
		if regs := regressions(t, b, n, th); len(regs) != 0 {
			t.Fatalf("samples=%d: under-sampled ns/op gated: %+v", samples, regs)
		}
	}
	base := Result{Op: "fig", Kind: "2-COLA", NsPerOp: 1000, Samples: th.MinSamples}
	b, n := mkPair(base, func(r *Result) { r.NsPerOp = 4000 })
	if regs := regressions(t, b, n, th); len(regs) != 1 {
		t.Fatalf("well-sampled ns/op not gated: %+v", regs)
	}
}

func TestCompareHostGatesNs(t *testing.T) {
	base := Result{Op: "bench", Kind: "insert", NsPerOp: 1000, Samples: 1 << 20}
	b, n := mkPair(base, func(r *Result) { r.NsPerOp = 5000 })
	b.Host.NumCPU = n.Host.NumCPU + 4 // different fingerprint

	c := Compare(b, n, DefaultThresholds())
	if c.SameHost || c.NsGated {
		t.Fatal("differing hosts treated as comparable")
	}
	if regs := c.Regressions(); len(regs) != 0 {
		t.Fatalf("cross-host ns/op gated without -strict-ns: %+v", regs)
	}
	th := DefaultThresholds()
	th.StrictNs = true
	if regs := regressions(t, b, n, th); len(regs) != 1 {
		t.Fatalf("StrictNs did not gate cross-host ns/op: %+v", regs)
	}
}

func TestCompareAllocsAbsolute(t *testing.T) {
	base := Result{Op: "gobench", Kind: "search", NsPerOp: 1000, AllocsPerOp: F(0)}
	b, n := mkPair(base, func(r *Result) { r.AllocsPerOp = F(1) })
	regs := regressions(t, b, n, DefaultThresholds())
	if len(regs) != 1 || regs[0].Metric != "allocs/op" {
		t.Fatalf("0 -> 1 allocs/op not flagged: %+v", regs)
	}
	// "Not measured" on either side must not gate.
	b, n = mkPair(base, func(r *Result) { r.AllocsPerOp = nil })
	if regs := regressions(t, b, n, DefaultThresholds()); len(regs) != 0 {
		t.Fatalf("unmeasured allocs gated: %+v", regs)
	}
}

func TestCompareTransfers(t *testing.T) {
	base := Result{Op: "fig", Kind: "2-COLA", TransfersPerOp: 1.0}
	b, n := mkPair(base, func(r *Result) { r.TransfersPerOp = 1.5 })
	regs := regressions(t, b, n, DefaultThresholds())
	if len(regs) != 1 || regs[0].Metric != "transfers/op" {
		t.Fatalf("transfer regression not flagged: %+v", regs)
	}
	b, n = mkPair(base, func(r *Result) { r.TransfersPerOp = 1.005 })
	if regs := regressions(t, b, n, DefaultThresholds()); len(regs) != 0 {
		t.Fatalf("within-tolerance transfer delta flagged: %+v", regs)
	}
}

func TestCompareUnmatchedKeys(t *testing.T) {
	b := NewReport("base")
	b.Add(Result{Op: "old", Kind: "gone", NsPerOp: 1})
	n := NewReport("cand")
	n.Add(Result{Op: "new", Kind: "added", NsPerOp: 1})
	c := Compare(b, n, DefaultThresholds())
	if len(c.Regressions()) != 0 {
		t.Fatal("unmatched records must not gate")
	}
	if len(c.OnlyBase) != 1 || len(c.OnlyNew) != 1 {
		t.Fatalf("unmatched records not reported: %+v / %+v", c.OnlyBase, c.OnlyNew)
	}
}

func TestParseGoBench(t *testing.T) {
	const out = `
goos: linux
goarch: amd64
pkg: repro
BenchmarkFig2RandomInserts/2-COLA-8         	     100	      5321 ns/op	         0.5000 transfers/op	     128 B/op	       2 allocs/op
BenchmarkFig2RandomInserts/B-tree-8         	     100	     95321 ns/op	         3.100 transfers/op	    4096 B/op	      11 allocs/op
BenchmarkShardedSearch/shards=4-8           	     100	       912 ns/op	       0 B/op	       0 allocs/op
BenchmarkSnapshotEncode/ram-8               	     100	   4569795 ns/op	6282.79 MB/s	       0 B/op	       0 allocs/op
PASS
ok  	repro	1.234s
`
	got, err := ParseGoBench(strings.NewReader(out))
	if err != nil {
		t.Fatalf("ParseGoBench: %v", err)
	}
	if len(got) != 4 {
		t.Fatalf("parsed %d records, want 4: %+v", len(got), got)
	}
	if enc := got[3]; enc.MBPerSec != 6282.79 || enc.NsPerOp != 4569795 || *enc.AllocsPerOp != 0 {
		t.Fatalf("bad SetBytes record: %+v", enc)
	}
	first := got[0]
	if first.Op != "gobench" || first.Kind != "repro:Fig2RandomInserts/2-COLA" {
		t.Fatalf("bad identity: %+v", first)
	}
	if first.NsPerOp != 5321 || first.TransfersPerOp != 0.5 || first.Samples != 100 {
		t.Fatalf("bad metrics: %+v", first)
	}
	if first.AllocsPerOp == nil || *first.AllocsPerOp != 2 || *first.BytesPerOp != 128 {
		t.Fatalf("bad memory metrics: %+v", first)
	}
	last := got[2]
	if last.Kind != "repro:ShardedSearch/shards=4" {
		t.Fatalf("cpu suffix not trimmed or pkg not applied: %q", last.Kind)
	}
	if last.AllocsPerOp == nil || *last.AllocsPerOp != 0 {
		t.Fatal("measured-zero allocs must round-trip as measured")
	}
}

// TestParseGoBenchMultiPackage pins the identity rule that keeps
// same-named benchmarks from different packages from colliding on
// Result.Key (go test -bench . ./... spans packages).
func TestParseGoBenchMultiPackage(t *testing.T) {
	const out = `
pkg: repro/internal/cola
BenchmarkInsert-8	1000	100 ns/op
pkg: repro/internal/shard
BenchmarkInsert-8	1000	200 ns/op
`
	got, err := ParseGoBench(strings.NewReader(out))
	if err != nil {
		t.Fatalf("ParseGoBench: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("parsed %d records, want 2", len(got))
	}
	if got[0].Key() == got[1].Key() {
		t.Fatalf("same-named benchmarks in different packages collide: %s", got[0].Key())
	}
	if got[0].Kind != "repro/internal/cola:Insert" || got[1].Kind != "repro/internal/shard:Insert" {
		t.Fatalf("bad kinds: %q, %q", got[0].Kind, got[1].Kind)
	}
}

func TestTrimCPUSuffix(t *testing.T) {
	cases := map[string]string{
		"Fig2/2-COLA-8": "Fig2/2-COLA",
		"Fig2/2-COLA":   "Fig2/2-COLA", // trailing token is not digits
		"Plain-16":      "Plain",
		"Plain":         "Plain",
		"Trailing-":     "Trailing-",
	}
	for in, want := range cases {
		if got := trimCPUSuffix(in); got != want {
			t.Errorf("trimCPUSuffix(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestComparisonMarkdown(t *testing.T) {
	base := Result{Op: "fig", Kind: "2-COLA", TransfersPerOp: 1.0}
	b, n := mkPair(base, func(r *Result) { r.TransfersPerOp = 1.5 })
	c := Compare(b, n, DefaultThresholds())

	var sb strings.Builder
	if err := c.Markdown(&sb, false); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"1 regression(s)", "|transfers/op|", "REGRESSION", "|---|"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown lacks %q:\n%s", want, out)
		}
	}

	// A clean comparison says so and, non-verbose, emits no table rows.
	b2, n2 := mkPair(base, func(r *Result) {})
	var clean strings.Builder
	if err := Compare(b2, n2, DefaultThresholds()).Markdown(&clean, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(clean.String(), "no regressions") || strings.Contains(clean.String(), "REGRESSION") {
		t.Errorf("clean markdown wrong:\n%s", clean.String())
	}
}
