package harness

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/registry"
)

// small returns a config tiny enough for unit tests.
func small() Config {
	return Config{LogN: 11, LogNStart: 9, CacheBytes: 1 << 15, Searches: 1 << 7}
}

func TestDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.LogN != 18 || c.BlockBytes != 4096 || c.Seed == 0 {
		t.Fatalf("defaults wrong: %+v", c)
	}
	// Start may not exceed end.
	c2 := Config{LogN: 8, LogNStart: 12}.withDefaults()
	if c2.LogNStart > c2.LogN {
		t.Fatalf("LogNStart %d > LogN %d", c2.LogNStart, c2.LogN)
	}
}

func TestFigure2ShapeHolds(t *testing.T) {
	res := small().Figure2For(paperLineup)
	if len(res) != 2 {
		t.Fatalf("Figure2 returned %d results", len(res))
	}
	// The transfer result must show the COLA beating the B-tree on
	// random inserts at the largest N (the paper's headline).
	tr := res[1]
	perName := map[string]float64{}
	for _, s := range tr.Series {
		perName[s.Name] = s.Y[len(s.Y)-1]
	}
	if perName["2-COLA"] >= perName["B-tree"] {
		t.Fatalf("2-COLA transfers/insert (%v) not below B-tree (%v)",
			perName["2-COLA"], perName["B-tree"])
	}
}

func TestFigure3BTreeWinsSorted(t *testing.T) {
	res := small().Figure3For(paperLineup)
	tr := res[1]
	perName := map[string]float64{}
	for _, s := range tr.Series {
		perName[s.Name] = s.Y[len(s.Y)-1]
	}
	// Sorted inserts are the B-tree's best case: it must be within a
	// small factor of (typically below) the COLAs on transfers.
	if perName["B-tree"] > 4*perName["4-COLA"]+0.5 {
		t.Fatalf("B-tree sorted-insert transfers (%v) unexpectedly dominate 4-COLA (%v)",
			perName["B-tree"], perName["4-COLA"])
	}
}

func TestFigure4BTreeSearchWins(t *testing.T) {
	res := small().Figure4For(paperLineup)
	tr := res[1]
	perName := map[string]float64{}
	for _, s := range tr.Series {
		perName[s.Name] = s.Y[len(s.Y)-1]
	}
	if perName["B-tree"] > perName["4-COLA"] {
		t.Fatalf("B-tree search transfers (%v) exceed 4-COLA (%v); search tradeoff inverted",
			perName["B-tree"], perName["4-COLA"])
	}
}

func TestFigure5ThreeOrders(t *testing.T) {
	res := small().Figure5()
	if len(res[0].Series) != 3 {
		t.Fatalf("Figure5 has %d series, want 3", len(res[0].Series))
	}
	names := map[string]bool{}
	for _, s := range res[0].Series {
		names[s.Name] = true
	}
	for _, want := range []string{"4-COLA (Ascending)", "4-COLA (Descending)", "4-COLA (Random)"} {
		if !names[want] {
			t.Fatalf("missing series %q", want)
		}
	}
}

func TestRatiosDirections(t *testing.T) {
	r := small().Ratios()
	vals := map[string][]float64{}
	for _, s := range r.Series {
		vals[s.Name] = s.Y
	}
	insertRatio := vals["random inserts: COLA faster than B-tree by"]
	if insertRatio[1] <= 1 {
		t.Fatalf("COLA/B-tree random-insert transfer ratio = %v, want > 1", insertRatio[1])
	}
	searchRatio := vals["searches: 4-COLA slower than B-tree by"]
	if searchRatio[1] < 1 {
		t.Fatalf("COLA/B-tree search transfer ratio = %v, want >= 1", searchRatio[1])
	}
}

func TestTransfersCoversStructures(t *testing.T) {
	r := small().Transfers()
	if len(r.Series) != 10 {
		t.Fatalf("Transfers has %d series, want 10", len(r.Series))
	}
	perName := map[string][]float64{}
	for _, s := range r.Series {
		perName[s.Name] = s.Y
	}
	// Write-optimized structures must beat the B-tree on inserts.
	if perName["2-COLA"][0] >= perName["B-tree"][0] {
		t.Fatalf("COLA insert transfers (%v) not below B-tree (%v)",
			perName["2-COLA"][0], perName["B-tree"][0])
	}
	if perName["BRT"][0] >= perName["B-tree"][0] {
		t.Fatalf("BRT insert transfers (%v) not below B-tree (%v)",
			perName["BRT"][0], perName["B-tree"][0])
	}
}

func TestDeamortizedBoundsWorstCase(t *testing.T) {
	r := small().Deamortized()
	perName := map[string][]float64{}
	for _, s := range r.Series {
		perName[s.Name] = s.Y
	}
	amortizedMax := perName["2-COLA"][0]
	deamMax := perName["deamortized-COLA"][0]
	if deamMax >= amortizedMax {
		t.Fatalf("deamortized max moves (%v) not below amortized COLA's (%v)", deamMax, amortizedMax)
	}
}

func TestShuttleRuns(t *testing.T) {
	c := small()
	c.LogN = 10
	r := c.Shuttle()
	if len(r.Series) != 9 {
		t.Fatalf("Shuttle has %d series, want 9", len(r.Series))
	}
}

// TestValidateLineup covers both name namespaces and the error path.
func TestValidateLineup(t *testing.T) {
	if err := ValidateLineup([]string{"2-COLA", "btree", "sharded", "CO-B-tree"}); err != nil {
		t.Fatalf("valid lineup rejected: %v", err)
	}
	err := ValidateLineup([]string{"btre"})
	if err == nil || !strings.Contains(err.Error(), `unknown structure "btre"`) {
		t.Fatalf("invalid lineup: %v", err)
	}
	if !strings.Contains(err.Error(), "registered kinds") {
		t.Fatalf("error does not list the registry: %v", err)
	}
}

// TestBuildNamedResolvesEverything builds every legacy display name and
// every registered kind through the harness wiring.
func TestBuildNamedResolvesEverything(t *testing.T) {
	c := small()
	var names []string
	names = append(names, LegacyNames()...)
	names = append(names, registry.Kinds()...)
	for _, name := range names {
		b, err := c.buildWith(name, nil)
		if err != nil {
			t.Fatalf("buildWith(%q): %v", name, err)
		}
		b.d.Insert(5, 50)
		if v, ok := b.d.Search(5); !ok || v != 50 {
			t.Fatalf("%s: Search = (%d,%v)", name, v, ok)
		}
		b.cold()
		_ = b.transfers()
		b.close()
	}
}

// TestFigure2ForArbitraryKinds runs the Figure 2 experiment over a
// lineup mixing legacy names, space-charged kinds, a self-accounted
// kind (sharded), and an accounting-free one (swbst).
func TestFigure2ForArbitraryKinds(t *testing.T) {
	c := small()
	results := c.Figure2For([]string{"2-COLA", "brt", "sharded", "swbst"})
	if len(results) != 2 {
		t.Fatalf("Figure2For returned %d results", len(results))
	}
	for _, r := range results {
		if len(r.Series) != 4 {
			t.Fatalf("%s: %d series, want 4", r.Title, len(r.Series))
		}
	}
	rates := results[0]
	for _, s := range rates.Series {
		if len(s.Y) == 0 || s.Y[len(s.Y)-1] <= 0 {
			t.Fatalf("series %s has no positive throughput: %v", s.Name, s.Y)
		}
	}
	// The space-charged structures record transfers; swbst reports zero.
	transfers := map[string]float64{}
	for _, s := range results[1].Series {
		total := 0.0
		for _, y := range s.Y {
			total += y
		}
		transfers[s.Name] = total
	}
	if transfers["brt"] == 0 {
		t.Error("brt recorded no transfers")
	}
	if transfers["swbst"] != 0 {
		t.Error("swbst recorded transfers without a store")
	}
}

func TestPrintAndCSV(t *testing.T) {
	res := small().Figure5()
	var buf bytes.Buffer
	Print(&buf, res[0])
	out := buf.String()
	if !strings.Contains(out, "Figure 5") || !strings.Contains(out, "4-COLA (Random)") {
		t.Fatalf("Print output missing content:\n%s", out)
	}
	buf.Reset()
	CSV(&buf, res[0])
	if !strings.Contains(buf.String(), "series,x,y_index,y") {
		t.Fatalf("CSV header missing:\n%s", buf.String())
	}
	// Summary-style result printing.
	buf.Reset()
	Print(&buf, small().Deamortized())
	if !strings.Contains(buf.String(), "deamortized-COLA") {
		t.Fatalf("summary Print missing series:\n%s", buf.String())
	}
}

// TestConcurrentScenario runs E10 at a small scale and checks the
// result's shape; the ≥2x speedup claim is asserted by the benchmarks
// (BenchmarkSharded*), not here, since test hosts may be single-core.
func TestConcurrentScenario(t *testing.T) {
	c := small()
	c.LogN = 12
	r := c.Concurrent()
	if len(r.Series) != 4 {
		t.Fatalf("Concurrent has %d series, want 4", len(r.Series))
	}
	for _, s := range r.Series {
		if len(s.X) != 4 || len(s.Y) != 4 {
			t.Fatalf("series %q has %d points, want 4", s.Name, len(s.X))
		}
		for i, y := range s.Y {
			if y <= 0 {
				t.Fatalf("series %q point %d is non-positive: %v", s.Name, i, y)
			}
		}
	}
	var buf bytes.Buffer
	Print(&buf, r)
	if !strings.Contains(buf.String(), "sharded ins/s") {
		t.Fatalf("Print output missing series:\n%s", buf.String())
	}
}

// TestReadMostlyScenario runs E12 at a small scale and checks the
// result's shape; the ≥2x shared-vs-exclusive speedup claim is asserted
// by the benchmarks (BenchmarkShardedReadMostly), not here, since test
// hosts may be single-core.
func TestReadMostlyScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("E12 drives 4 contenders x 4 scales")
	}
	c := small()
	c.LogN = 12
	r := c.ReadMostly()
	if len(r.Series) != 4 {
		t.Fatalf("ReadMostly has %d series, want 4", len(r.Series))
	}
	for _, s := range r.Series {
		if len(s.X) != 4 || len(s.Y) != 4 {
			t.Fatalf("series %q has %d points, want 4", s.Name, len(s.X))
		}
		for i, y := range s.Y {
			if y <= 0 {
				t.Fatalf("series %q point %d is non-positive: %v", s.Name, i, y)
			}
		}
	}
	var buf bytes.Buffer
	Print(&buf, r)
	if !strings.Contains(buf.String(), "sharded shared srch/s") {
		t.Fatalf("Print output missing series:\n%s", buf.String())
	}
}

func TestRangeScansNearSequentialBound(t *testing.T) {
	c := small()
	r := c.RangeScans()
	perName := map[string]float64{}
	for _, s := range r.Series {
		perName[s.Name] = s.Y[0]
	}
	// Section 1's contiguity claim, in the form measurable on our
	// substrate: the COLA's scans run close to the sequential 1/B bound
	// (levels are contiguous arrays). Our BRT allocates nodes in
	// key-clustered creation order under a dense load, so the paper's
	// "scattered on blocks across disk" premise does not manifest here;
	// see the experiment's notes.
	seqBound := float64(core.ElementBytes) / float64(c.withDefaults().BlockBytes)
	if perName["2-COLA"] > 8*seqBound {
		t.Fatalf("COLA scan transfers/element (%v) far above sequential bound (%v)",
			perName["2-COLA"], seqBound)
	}
	t.Logf("scan transfers/element: %v (sequential bound %v)", perName, seqBound)
}

// TestLineupEntriesLeaveNoFiles: a lineup entry's WAL and checkpoint —
// from a measured durable build, and from one whose build fails — are
// gone once the entry is closed.
func TestLineupEntriesLeaveNoFiles(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	c := small()
	c.LogN = 9
	c.Figure2For([]string{"durable"})
	if _, err := c.buildWith("durable", []registry.Option{registry.WithInner("no-such-kind")}); err == nil {
		t.Fatal("durable over an unknown inner kind built")
	}
	left, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		t.Errorf("left behind in TMPDIR: %s", e.Name())
	}
}

// TestFigureTable: every figure's default lineup is valid, names are
// unique, and All runs the InAll figures.
func TestFigureTable(t *testing.T) {
	seen := map[string]bool{}
	for _, f := range Figures() {
		if seen[f.Name] || f.Name == "all" {
			t.Fatalf("figure name %q repeated or reserved", f.Name)
		}
		seen[f.Name] = true
		if f.Lineup != nil {
			if err := ValidateLineup(f.Lineup); err != nil {
				t.Errorf("figure %s: %v", f.Name, err)
			}
		}
		if g, ok := LookupFigure(f.Name); !ok || g.Name != f.Name {
			t.Errorf("LookupFigure(%q) = %v, %v", f.Name, g.Name, ok)
		}
	}
	if _, ok := LookupFigure("all"); ok {
		t.Error(`LookupFigure("all") found a figure`)
	}
}
