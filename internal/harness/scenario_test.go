package harness

import (
	"strings"
	"testing"

	"repro/internal/registry"
	"repro/internal/workload"
)

func scenarioConfig() Config {
	return Config{LogN: 12, CacheBytes: 1 << 16, Seed: 42}
}

// Every cell of the default grid must be a valid scenario (the default
// lineup is checked with every figure's by TestFigureTable).
func TestDefaultScenarioGridValid(t *testing.T) {
	for _, spec := range DefaultScenarioGrid() {
		if _, err := workload.Parse(spec); err != nil {
			t.Errorf("default grid spec %q: %v", spec, err)
		}
	}
}

// Transfer counts must be bit-for-bit reproducible: the measured
// quantity is the perf-record identity's whole point.
func TestMeasureScenarioDeterministic(t *testing.T) {
	c := scenarioConfig()
	for _, spec := range []string{"uniform+steady+95r5w", "zipf1.2+bursty+70r20w5d5s", "uniform+steady+100w"} {
		a, err := c.MeasureScenario("2-COLA", nil, spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		b, err := c.MeasureScenario("2-COLA", nil, spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if a.TransfersPerOp != b.TransfersPerOp {
			t.Errorf("%s: transfers/op differ across identical runs: %g vs %g", spec, a.TransfersPerOp, b.TransfersPerOp)
		}
		if a.Ops != 1<<c.LogN {
			t.Errorf("%s: measured %d ops, want %d", spec, a.Ops, 1<<c.LogN)
		}
		if a.Inserts != b.Inserts || a.Searches != b.Searches || a.Deletes != b.Deletes || a.Scans != b.Scans {
			t.Errorf("%s: op counts differ across identical runs", spec)
		}
	}
}

// Read mixes preload the dense keyspace; write/delete-only mixes start
// empty.
func TestMeasureScenarioPreloadPolicy(t *testing.T) {
	c := scenarioConfig()
	read, err := c.MeasureScenario("B-tree", nil, "uniform+steady+95r5w")
	if err != nil {
		t.Fatal(err)
	}
	if read.Preloaded != 1<<c.LogN {
		t.Errorf("read mix preloaded %d, want %d", read.Preloaded, 1<<c.LogN)
	}
	write, err := c.MeasureScenario("B-tree", nil, "uniform+steady+60w40d")
	if err != nil {
		t.Fatal(err)
	}
	if write.Preloaded != 0 {
		t.Errorf("write/delete mix preloaded %d, want 0", write.Preloaded)
	}
	if write.Deletes == 0 || write.Inserts == 0 {
		t.Errorf("churn mix applied %d inserts / %d deletes, want both > 0", write.Inserts, write.Deletes)
	}
}

// Extra registry options must reach the built structure: fragmenting
// gcola's lookahead pointers must change its search transfer count.
func TestMeasureScenarioExtraOptions(t *testing.T) {
	c := scenarioConfig()
	withPtrs, err := c.MeasureScenario("2-COLA", nil, "uniform+steady+100r")
	if err != nil {
		t.Fatal(err)
	}
	without, err := c.MeasureScenario("2-COLA", []registry.Option{registry.WithPointerDensity(0)}, "uniform+steady+100r")
	if err != nil {
		t.Fatal(err)
	}
	if without.TransfersPerOp <= withPtrs.TransfersPerOp {
		t.Errorf("pointerless searches cost %.3f transfers/op, with pointers %.3f — fragmenting pointers must hurt",
			without.TransfersPerOp, withPtrs.TransfersPerOp)
	}
}

func TestMeasureScenarioErrors(t *testing.T) {
	c := scenarioConfig()
	if _, err := c.MeasureScenario("2-COLA", nil, "uniform+steady+95r4w"); err == nil {
		t.Error("invalid mix accepted")
	}
	if _, err := c.MeasureScenario("not-a-kind", nil, "uniform+steady+100w"); err == nil {
		t.Error("unknown structure accepted")
	}
	// deamortized has no Deleter: a delete-bearing mix must fail
	// upfront, not panic mid-run.
	if _, err := c.MeasureScenario("deamortized", nil, "uniform+steady+60w40d"); err == nil {
		t.Error("delete mix accepted for a structure without core.Deleter")
	}
}

// ScenariosFor yields one result per scenario, titled by the canonical
// scenario name, with one series per lineup entry — the shape the perf
// flattener and -fig scenarios rely on.
func TestScenariosForShape(t *testing.T) {
	c := scenarioConfig()
	specs := []string{"uniform+steady+95r5w", "uniform+bursty+100w"}
	lineup := []string{"2-COLA", "B-tree"}
	results, err := c.ScenariosFor(lineup, specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(specs) {
		t.Fatalf("%d results for %d specs", len(results), len(specs))
	}
	for i, r := range results {
		if !strings.Contains(r.Title, specs[i]) {
			t.Errorf("result %d title %q does not name scenario %q", i, r.Title, specs[i])
		}
		if len(r.Series) != len(lineup) {
			t.Fatalf("result %d has %d series for %d structures", i, len(r.Series), len(lineup))
		}
		for j, s := range r.Series {
			if s.Name != lineup[j] {
				t.Errorf("result %d series %d named %q, want %q", i, j, s.Name, lineup[j])
			}
		}
	}
	// The flattener must export scenario records as transfers/op.
	recs := PerfRecords(results)
	if len(recs) != len(specs)*len(lineup) {
		t.Fatalf("PerfRecords exported %d records, want %d", len(recs), len(specs)*len(lineup))
	}
	for _, rec := range recs {
		if rec.TransfersPerOp < 0 || rec.NsPerOp != 0 {
			t.Errorf("scenario record %s should carry transfers only, got ns=%g", rec.Key(), rec.NsPerOp)
		}
		if !strings.HasPrefix(rec.Op, "e13-scenario-") {
			t.Errorf("scenario record op %q lacks the e13-scenario- prefix", rec.Op)
		}
	}
}
