package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/registry"
)

// benchmarkJSON mirrors the contract's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the tables in
// spec.go in step: same workloads, same metrics, same units, directions
// and bounds.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, spec.go has %q", i, b.Workloads[i].Name, w.name)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in spec.go", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if !name.MatchString(d.name) {
				t.Errorf("%s: name %q is outside the contract's alphabet", kind, d.name)
			}
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, spec.go has %s/%s/%s", kind, i, g, d.name, d.unit, d.better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.bound || d.bound <= 0 || d.bound > 0.25):
				t.Errorf("%s %s: bound must be set, equal in both places and in (0, 0.25]", kind, d.name)
			case !bounded && (g.Bound != nil || d.layer == "" || d.moves == ""):
				t.Errorf("%s %s: a per-layer metric has no bound, and names its layer and what it moves", kind, d.name)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
}

// runQuick runs one workload through the command's own entry point at
// about 1% size and returns the contract's last line.
func runQuick(t *testing.T, workload string, trace string) result {
	t.Helper()
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", "7", "--seconds", "0.3", "--trace", trace, "-quick", "-dir", dir}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("%s trace %s: exit %d: %s", workload, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("%s trace %s: last line is not the result object: %v", workload, trace, err)
	}
	if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
		t.Errorf("%s trace %s: scratch directory not cleaned: %v %v", workload, trace, left, err)
	}
	return res
}

// TestQuickSmoke runs all four workloads, untraced and traced, and
// checks that each emits exactly the metrics BENCHMARK.json names, with
// their units, and that no op failed.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := loadBenchmarkJSON(t)
	for _, w := range b.Workloads {
		for trace, want := range map[string][]jsonMetric{"0": b.EndToEnd, "1": b.PerLayer} {
			res := runQuick(t, w.Name, trace)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace %s: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics emitted, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace %s: metric %s not emitted", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace %s: %s has unit %q, want %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case trace == "0" && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

func quickEnv(t *testing.T, name string, dur time.Duration) *runEnv {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	w = w.quick()
	return &runEnv{w: w, quick: true, seed: 11, dur: dur, base: t.TempDir(), perm: shuffledKeys(11, w.preload)}
}

// TestCheckerBites serves a dictionary that answers every GET with a
// wrong value: the driver must count failures. The honest stub, driven
// the same way, must produce none.
func TestCheckerBites(t *testing.T) {
	e := quickEnv(t, wMixed, 100*time.Millisecond)
	bad, err := e.stubPhase(stubDict{wrong: true}, e.dur)
	if err != nil {
		t.Fatal(err)
	}
	if bad.failed == 0 || bad.failed != uint64(len(bad.lat[clsGet])) {
		t.Errorf("wrong-answer stub: %d of %d GETs counted as failed, want all", bad.failed, len(bad.lat[clsGet]))
	}
	good, err := e.stubPhase(stubDict{}, e.dur)
	if err != nil {
		t.Fatal(err)
	}
	if good.failed != 0 || good.attempted == 0 {
		t.Errorf("honest stub: %d of %d ops failed", good.failed, good.attempted)
	}
}

// TestCheckRange feeds the Range checker answers that are wrong in each
// way it must catch.
func TestCheckRange(t *testing.T) {
	present := newBitset(1 << 10)
	for _, k := range []uint64{100, 110, 163} {
		present.set(k)
	}
	el := func(k uint64) core.Element { return core.Element{Key: k, Value: valueOf(k)} }
	full := []core.Element{el(100), el(110), el(163)}
	if !checkRange(100, 163, full, present) {
		t.Error("the right answer was rejected")
	}
	long := make([]core.Element, rangeSpan+1)
	for name, got := range map[string][]core.Element{
		"missing key":  {el(100), el(163)},
		"unsorted":     {el(110), el(100), el(163)},
		"outside":      {el(100), el(110), el(163), el(164)},
		"wrong value":  {el(100), {Key: 110, Value: 1}, el(163)},
		"phantom key":  {el(100), el(105), el(110), el(163)},
		"too long":     long,
		"duplicate":    {el(100), el(100), el(110), el(163)},
		"empty answer": nil,
	} {
		if checkRange(100, 163, got, present) {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestSpanDictFidelity: wrapping any registered kind in the span shim
// changes no capability answer, so a traced stack takes the same
// shared-read, batch and checkpoint paths as an untraced one.
func TestSpanDictFidelity(t *testing.T) {
	rec := newRecorder(time.Now(), 16, 0)
	spanKindRecorder.Store(rec)
	defer spanKindRecorder.Store(nil)
	kinds := registry.Kinds()
	if len(kinds) < 15 { // the repo's 14 and the bench-only kind
		t.Fatalf("only %d kinds registered: %v", len(kinds), kinds)
	}
	for _, kind := range kinds {
		var opts []registry.Option
		if kind == "durable" {
			opts = append(opts, registry.WithWALPath(filepath.Join(t.TempDir(), "d.wal")))
		}
		d, err := registry.Build(kind, opts...)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		s := newSpanDict(d, rec, 0)
		if got, want := core.CapsOf(s), core.CapsOf(d); got != want {
			t.Errorf("%s: caps through the shim %v, direct %v", kind, got, want)
		}
		_, shimOK := core.AsSharedReader(s)
		_, directOK := core.AsSharedReader(d)
		if shimOK != directOK {
			t.Errorf("%s: AsSharedReader through the shim %v, direct %v", kind, shimOK, directOK)
		}
		if cl, ok := d.(interface{ Close() error }); ok {
			if err := cl.Close(); err != nil {
				t.Errorf("%s: close: %v", kind, err)
			}
		}
	}
}

// TestSpansNest runs the traced durable stack (seams A, B and C) for at
// least 10k ops and joins every child span to its parent: no span may
// be left without a parent and no layer may have negative self time.
func TestSpansNest(t *testing.T) {
	e := quickEnv(t, wIngest, 300*time.Millisecond)
	tr := newTracer(1 << 20)
	p, err := e.runServed(tr, false)
	if err != nil {
		t.Fatal(err)
	}
	if p.failed != 0 || p.attempted < 10_000 || tr.dropped() != 0 {
		t.Fatalf("attempted %d, failed %d, dropped %d", p.attempted, p.failed, tr.dropped())
	}
	a, b, c := tr.a.recorded(), tr.b.recorded(), tr.c.recorded()
	if len(a) == 0 || len(b) < len(a) || len(c) < len(b) {
		t.Fatalf("span counts A=%d B=%d C=%d: each seam must see at least its parent's calls", len(a), len(b), len(c))
	}
	for _, j := range []struct {
		name              string
		parents, children []span
		keys              []uint64
		scoped            bool
	}{{"A>B", a, b, tr.a.keys, false}, {"B>C", b, c, nil, true}} {
		self, orphans, ambiguous := joinSelf(j.parents, j.children, j.keys, j.scoped)
		if orphans != 0 || ambiguous != 0 {
			t.Errorf("%s: %d orphan and %d ambiguous child spans", j.name, orphans, ambiguous)
		}
		for i, ns := range self {
			if ns < 0 {
				t.Fatalf("%s: parent span %d has self time %d ns", j.name, i, ns)
			}
		}
	}
	lb, _ := tr.breakdown(int64(p.closed.rtt))
	if lb.server <= 0 || lb.shard <= 0 || lb.durable <= 0 || lb.cola <= 0 {
		t.Errorf("layer self times must all be positive: %+v", lb)
	}
	if sum := lb.server + lb.shard + lb.durable + lb.cola; sum != lb.rtt {
		t.Errorf("layer self times sum to %d ns, client observed %d ns", sum, lb.rtt)
	}
}

// TestJudge pins the comparison's four verdicts.
func TestJudge(t *testing.T) {
	lower := metricDef{name: "x", better: "lower", bound: 0.10}
	higher := metricDef{name: "y", better: "higher", bound: 0.10}
	for _, c := range []struct {
		d    metricDef
		a, b stat
		want string
	}{
		{lower, stat{Median: 100}, stat{Median: 105}, unchanged},
		{lower, stat{Median: 100}, stat{Median: 115}, regressed},
		{lower, stat{Median: 100}, stat{Median: 80}, improved},
		{higher, stat{Median: 100}, stat{Median: 80}, regressed},
		{higher, stat{Median: 100}, stat{Median: 120}, improved},
		{lower, stat{Median: 100, Spread: 0.3}, stat{Median: 150}, unresolved},
	} {
		if _, got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.d.better, c.a.Median, c.b.Median, got, c.want)
		}
	}
}

// TestCompareFiles writes two results files and checks the table and
// the regression flag.
func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, throughput float64) string {
		f := newResultsFile(options{seed: 1, seconds: 10})
		rep := &report{Workload: wMixed, EndToEnd: map[string]float64{}}
		for _, d := range endToEnd {
			rep.EndToEnd[d.name] = 10
		}
		rep.EndToEnd["throughput_ops_s"] = throughput
		f.add(rep)
		path := filepath.Join(dir, name)
		if err := f.write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, slow := write("a.json", 1000), write("b.json", 500)
	var out bytes.Buffer
	bad, err := compareFiles([]string{base, slow}, &out)
	if err != nil || !bad {
		t.Fatalf("halved throughput: regressed=%v err=%v", bad, err)
	}
	if !strings.Contains(out.String(), regressed) || strings.Count(out.String(), "\n") != 1+len(endToEnd) {
		t.Errorf("unexpected table:\n%s", out.String())
	}
	out.Reset()
	if bad, err := compareFiles([]string{base, base}, &out); err != nil || bad {
		t.Errorf("a file against itself: regressed=%v err=%v", bad, err)
	}
}
