package hypothesis

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/workload"
)

// Every registered bundle must be internally valid: parseable scenario
// specs, positive thresholds, pinned geometry, and the gateable metric.
func TestBundlesWellFormed(t *testing.T) {
	names := Names()
	if len(names) < 3 {
		t.Fatalf("%d bundles registered, want >= 3", len(names))
	}
	for _, name := range names {
		b, ok := Get(name)
		if !ok {
			t.Fatalf("Names() lists %q but Get can't find it", name)
		}
		if b.Claim == "" || b.Mechanism == "" || b.Title == "" {
			t.Errorf("%s: claim/mechanism/title must all be stated", name)
		}
		if b.Metric == MetricOpsPerSec && b.MinCPU <= 0 {
			// Wall-clock bundles must declare the CPU floor that makes
			// their verdict advisory on starved hosts.
			t.Errorf("%s: ops/s bundle without a MinCPU floor", name)
		}
		if b.MinRatio <= 0 || b.ControlMax <= 0 || b.Tolerance < 0 || b.Tolerance >= 1 {
			t.Errorf("%s: nonsensical thresholds min=%g max=%g tol=%g", name, b.MinRatio, b.ControlMax, b.Tolerance)
		}
		if b.LogN <= 0 || b.CacheBytes <= 0 {
			t.Errorf("%s: geometry not pinned (logn=%d cache=%d)", name, b.LogN, b.CacheBytes)
		}
		// A scenario arm is measured in transfers/op and its spec must
		// parse; an arm with its own runner needs no scenario.
		for _, arm := range []Arm{b.Experiment.Num, b.Experiment.Den, b.Control.Num, b.Control.Den} {
			if arm.Measure != nil {
				continue
			}
			if b.Metric != MetricTransfersPerOp {
				t.Errorf("%s: arm %s is measured in transfers/op, bundle metric is %q", name, arm.label(), b.Metric)
			}
			if _, err := workload.Parse(arm.Scenario); err != nil {
				t.Errorf("%s: arm %s scenario %q: %v", name, arm.label(), arm.Scenario, err)
			}
		}
	}
}

func TestJudge(t *testing.T) {
	b := Bundle{MinRatio: 2, ControlMax: 1, Tolerance: 0.1}
	cases := []struct {
		exp, ctl float64
		ok       bool
		mentions string
	}{
		{exp: 3, ctl: 0.5, ok: true},
		{exp: 1.81, ctl: 0.5, ok: true}, // floor = 1.8
		{exp: 3, ctl: 1.09, ok: true},   // ceiling = 1.1
		{exp: 1.7, ctl: 0.5, ok: false, mentions: "below predicted floor"},
		{exp: 3, ctl: 1.2, ok: false, mentions: "survived removal"},
		{exp: 1.7, ctl: 1.2, ok: false},
	}
	for _, c := range cases {
		ok, reasons := judge(b, c.exp, c.ctl)
		if ok != c.ok {
			t.Errorf("judge(exp=%g, ctl=%g) = %v, want %v (%v)", c.exp, c.ctl, ok, c.ok, reasons)
		}
		if c.mentions != "" {
			found := false
			for _, r := range reasons {
				if strings.Contains(r, c.mentions) {
					found = true
				}
			}
			if !found {
				t.Errorf("judge(exp=%g, ctl=%g) reasons %v lack %q", c.exp, c.ctl, reasons, c.mentions)
			}
		}
		if !c.ok && len(reasons) == 0 {
			t.Errorf("falsified verdict without reasons (exp=%g ctl=%g)", c.exp, c.ctl)
		}
	}
	// A doubly-wrong bundle reports both failures.
	if _, reasons := judge(b, 1.0, 2.0); len(reasons) != 2 {
		t.Errorf("doubly-failed judge gave %d reasons, want 2: %v", len(reasons), reasons)
	}
}

// An arm with its own runner goes through the same ratio assembly as a
// scenario arm: agreement folds the quotient, and an arm that measured
// nothing is an error, not a verdict.
func TestMeasureRatioOwnRunners(t *testing.T) {
	arm := func(v float64) Arm {
		return Arm{Label: "x", Measure: func(harness.Config) (float64, error) { return v, nil }}
	}
	cases := []struct {
		num, den  float64
		agreement bool
		want      float64 // < 0: an error
	}{
		{num: 3, den: 2, want: 1.5},
		{num: 3, den: 2, agreement: true, want: 2.0 / 3},
		{num: 1, den: 4, agreement: true, want: 0.25},
		{num: 1, den: 0, want: -1},
		{num: 0, den: 2, want: 0},
		{num: 0, den: 2, agreement: true, want: -1},
	}
	for _, c := range cases {
		r, err := measureRatio(harness.Config{}, Ratio{Num: arm(c.num), Den: arm(c.den), Agreement: c.agreement})
		if c.want < 0 {
			if err == nil {
				t.Errorf("%g/%g agreement=%v: no error", c.num, c.den, c.agreement)
			}
			continue
		}
		if err != nil || r.Observed != c.want {
			t.Errorf("%g/%g agreement=%v = %g, %v; want %g", c.num, c.den, c.agreement, r.Observed, err, c.want)
		}
	}
}

func TestVerdictRoundTripAndSchema(t *testing.T) {
	dir := t.TempDir()
	v := Verdict{
		Schema: VerdictSchema,
		Name:   "x",
		Metric: MetricTransfersPerOp,
		Experiment: RatioResult{
			Label:    "a/b",
			Num:      ArmResult{Structure: "a", Scenario: "uniform+steady+100w", Value: 2},
			Den:      ArmResult{Structure: "b", Scenario: "uniform+steady+100w", Value: 1},
			Observed: 2,
		},
		Confirmed: false,
		Reasons:   []string{"because"},
	}
	path := filepath.Join(dir, "v.json")
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadVerdict(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != v.Name || got.Experiment.Observed != v.Experiment.Observed || got.Confirmed || len(got.Reasons) != 1 {
		t.Fatalf("round trip mangled verdict: %+v", got)
	}

	// Wrong schema and missing name must both be rejected.
	for _, breakIt := range []func(*Verdict){
		func(v *Verdict) { v.Schema = VerdictSchema + 1 },
		func(v *Verdict) { v.Name = "" },
	} {
		bad := v
		breakIt(&bad)
		data, _ := json.Marshal(bad)
		badPath := filepath.Join(dir, "bad.json")
		if err := os.WriteFile(badPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadVerdict(badPath); err == nil {
			t.Errorf("ReadVerdict accepted invalid verdict %+v", bad)
		}
	}
	if _, err := ReadVerdict(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("ReadVerdict accepted a missing file")
	}
}

func TestRunUnknownBundle(t *testing.T) {
	if _, err := Run("no-such-bundle", harness.Config{}); err == nil {
		t.Fatal("unknown bundle did not error")
	}
}

// End-to-end: every seeded bundle must confirm at its pinned geometry.
// This is the same determinism CI's hypotheses lane relies on, so a
// failure here means the claim (or the structures) changed, not noise.
func TestSeededBundlesConfirm(t *testing.T) {
	if testing.Short() {
		t.Skip("bundle arms drive 4×2^14 ops each")
	}
	for _, name := range Names() {
		v, err := Run(name, harness.Config{Seed: 42})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !v.Confirmed && !v.Advisory {
			t.Errorf("%s falsified: %v (experiment %.3f, control %.3f)", name, v.Reasons, v.Experiment.Observed, v.Control.Observed)
		}
		if v.Experiment.Num.Value <= 0 || v.Experiment.Den.Value <= 0 {
			t.Errorf("%s: experiment arms measured nonpositive values", name)
		}
	}
}

func TestWriteMarkdown(t *testing.T) {
	var sb strings.Builder
	verdicts := []Verdict{
		{Name: "a", Confirmed: true, Prediction: Prediction{MinRatio: 2, ControlMax: 1, Tolerance: 0.1},
			Experiment: RatioResult{Observed: 3}, Control: RatioResult{Observed: 0.5}},
		{Name: "b", Confirmed: false, Reasons: []string{"effect absent"},
			Prediction: Prediction{MinRatio: 2, ControlMax: 1},
			Experiment: RatioResult{Observed: 1.1}, Control: RatioResult{Observed: 0.5}},
	}
	if err := WriteMarkdown(&sb, verdicts); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"confirmed", "falsified", "effect absent", "|a|", "|b|"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown lacks %q:\n%s", want, out)
		}
	}
	var empty strings.Builder
	if err := WriteMarkdown(&empty, nil); err != nil || empty.Len() != 0 {
		t.Errorf("empty verdict list should write nothing, got %q (err %v)", empty.String(), err)
	}
}
