// Package hypothesis turns the repository's measurements into a
// falsification apparatus: each Bundle packages a quantitative claim
// from the paper — a predicted ratio between two measured arms —
// together with the mechanism said to produce it and a control arm
// where the mechanism is removed and the effect must vanish. A bundle
// CONFIRMS only when both halves hold: the experiment ratio clears its
// predicted floor AND the control ratio stays under its ceiling.
// Anything else is a falsification, reported with the specific
// predicate that failed.
//
// An arm is an opaque measurement that returns one number, and Run
// measures every arm and builds every ratio the same way. Most arms
// name a structure and a scenario spec and are measured as DAM block
// transfers per operation through harness.Config.MeasureScenario;
// those are deterministic for a fixed (scenario, seed, geometry), so
// such a bundle's verdict is bit-for-bit reproducible and can gate CI
// without flake margins for host noise. An arm whose quantity is not a
// scenario's transfers/op — real chunk reads of a spilled structure,
// served throughput over a socket — sets Arm.Measure to its own typed
// runner (a closure over the harness call and its arguments) and uses
// Arm.Scenario only as a label.
package hypothesis

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"

	"repro/internal/harness"
	"repro/internal/registry"
)

// Metric names the measured quantity. Transfers/op is deterministic
// and gateable everywhere; ops/s is wall-clock, so bundles measuring it
// declare a MinCPU floor below which their verdict is advisory.
const (
	MetricTransfersPerOp = "transfers/op"
	MetricOpsPerSec      = "ops/s"
)

// VerdictSchema versions the verdict JSON; readers reject other values.
const VerdictSchema = 1

// Arm is one measured configuration. By default it is a structure
// (harness display name or registry kind), optional extra registry
// options layered on top, and the scenario spec it is driven through,
// measured as transfers/op. Measure, when set, is the arm's own runner
// instead: it receives the bundle's pinned config and returns the arm's
// value, and Structure and Scenario only describe it in output. Label,
// when set, names the variant in output (e.g. "2-COLA (pointer density
// 0)").
type Arm struct {
	Structure string
	Options   []registry.Option
	Scenario  string
	Label     string
	Measure   func(harness.Config) (float64, error)
}

func (a Arm) label() string {
	if a.Label != "" {
		return a.Label
	}
	return a.Structure
}

// measure runs the arm under cfg: through its own runner when it has
// one, else its scenario through the harness.
func (a Arm) measure(cfg harness.Config) (ArmResult, error) {
	res := ArmResult{Structure: a.label(), Scenario: a.Scenario}
	var err error
	if a.Measure != nil {
		res.Value, err = a.Measure(cfg)
	} else {
		var m harness.ScenarioMeasurement
		m, err = cfg.MeasureScenario(a.Structure, a.Options, a.Scenario)
		res.Value = m.TransfersPerOp
	}
	if err != nil {
		return res, fmt.Errorf("arm %s: %w", a.label(), err)
	}
	return res, nil
}

// Ratio is a predicted quotient of two arms' values, Num / Den. With
// Agreement set it observes how closely the arms agree instead —
// min(q, 1/q) for the quotient q, 1 for equal values — and both arms
// must then measure positive.
type Ratio struct {
	Label     string
	Num       Arm
	Den       Arm
	Agreement bool
}

// Bundle is one experiment: claim, mechanism, prediction, control.
// Run measures the four arms of its two ratios at the bundle's pinned
// geometry; Metric names what the arms measure.
type Bundle struct {
	Name      string
	Title     string
	Claim     string
	Mechanism string
	Metric    string

	// Experiment must observe a ratio >= MinRatio for the claim to hold.
	Experiment Ratio
	MinRatio   float64

	// Control re-runs the comparison with the mechanism removed; its
	// observed ratio must stay <= ControlMax or the bundle is falsified
	// (the effect did not vanish when its cause was taken away, so the
	// experiment ratio cannot be attributed to the mechanism).
	Control    Ratio
	ControlMax float64

	// Tolerance loosens both predicates multiplicatively: the experiment
	// floor becomes MinRatio*(1-Tolerance), the control ceiling
	// ControlMax*(1+Tolerance). Transfers are deterministic, so this
	// absorbs deliberate geometry drift (e.g. future block-size changes),
	// not run-to-run noise.
	Tolerance float64

	// Pinned geometry: every arm runs at exactly this size and cache so
	// the prediction is a statement about one reproducible experiment.
	LogN       int
	CacheBytes int64

	// MinCPU, when positive, marks the verdict advisory on hosts with
	// fewer CPUs: a wall-clock concurrency claim cannot fail honestly
	// on a machine that cannot run the arms concurrently. Advisory
	// falsifications are reported, never gated.
	MinCPU int
}

// ArmResult is one arm's measured value.
type ArmResult struct {
	Structure string  `json:"structure"`
	Scenario  string  `json:"scenario"`
	Value     float64 `json:"value"`
}

// RatioResult is one measured ratio.
type RatioResult struct {
	Label    string    `json:"label"`
	Num      ArmResult `json:"num"`
	Den      ArmResult `json:"den"`
	Observed float64   `json:"observed"`
}

// Prediction echoes the bundle's quantitative prediction in the verdict
// so a verdict file is self-describing.
type Prediction struct {
	MinRatio   float64 `json:"min_ratio"`
	ControlMax float64 `json:"control_max"`
	Tolerance  float64 `json:"tolerance"`
}

// Floor is the effective experiment floor, MinRatio loosened by the
// tolerance.
func (p Prediction) Floor() float64 { return p.MinRatio * (1 - p.Tolerance) }

// Ceiling is the effective control ceiling, ControlMax loosened by the
// tolerance.
func (p Prediction) Ceiling() float64 { return p.ControlMax * (1 + p.Tolerance) }

// Verdict is the JSON document streambench -hypothesis emits and
// perfgate -hypotheses consumes.
type Verdict struct {
	Schema     int         `json:"schema"`
	Name       string      `json:"name"`
	Title      string      `json:"title"`
	Claim      string      `json:"claim"`
	Mechanism  string      `json:"mechanism"`
	Metric     string      `json:"metric"`
	LogN       int         `json:"logn"`
	CacheBytes int64       `json:"cache_bytes"`
	Seed       uint64      `json:"seed"`
	Prediction Prediction  `json:"prediction"`
	Experiment RatioResult `json:"experiment"`
	Control    RatioResult `json:"control"`
	Confirmed  bool        `json:"confirmed"`
	// Reasons lists the failed predicates when falsified; empty when
	// confirmed.
	Reasons []string `json:"reasons,omitempty"`
	// Advisory marks a verdict measured below the bundle's CPU floor:
	// consumers report it but never gate on it.
	Advisory bool `json:"advisory,omitempty"`
	// AdvisoryReason says why the verdict is advisory.
	AdvisoryReason string `json:"advisory_reason,omitempty"`
}

var bundles = map[string]Bundle{}

func mustRegister(b Bundle) {
	if b.Name == "" {
		panic("hypothesis: bundle without name")
	}
	if _, dup := bundles[b.Name]; dup {
		panic("hypothesis: duplicate bundle " + b.Name)
	}
	bundles[b.Name] = b
}

// Names lists the registered bundles in sorted order.
func Names() []string {
	out := make([]string, 0, len(bundles))
	for name := range bundles {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Get returns the named bundle.
func Get(name string) (Bundle, bool) {
	b, ok := bundles[name]
	return b, ok
}

// measureRatio runs both arms of r under cfg and returns their ratio.
// A broken arm is an error, not a verdict: so is a denominator that
// measured nothing, or an agreement arm that did.
func measureRatio(cfg harness.Config, r Ratio) (RatioResult, error) {
	out := RatioResult{Label: r.Label}
	var err error
	if out.Num, err = r.Num.measure(cfg); err != nil {
		return out, err
	}
	if out.Den, err = r.Den.measure(cfg); err != nil {
		return out, err
	}
	num, den := out.Num.Value, out.Den.Value
	if den <= 0 {
		return out, fmt.Errorf("ratio %q: denominator arm %s measured %g", r.Label, out.Den.Structure, den)
	}
	out.Observed = num / den
	if r.Agreement {
		if num <= 0 {
			return out, fmt.Errorf("ratio %q: numerator arm %s measured %g, nothing to agree with", r.Label, out.Num.Structure, num)
		}
		out.Observed = min(out.Observed, 1/out.Observed)
	}
	return out, nil
}

// Run measures both ratios of the named bundle at its pinned geometry
// (cfg supplies the seed and any fields the bundle does not pin) and
// judges the result. The returned error covers broken experiments —
// unknown bundle, unbuildable arm — never a falsified one: a clean
// falsification is a Verdict with Confirmed == false.
func Run(name string, cfg harness.Config) (Verdict, error) {
	b, ok := bundles[name]
	if !ok {
		return Verdict{}, fmt.Errorf("hypothesis: unknown bundle %q", name)
	}
	cfg.LogN = b.LogN
	cfg.CacheBytes = b.CacheBytes
	exp, err := measureRatio(cfg, b.Experiment)
	if err != nil {
		return Verdict{}, fmt.Errorf("bundle %s: experiment %w", name, err)
	}
	ctl, err := measureRatio(cfg, b.Control)
	if err != nil {
		return Verdict{}, fmt.Errorf("bundle %s: control %w", name, err)
	}
	v := Verdict{
		Schema:     VerdictSchema,
		Name:       b.Name,
		Title:      b.Title,
		Claim:      b.Claim,
		Mechanism:  b.Mechanism,
		Metric:     b.Metric,
		LogN:       b.LogN,
		CacheBytes: b.CacheBytes,
		Seed:       cfg.Seed,
		Prediction: b.prediction(),
		Experiment: exp,
		Control:    ctl,
	}
	v.Confirmed, v.Reasons = judge(b, exp.Observed, ctl.Observed)
	if b.MinCPU > 0 && runtime.NumCPU() < b.MinCPU {
		v.Advisory = true
		v.AdvisoryReason = fmt.Sprintf(
			"measured on %d CPU(s), bundle needs %d to run its arms concurrently; verdict reported, not gated",
			runtime.NumCPU(), b.MinCPU)
	}
	return v, nil
}

// prediction is the bundle's thresholds as its verdict echoes them.
func (b Bundle) prediction() Prediction {
	return Prediction{MinRatio: b.MinRatio, ControlMax: b.ControlMax, Tolerance: b.Tolerance}
}

// judge applies the bundle's two predicates and reports every failed
// one (not just the first), so a doubly-wrong bundle reads as such.
func judge(b Bundle, exp, ctl float64) (bool, []string) {
	var reasons []string
	p := b.prediction()
	if floor := p.Floor(); exp < floor {
		reasons = append(reasons, fmt.Sprintf(
			"experiment ratio %.3f below predicted floor %.3f (min %.3f, tolerance %.0f%%): the claimed advantage did not appear",
			exp, floor, b.MinRatio, b.Tolerance*100))
	}
	if ceiling := p.Ceiling(); ctl > ceiling {
		reasons = append(reasons, fmt.Sprintf(
			"control ratio %.3f above ceiling %.3f (max %.3f, tolerance %.0f%%): the effect survived removal of its mechanism",
			ctl, ceiling, b.ControlMax, b.Tolerance*100))
	}
	return len(reasons) == 0, reasons
}

// ReadVerdict loads and validates one verdict file.
func ReadVerdict(path string) (Verdict, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Verdict{}, err
	}
	var v Verdict
	if err := json.Unmarshal(data, &v); err != nil {
		return Verdict{}, fmt.Errorf("%s: %w", path, err)
	}
	if v.Schema != VerdictSchema {
		return Verdict{}, fmt.Errorf("%s: verdict schema %d, want %d", path, v.Schema, VerdictSchema)
	}
	if v.Name == "" {
		return Verdict{}, fmt.Errorf("%s: verdict without bundle name", path)
	}
	return v, nil
}

// WriteMarkdown renders verdicts as a GitHub-flavored markdown table
// (the hypotheses lane appends it to $GITHUB_STEP_SUMMARY).
func WriteMarkdown(w io.Writer, verdicts []Verdict) error {
	if len(verdicts) == 0 {
		return nil
	}
	if _, err := fmt.Fprintf(w, "### Hypothesis verdicts\n\n|Bundle|Verdict|Experiment|Predicted ≥|Control|Allowed ≤|\n|---|---|---|---|---|---|\n"); err != nil {
		return err
	}
	for _, v := range verdicts {
		verdict := "✅ confirmed"
		switch {
		case !v.Confirmed && v.Advisory:
			verdict = "⚠️ falsified (advisory)"
		case !v.Confirmed:
			verdict = "❌ falsified"
		case v.Advisory:
			verdict = "✅ confirmed (advisory)"
		}
		if _, err := fmt.Fprintf(w, "|%s|%s|%.3f|%.3f|%.3f|%.3f|\n",
			v.Name, verdict, v.Experiment.Observed, v.Prediction.Floor(),
			v.Control.Observed, v.Prediction.Ceiling()); err != nil {
			return err
		}
	}
	for _, v := range verdicts {
		for _, r := range v.Reasons {
			if _, err := fmt.Fprintf(w, "\n- **%s**: %s", v.Name, r); err != nil {
				return err
			}
		}
		if v.Advisory {
			if _, err := fmt.Fprintf(w, "\n- **%s**: %s", v.Name, v.AdvisoryReason); err != nil {
				return err
			}
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}
