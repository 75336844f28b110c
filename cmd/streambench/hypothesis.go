package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/harness"
	"repro/internal/hypothesis"
)

// runHypothesis measures one experiment bundle and exits with the
// verdict: 0 confirmed (or advisory — a wall-clock bundle measured
// below its CPU floor reports rather than gates), 1 falsified, 2 usage
// error. When jsonPath is set the verdict document is written on BOTH
// outcomes (a falsification is a result, not a failure to produce
// one); a usage or build error never truncates an existing verdict.
func runHypothesis(name string, cfg harness.Config, jsonPath string) {
	if _, ok := hypothesis.Get(name); !ok {
		fmt.Fprintf(os.Stderr, "unknown hypothesis bundle %q; registered: %s\n",
			name, strings.Join(hypothesis.Names(), ", "))
		os.Exit(2)
	}
	out := createReport(jsonPath)

	v, err := hypothesis.Run(name, cfg)
	if err != nil {
		out.Abort()
		fmt.Fprintf(os.Stderr, "-hypothesis: %v\n", err)
		os.Exit(1)
	}

	printVerdict(os.Stdout, v)

	if out != nil {
		commitReport(out, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(v)
		})
		fmt.Fprintf(os.Stderr, "wrote verdict to %s\n", jsonPath)
	}
	if !v.Confirmed && !v.Advisory {
		os.Exit(1)
	}
}

// printVerdict renders one verdict for a human.
func printVerdict(w *os.File, v hypothesis.Verdict) {
	fmt.Fprintf(w, "hypothesis %s — %s\n", v.Name, v.Title)
	fmt.Fprintf(w, "  claim:     %s\n", v.Claim)
	fmt.Fprintf(w, "  mechanism: %s\n", v.Mechanism)
	fmt.Fprintf(w, "  geometry:  N=2^%d, cache=%d B, seed=%d, metric %s\n", v.LogN, v.CacheBytes, v.Seed, v.Metric)
	for _, r := range []hypothesis.RatioResult{v.Experiment, v.Control} {
		fmt.Fprintf(w, "  %-11s %s = %.4f / %.4f = %.3f\n",
			r.Label+":", v.Metric, r.Num.Value, r.Den.Value, r.Observed)
	}
	fmt.Fprintf(w, "  prediction: experiment >= %.3f and control <= %.3f (tolerance %.0f%%)\n",
		v.Prediction.Floor(), v.Prediction.Ceiling(), v.Prediction.Tolerance*100)
	verdict := "CONFIRMED"
	if !v.Confirmed {
		verdict = "FALSIFIED"
	}
	if v.Advisory {
		verdict += " (advisory)"
	}
	fmt.Fprintf(w, "  verdict: %s\n", verdict)
	for _, r := range v.Reasons {
		fmt.Fprintf(w, "    - %s\n", r)
	}
	if v.Advisory {
		fmt.Fprintf(w, "    - %s\n", v.AdvisoryReason)
	}
}
