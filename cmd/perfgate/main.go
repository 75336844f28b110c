// Command perfgate compares a candidate benchmark run against a
// committed baseline (BENCH_*.json, internal/perf schema) and exits
// non-zero when a gated metric regressed. CI's bench lane runs it on
// every push; it is equally usable locally:
//
//	streambench -fig all -logn 16 -json new.json
//	go test -bench . -benchtime 100x -benchmem -run NONE ./... | tee bench.txt
//	perfgate -baseline BENCH_0.json -candidate new.json -gobench bench.txt
//
// Gating rules (see internal/perf):
//
//   - ns/op may grow at most -max-ns (fraction; default 0.25). Wall
//     clock is host-dependent, so this gate only applies when baseline
//     and candidate share a host fingerprint (GOOS/GOARCH/core count)
//     — pass -strict-ns to force it across hosts — and only to records
//     averaging at least -min-samples operations: one-shot figure
//     checkpoint windows jitter well past 25% run to run, so they stay
//     informational (their gate is the deterministic transfer count).
//   - allocs/op may grow at most -max-allocs (absolute; default 0: any
//     new steady-state allocation fails). Only records carrying
//     allocation data on both sides are gated — a baseline recorded by
//     streambench has none, so for cross-host CI use
//     -assert-zero-allocs instead: it fails any matching gobench
//     record of THIS run reporting allocs/op > 0, no baseline needed.
//     The repo's testing.AllocsPerRun tests independently pin the hot
//     paths to zero in the ordinary test lane.
//   - DAM transfers/op may grow at most -max-transfers (fraction;
//     default 0.01). Transfer counts are deterministic for a fixed
//     workload, so this gate bites on every host.
//
// Records present on only one side are listed but never fail the gate:
// lineups grow across PRs, and a missing baseline entry means "no
// expectation yet". Exit status: 0 clean, 1 regression, 2 usage error.
//
// Hypothesis verdicts (streambench -hypothesis -json) gate through
// -hypotheses, a comma-separated list of verdict files or globs: any
// falsified verdict fails the gate, exactly like a perf regression.
// With only -hypotheses given, -baseline is not required. -summary
// appends markdown delta and verdict tables to the named file (CI
// passes $GITHUB_STEP_SUMMARY).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"

	"repro/internal/hypothesis"
	"repro/internal/perf"
)

func fatalUsage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}

func main() {
	var (
		baseline  = flag.String("baseline", "", "committed baseline report (required)")
		candidate = flag.String("candidate", "", "candidate report to gate (e.g. from streambench -json)")
		gobench   = flag.String("gobench", "", "`go test -bench` output to parse and merge into the candidate")
		out       = flag.String("out", "", "write the merged candidate report here (workflow artifact)")
		maxNs     = flag.Float64("max-ns", 0.25, "allowed fractional ns/op growth; negative disables")
		maxAllocs = flag.Float64("max-allocs", 0, "allowed absolute allocs/op growth; negative disables")
		maxTrans  = flag.Float64("max-transfers", 0.01, "allowed fractional transfers/op growth; negative disables")
		minNs     = flag.Float64("min-ns", 50, "noise floor: ignore ns/op regressions when both sides are faster than this")
		minSamp   = flag.Int("min-samples", 50000, "gate ns/op only for records averaging at least this many operations")
		strictNs  = flag.Bool("strict-ns", false, "gate ns/op even when baseline and candidate hosts differ")
		zeroAlloc = flag.String("assert-zero-allocs", "", "fail if any candidate gobench record whose kind matches this `regexp` reports allocs/op > 0")
		hyps      = flag.String("hypotheses", "", "comma-separated hypothesis verdict files or globs (streambench -hypothesis -json); a falsified verdict fails the gate")
		summary   = flag.String("summary", "", "append markdown delta/verdict tables to this file (CI passes $GITHUB_STEP_SUMMARY)")
		verbose   = flag.Bool("v", false, "print all deltas, not just regressions")
	)
	flag.Parse()
	if *baseline == "" && *hyps == "" {
		fatalUsage("perfgate: -baseline is required (or -hypotheses alone)")
	}
	if *baseline != "" && *candidate == "" && *gobench == "" {
		fatalUsage("perfgate: need -candidate and/or -gobench with -baseline")
	}
	if *baseline == "" && (*candidate != "" || *gobench != "" || *zeroAlloc != "") {
		fatalUsage("perfgate: -candidate/-gobench/-assert-zero-allocs need -baseline")
	}

	verdicts := readVerdicts(*hyps)

	var summaryFile *os.File
	if *summary != "" {
		f, err := os.OpenFile(*summary, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			fatalUsage("perfgate: -summary: %v", err)
		}
		defer f.Close()
		summaryFile = f
	}

	failed := false
	if len(verdicts) > 0 {
		failed = reportVerdicts(os.Stdout, verdicts) || failed
		if summaryFile != nil {
			if err := hypothesis.WriteMarkdown(summaryFile, verdicts); err != nil {
				fatalUsage("perfgate: -summary: %v", err)
			}
		}
	}
	if *baseline == "" {
		if failed {
			fmt.Fprintln(os.Stderr, "perfgate: falsified hypothesis verdict(s)")
			os.Exit(1)
		}
		fmt.Println("perfgate: all hypotheses confirmed")
		return
	}

	base, err := perf.ReadFile(*baseline)
	if err != nil {
		fatalUsage("perfgate: baseline: %v", err)
	}

	var cand *perf.Report
	if *candidate != "" {
		cand, err = perf.ReadFile(*candidate)
		if err != nil {
			fatalUsage("perfgate: candidate: %v", err)
		}
	} else {
		cand = perf.NewReport("perfgate -gobench " + *gobench)
	}
	if *gobench != "" {
		f, err := os.Open(*gobench)
		if err != nil {
			fatalUsage("perfgate: %v", err)
		}
		recs, err := perf.ParseGoBench(f)
		f.Close()
		if err != nil {
			fatalUsage("perfgate: %v", err)
		}
		if len(recs) == 0 {
			fatalUsage("perfgate: %s contains no benchmark lines", *gobench)
		}
		cand.Add(recs...)
	}
	if *out != "" {
		f, err := perf.CreateFile(*out)
		if err == nil {
			err = f.Commit(cand.Write)
		}
		if err != nil {
			fatalUsage("perfgate: -out: %v", err)
		}
	}

	th := perf.Thresholds{
		NsPerOp:        *maxNs,
		MinNsPerOp:     *minNs,
		MinSamples:     *minSamp,
		StrictNs:       *strictNs,
		AllocsPerOp:    *maxAllocs,
		TransfersPerOp: *maxTrans,
	}
	// The zero-alloc assertion is absolute — measured on this run, no
	// baseline needed — so it gates allocation regressions even when
	// the committed baseline was recorded on a different host and
	// carries no allocation data.
	if *zeroAlloc != "" {
		re, err := regexp.Compile(*zeroAlloc)
		if err != nil {
			fatalUsage("perfgate: -assert-zero-allocs: %v", err)
		}
		matched := 0
		for _, r := range cand.Results {
			if r.Op != "gobench" || !re.MatchString(r.Kind) || r.AllocsPerOp == nil {
				continue
			}
			matched++
			if *r.AllocsPerOp > 0 {
				fmt.Printf("%-60s %-14s %14s %14.4g %8s ZERO-ALLOC VIOLATION\n",
					r.Key(), "allocs/op", "0 (asserted)", *r.AllocsPerOp, "")
				failed = true
			}
		}
		if matched == 0 {
			// A regexp matching nothing means the gate silently rotted.
			fatalUsage("perfgate: -assert-zero-allocs %q matched no gobench records with allocation data", *zeroAlloc)
		}
	}

	c := perf.Compare(base, cand, th)
	c.Format(os.Stdout, *verbose)
	if summaryFile != nil {
		if err := c.Markdown(summaryFile, *verbose); err != nil {
			fatalUsage("perfgate: -summary: %v", err)
		}
	}
	if regs := c.Regressions(); len(regs) > 0 || failed {
		fmt.Fprintf(os.Stderr, "perfgate: %d regression(s) against %s\n", len(regs), *baseline)
		os.Exit(1)
	}
	fmt.Println("perfgate: no regressions")
}

// readVerdicts expands the -hypotheses list (comma-separated paths or
// globs) and loads every verdict. A token matching no file is a usage
// error: a glob that silently rots would wave falsifications through.
func readVerdicts(spec string) []hypothesis.Verdict {
	if spec == "" {
		return nil
	}
	var out []hypothesis.Verdict
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		paths, err := filepath.Glob(tok)
		if err != nil {
			fatalUsage("perfgate: -hypotheses %q: %v", tok, err)
		}
		if len(paths) == 0 {
			fatalUsage("perfgate: -hypotheses %q matched no files", tok)
		}
		for _, path := range paths {
			v, err := hypothesis.ReadVerdict(path)
			if err != nil {
				fatalUsage("perfgate: -hypotheses: %v", err)
			}
			out = append(out, v)
		}
	}
	if len(out) == 0 {
		fatalUsage("perfgate: -hypotheses %q named no verdict files", spec)
	}
	return out
}

// reportVerdicts prints each verdict and returns whether any gateable
// one falsified. An advisory verdict (a wall-clock bundle measured
// below its CPU floor) is printed either way but never fails the gate.
func reportVerdicts(w io.Writer, verdicts []hypothesis.Verdict) bool {
	failed := false
	for _, v := range verdicts {
		status := "CONFIRMED"
		if !v.Confirmed {
			status = "FALSIFIED"
			if !v.Advisory {
				failed = true
			}
		}
		if v.Advisory {
			status += "*"
		}
		fmt.Fprintf(w, "%-28s %-9s experiment %.3f (>= %.3f)  control %.3f (<= %.3f)\n",
			v.Name, status, v.Experiment.Observed, v.Prediction.Floor(),
			v.Control.Observed, v.Prediction.Ceiling())
		for _, r := range v.Reasons {
			fmt.Fprintf(w, "    - %s\n", r)
		}
		if v.Advisory {
			fmt.Fprintf(w, "    * advisory: %s\n", v.AdvisoryReason)
		}
	}
	return failed
}
