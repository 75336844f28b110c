package main

// Suite mode and comparison. `bench -workload all -reps N` runs every
// workload N times, each run in a process of its own (fresh heap, fresh
// peak RSS), and reports each end-to-end metric as the median of the
// runs with their relative spread. `bench -compare a.json b.json`
// judges two such files against the bounds.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
)

// stat is one metric over the runs of a workload.
type stat struct {
	Median float64   `json:"median"`
	Spread float64   `json:"spread"` // (max - min) / median
	Values []float64 `json:"values"`
}

func newStat(values []float64) stat {
	s := stat{Median: median(values), Values: values}
	if s.Median != 0 {
		s.Spread = (slices.Max(values) - slices.Min(values)) / s.Median
	}
	return s
}

// suiteWorkload is one workload's results in a results file.
type suiteWorkload struct {
	EndToEnd map[string]stat    `json:"end_to_end"`
	PerLayer map[string]float64 `json:"per_layer,omitempty"` // of the traced run, if one was made
	Runs     []*report          `json:"runs"`
}

// resultsFile is what -out writes, for one run or a whole suite.
type resultsFile struct {
	Host      hostInfo                  `json:"host"`
	Seed      uint64                    `json:"seed"`
	Seconds   float64                   `json:"seconds"`
	Workloads map[string]*suiteWorkload `json:"workloads"`
}

func newResultsFile(o options) *resultsFile {
	return &resultsFile{Host: thisHost(), Seed: o.seed, Seconds: o.seconds, Workloads: map[string]*suiteWorkload{}}
}

// add folds one run into the file.
func (f *resultsFile) add(rep *report) {
	w := f.Workloads[rep.Workload]
	if w == nil {
		w = &suiteWorkload{}
		f.Workloads[rep.Workload] = w
	}
	w.Runs = append(w.Runs, rep)
	if rep.Trace == 1 {
		w.PerLayer = rep.PerLayer
		return // a traced run's end-to-end numbers are not part of the medians
	}
	w.EndToEnd = map[string]stat{}
	for _, d := range endToEnd {
		var values []float64
		for _, r := range w.Runs {
			if r.Trace == 0 {
				values = append(values, r.EndToEnd[d.name])
			}
		}
		w.EndToEnd[d.name] = newStat(values)
	}
}

func (f *resultsFile) write(path string) error {
	raw, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func readResultsFile(path string) (*resultsFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// runSuite runs every workload o.reps times untraced — and once more
// traced when -trace 1 — each in a child process of this program.
func runSuite(o options, stdout, stderr io.Writer) (err error) {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(o.dir, "colabench-suite-")
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, os.RemoveAll(tmp)) }()

	out := newResultsFile(o)
	for _, w := range workloads {
		runs := o.reps + o.trace
		for i := 0; i < runs; i++ {
			trace := 0
			if i == o.reps {
				trace = 1
			}
			path := filepath.Join(tmp, "run.json")
			args := []string{
				"-workload", w.name, "-seed", strconv.FormatUint(o.seed, 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
				"-trace", strconv.Itoa(trace), "-out", path, "-dir", o.dir,
			}
			if o.quick {
				args = append(args, "-quick")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = stderr
			fmt.Fprintf(stdout, "%s: run %d of %d (trace %d)\n", w.name, i+1, runs, trace)
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			one, err := readResultsFile(path)
			if err != nil {
				return err
			}
			for _, rep := range one.Workloads[w.name].Runs {
				out.add(rep)
			}
		}
	}
	printSuite(stdout, out)
	if o.out != "" {
		return out.write(o.out)
	}
	return nil
}

func printSuite(w io.Writer, f *resultsFile) {
	for _, wl := range workloads {
		res := f.Workloads[wl.name]
		if res == nil {
			continue
		}
		fmt.Fprintf(w, "%s\n", wl.name)
		for _, d := range endToEnd {
			s := res.EndToEnd[d.name]
			fmt.Fprintf(w, "  %-34s %16.6g %-6s spread %5.1f%%  (runs=%d)\n", d.name, s.Median, d.unit, 100*s.Spread, len(s.Values))
		}
		for _, d := range perLayer {
			if v, ok := res.PerLayer[d.name]; ok {
				fmt.Fprintf(w, "  %-34s %16.6g %-6s\n", d.name, v, d.unit)
			}
		}
	}
}

// Verdicts of a comparison.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// judge compares one metric's medians: b against a. A metric whose
// runs spread wider than its bound on either side is unresolved; a
// median worse than a's by more than the bound is a regression, better
// by more than the bound an improvement.
func judge(d metricDef, a, b stat) (delta float64, verdict string) {
	if a.Median == 0 {
		return 0, unresolved
	}
	delta = (b.Median - a.Median) / a.Median
	worse := delta
	if d.better == "higher" {
		worse = -delta
	}
	switch {
	case max(a.Spread, b.Spread) > d.bound:
		return delta, unresolved
	case worse > d.bound:
		return delta, regressed
	case worse < -d.bound:
		return delta, improved
	}
	return delta, unchanged
}

// compareFiles prints one row per workload and end-to-end metric and
// reports whether anything regressed.
func compareFiles(paths []string, w io.Writer) (anyRegressed bool, err error) {
	if len(paths) != 2 {
		return false, errors.New("-compare needs exactly two results files")
	}
	a, err := readResultsFile(paths[0])
	if err != nil {
		return false, err
	}
	b, err := readResultsFile(paths[1])
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-18s %-18s %14s %14s %8s %6s  %s\n", "workload", "metric", "a", "b", "delta", "bound", "verdict")
	for _, wl := range workloads {
		ra, rb := a.Workloads[wl.name], b.Workloads[wl.name]
		if ra == nil || rb == nil {
			continue
		}
		for _, d := range endToEnd {
			sa, sb := ra.EndToEnd[d.name], rb.EndToEnd[d.name]
			delta, verdict := judge(d, sa, sb)
			anyRegressed = anyRegressed || verdict == regressed
			fmt.Fprintf(w, "%-18s %-18s %14.6g %14.6g %+7.1f%% %5.0f%%  %s\n",
				wl.name, d.name, sa.Median, sb.Median, 100*delta, 100*d.bound, verdict)
		}
	}
	return anyRegressed, nil
}
