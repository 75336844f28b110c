// Command bench is the repo's end-to-end and per-layer benchmark for
// the served COLA stack; BENCHMARK.json at the repo root names it. See
// README.md for what it measures and how to run it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command's flags. workload, seed, seconds and trace
// are the contract's; the rest serve people.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	quick    bool
	out      string
	dir      string
	reps     int
	compare  bool
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "all", "workload `name`, or all")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds per run")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	fs.BoolVar(&o.quick, "quick", false, "shrink every workload to about 1% (smoke test)")
	fs.StringVar(&o.out, "out", "", "also write the results to this JSON `file`")
	fs.StringVar(&o.dir, "dir", "", "parent `directory` for WAL and spill files (default: the system temp directory)")
	fs.IntVar(&o.reps, "reps", 3, "suite mode (-workload all): runs per workload, each in its own process")
	fs.BoolVar(&o.compare, "compare", false, "compare two -out files: bench -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var err error
	switch {
	case o.compare:
		var regressed bool
		if regressed, err = compareFiles(fs.Args(), stdout); err == nil && regressed {
			return 1
		}
	case fs.NArg() != 0:
		err = fmt.Errorf("unexpected arguments %q", fs.Args())
	case o.trace != 0 && o.trace != 1, o.seconds <= 0, o.reps < 1:
		err = errors.New("need -trace 0 or 1, -seconds > 0 and -reps >= 1")
	case o.workload == "all":
		err = runSuite(o, stdout, stderr)
	default:
		err = runOne(o, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// measured is one metric's value as measured in this run.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last line of output.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted uint64              `json:"attempted"`
	Failed    uint64              `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

// report is everything one run produced.
type report struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     int                `json:"trace"`
	Host      hostInfo           `json:"host"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	// Samples is the sample count behind each timing.
	Samples map[string]int `json:"samples"`
	// Slices are the time slices (cycles, for the embedded workload) of
	// the untraced measured phase, one sliceCols row each.
	Slices []sliceRow `json:"slices"`
}

type hostInfo struct {
	NProc int    `json:"nproc"`
	Go    string `json:"go"`
}

func thisHost() hostInfo { return hostInfo{NProc: runtime.NumCPU(), Go: runtime.Version()} }

// runOne runs one workload once in this process and prints every
// metric by name, then the contract's JSON line.
func runOne(o options, stdout io.Writer) (err error) {
	w, ok := findWorkload(o.workload)
	if !ok {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		return fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(names, ", "))
	}
	if o.quick {
		w = w.quick()
	}
	base, err := os.MkdirTemp(o.dir, "colabench-")
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, os.RemoveAll(base)) }()

	env := &runEnv{
		w:     w,
		quick: o.quick,
		seed:  o.seed,
		dur:   time.Duration(o.seconds * float64(time.Second)),
		base:  base,
		perm:  shuffledKeys(o.seed, w.preload),
	}
	rep := &report{
		Workload: w.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Host: thisHost(),
		EndToEnd: map[string]float64{}, Samples: map[string]int{},
	}
	if w.embed {
		err = env.benchEmbed(rep, o.trace == 1)
	} else {
		err = env.benchServed(rep, o.trace == 1)
	}
	if err != nil {
		return err
	}

	// The untraced pass's end-to-end numbers are printed either way; the
	// result line carries the set the contract asks for.
	printMetrics(stdout, "end-to-end (untraced pass)", endToEnd, rep.EndToEnd, rep.Samples)
	defs, values := endToEnd, rep.EndToEnd
	if o.trace == 1 {
		defs, values = perLayer, rep.PerLayer
		printMetrics(stdout, "per-layer", defs, values, rep.Samples)
	}
	fmt.Fprintf(stdout, "slices of the untraced measured phase: %s\n", strings.Join(sliceCols[:], " "))
	for i, row := range rep.Slices {
		fmt.Fprintf(stdout, "  %2d %10.6g\n", i, row)
	}
	if o.out != "" {
		f := newResultsFile(o)
		f.add(rep)
		if err := f.write(o.out); err != nil {
			return err
		}
	}
	res := result{Correct: rep.Failed == 0, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]measured{}}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = measured{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

func printMetrics(w io.Writer, title string, defs []metricDef, values map[string]float64, samples map[string]int) {
	fmt.Fprintf(w, "%s\n", title)
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			continue
		}
		n := ""
		if c, ok := samples[d.name]; ok {
			n = fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Fprintf(w, "  %-34s %16.6g %-6s%s\n", d.name, v, d.unit, n)
	}
}

// median of xs (the mean of the middle two for an even count).
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianDur(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}
