// Command streambench regenerates the evaluation of "Cache-Oblivious
// Streaming B-trees" (SPAA 2007): Figures 2-5, the headline ratios, and
// the asymptotic-claim experiments indexed in DESIGN.md.
//
// Usage:
//
//	streambench -fig all                  # everything (DESIGN.md E1-E10)
//	streambench -fig 2 -logn 20           # Figure 2 at N = 2^20
//	streambench -fig transfers -csv       # E6 as CSV
//	streambench -fig readmostly           # E12: shared-read vs exclusive-lock searches
//	streambench -fig outofcore            # E15: spilled gcola, predicted vs actual transfers
//	streambench -fig durability           # E11: snapshot save/load bandwidth
//	streambench -fig scenarios            # E13: the default skew × arrival × mix grid
//	streambench -scenario zipf1.2+bursty+95r5w,uniform+steady+60w40d
//	streambench -hypothesis cola-insert-advantage -json verdict.json
//	streambench -list                     # registered dictionary kinds + capabilities
//	streambench -dict cola,btree,sharded  # Figure 2 over any kinds
//	streambench -fig 4 -dict brt,shuttle  # Figure 4 over a custom lineup
//	streambench -fig all -json out.json   # also emit perf records (CI baseline)
//
// Durability subsystem (snapshots and write-ahead logging):
//
//	streambench -save img.snap -dict gcola -logn 20   # ingest, persist a warm image
//	streambench -load img.snap -searches 8192         # reopen it, measure warm searches
//	streambench -recover-ingest -wal d.wal -dict gcola -logn 24 -wal-batch 512
//	streambench -recover-verify -wal d.wal -wal-batch 512 -recover-min 1
//
// -recover-ingest feeds a deterministic keyed workload through a
// "durable" dictionary in acknowledged batches; kill it at any point
// (the CI recovery lane uses SIGKILL mid-ingest) and -recover-verify
// reopens the log and proves the recovered state is exactly a whole
// number of acknowledged batches with the right contents.
//
// -scenario drives composable workloads (key-skew + arrival + op-mix,
// e.g. "zipf1.2+bursty+95r5w"; see internal/workload) over the -dict
// lineup. -hypothesis runs one registered experiment bundle — claim,
// quantitative prediction, control arm — and exits 0 when the claim is
// confirmed, 1 when it is falsified (writing the JSON verdict either
// way if -json is given), 2 on usage errors.
//
// -dict takes registered kinds (see -list) and the figures' display
// names ("2-COLA", "B-tree", ...) interchangeably; with -fig left at
// its default it runs the Figure 2 experiment over the chosen lineup.
// Flags scale the experiments; the defaults finish in a few minutes.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/perf"
	"repro/internal/registry"
	"repro/internal/snap"
	"repro/internal/workload"
)

// logN bounds accepted by -logn: below 2^8 every checkpoint window is
// empty (LogNStart defaults to 10 and clamps down), above 2^28 a sweep
// allocates tens of GiB and would OOM mid-run rather than fail fast.
const (
	minLogN = 8
	maxLogN = 28
)

func main() {
	var (
		fig        = flag.String("fig", "all", "which figure to regenerate: "+figureNames(", ", false)+", all")
		dict       = flag.String("dict", "", "comma-separated structure lineup for -fig "+figureNames("/", true)+" (registered kinds or figure names; see -list)")
		scenario   = flag.String("scenario", "", "comma-separated scenario specs (skew+arrival+mix, e.g. zipf1.2+bursty+95r5w) for -fig scenarios; implies it when -fig is unset")
		hyp        = flag.String("hypothesis", "", "run one experiment bundle by name and exit 0 confirmed / 1 falsified (see internal/hypothesis)")
		list       = flag.Bool("list", false, "list the registered dictionary kinds with their options and exit")
		logn       = flag.Int("logn", 18, "log2 of the largest workload size")
		lognStart  = flag.Int("logn-start", 10, "log2 of the first measured checkpoint")
		blockBytes = flag.Int64("block", 4096, "DAM block size B in bytes")
		cacheBytes = flag.Int64("cache", 1<<20, "DAM cache size M in bytes")
		seed       = flag.Uint64("seed", 42, "workload seed")
		searches   = flag.Int("searches", 1<<13, "number of searches for Figure 4")
		csv        = flag.Bool("csv", false, "emit CSV instead of tables")
		jsonPath   = flag.String("json", "", "also write the run as perf records (internal/perf schema) to this file")

		savePath   = flag.String("save", "", "ingest 2^logn elements into the single -dict kind and save a warm snapshot image to this path")
		loadPath   = flag.String("load", "", "load a warm snapshot image and measure warm searches over its contents")
		walPath    = flag.String("wal", "", "write-ahead log path for the -recover-* modes")
		recIngest  = flag.Bool("recover-ingest", false, "ingest 2^logn elements through a durable dictionary at -wal in acknowledged batches (kill it mid-run to test recovery)")
		recVerify  = flag.Bool("recover-verify", false, "reopen -wal and verify the recovered state is an exact acknowledged-batch prefix")
		walBatch   = flag.Int("wal-batch", 512, "elements per acknowledged batch in the -recover-* modes")
		ckptEvery  = flag.Int("ckpt-every", 0, "checkpoint the durable dictionary every N batches during -recover-ingest (0 = never)")
		recoverMin = flag.Int("recover-min", 0, "-recover-verify fails unless at least this many elements were recovered")
	)
	flag.Parse()
	if *logn < minLogN || *logn > maxLogN {
		fmt.Fprintf(os.Stderr, "-logn %d out of range [%d, %d]\n", *logn, minLogN, maxLogN)
		os.Exit(2)
	}
	figExplicit := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "fig" {
			figExplicit = true
		}
	})

	if *list {
		printKinds(os.Stdout)
		return
	}

	// Hypothesis mode runs instead of a figure: the bundle pins its own
	// arms and geometry, so the figure-selection flags do not compose
	// with it.
	if *hyp != "" {
		if *recIngest || *recVerify || *savePath != "" || *loadPath != "" {
			fmt.Fprintln(os.Stderr, "-hypothesis and the durability modes are mutually exclusive")
			os.Exit(2)
		}
		if *dict != "" || *scenario != "" || figExplicit {
			fmt.Fprintln(os.Stderr, "-hypothesis runs its bundle's own pinned arms; -fig, -dict and -scenario do not apply")
			os.Exit(2)
		}
		runHypothesis(*hyp, harness.Config{BlockBytes: *blockBytes, Seed: *seed}, *jsonPath)
		return
	}

	// Durability modes run instead of a figure; each validates its own
	// flag subset and exits non-zero on failure.
	switch {
	case *recIngest && *recVerify:
		fmt.Fprintln(os.Stderr, "-recover-ingest and -recover-verify are mutually exclusive")
		os.Exit(2)
	case *recIngest:
		runRecoverIngest(*walPath, *dict, *logn, *walBatch, *ckptEvery)
		return
	case *recVerify:
		runRecoverVerify(*walPath, *dict, *walBatch, *recoverMin)
		return
	case *savePath != "" && *loadPath != "":
		fmt.Fprintln(os.Stderr, "-save and -load are mutually exclusive")
		os.Exit(2)
	case *savePath != "":
		runSaveImage(*savePath, *dict, *logn, *seed)
		return
	case *loadPath != "":
		runLoadImage(*loadPath, *seed, *searches)
		return
	}

	cfg := harness.Config{
		LogN:       *logn,
		LogNStart:  *lognStart,
		BlockBytes: *blockBytes,
		CacheBytes: *cacheBytes,
		Seed:       *seed,
		Searches:   *searches,
	}

	figName := strings.ToLower(*fig)

	// Scenario specs validate before any work, like every other flag; an
	// unknown spec must exit 2 without touching the -json target.
	var scenarioSpecs []string
	if *scenario != "" {
		for _, tok := range strings.Split(*scenario, ",") {
			if tok = strings.TrimSpace(tok); tok != "" {
				scenarioSpecs = append(scenarioSpecs, tok)
			}
		}
		if len(scenarioSpecs) == 0 {
			fmt.Fprintf(os.Stderr, "-scenario %q names no scenarios\n", *scenario)
			os.Exit(2)
		}
		for _, spec := range scenarioSpecs {
			if _, err := workload.Parse(spec); err != nil {
				fmt.Fprintf(os.Stderr, "-scenario: %v\n", err)
				os.Exit(2)
			}
		}
		if !figExplicit {
			figName = "scenarios"
		} else if figName != "scenarios" {
			fmt.Fprintf(os.Stderr, "-scenario applies to -fig scenarios only (got -fig %q)\n", *fig)
			os.Exit(2)
		}
	}

	var lineup []string
	if *dict != "" {
		for _, tok := range strings.Split(*dict, ",") {
			if tok = strings.TrimSpace(tok); tok != "" {
				lineup = append(lineup, tok)
			}
		}
		if len(lineup) == 0 {
			fmt.Fprintf(os.Stderr, "-dict %q names no structures (see -list)\n", *dict)
			os.Exit(2)
		}
		if err := harness.ValidateLineup(lineup); err != nil {
			fmt.Fprintf(os.Stderr, "-dict: %v\n", err)
			os.Exit(2)
		}
		if figName == "all" && !figExplicit {
			figName = "2" // default experiment for a custom lineup
		}
	}
	figure, known := harness.LookupFigure(figName)
	if lineup != nil && (!known || figure.Lineup == nil) {
		fmt.Fprintf(os.Stderr, "-dict applies to -fig %s only (got -fig %q)\n", figureNames("/", true), *fig)
		os.Exit(2)
	}
	if !known && figName != "all" {
		fmt.Fprintf(os.Stderr, "unknown -fig %q\n", *fig)
		flag.Usage()
		os.Exit(2)
	}
	if scenarioSpecs != nil {
		figure.Run = func(c harness.Config, lineup []string) ([]harness.Result, error) {
			return c.ScenariosFor(lineup, scenarioSpecs)
		}
	}

	// Open the perf output only now, after every flag has validated.
	out := createReport(*jsonPath)

	var results []harness.Result
	if figName == "all" {
		results = cfg.All()
	} else {
		var err error
		if results, err = figure.Results(cfg, lineup); err != nil {
			out.Abort()
			fmt.Fprintf(os.Stderr, "-fig %s: %v\n", figName, err)
			// Specs and lineup validated above, so a scenarios failure is
			// a structural mismatch (e.g. a delete-bearing mix over a
			// structure with no Deleter) — a usage error, caught before any
			// report is written.
			if figName == "scenarios" {
				os.Exit(2)
			}
			os.Exit(1)
		}
	}
	for _, r := range results {
		if *csv {
			harness.CSV(os.Stdout, r)
		} else {
			harness.Print(os.Stdout, r)
		}
	}

	if out != nil {
		rep := perf.NewReport(fmt.Sprintf(
			"streambench -fig %s -logn %d -logn-start %d -block %d -cache %d -seed %d -searches %d -dict %q",
			figName, *logn, *lognStart, *blockBytes, *cacheBytes, *seed, *searches, *dict))
		rep.Add(harness.PerfRecords(results)...)
		commitReport(out, rep.Write)
		fmt.Fprintf(os.Stderr, "wrote %d perf records to %s\n", len(rep.Results), *jsonPath)
	}
}

// createReport opens the -json target (nil when path is empty) before
// the run it records: an unwritable path is a usage error caught before
// any work, and a failed run leaves an existing report untouched.
func createReport(path string) *perf.File {
	if path == "" {
		return nil
	}
	f, err := perf.CreateFile(path)
	if err != nil {
		fail("-json: %v", err)
	}
	return f
}

// commitReport writes and publishes the -json report, exiting 1 when
// that fails.
func commitReport(f *perf.File, write func(io.Writer) error) {
	if err := f.Commit(write); err != nil {
		fmt.Fprintf(os.Stderr, "-json: %v\n", err)
		os.Exit(1)
	}
}

// figureNames joins the names of the harness figures, or of just those
// that run over a -dict lineup.
func figureNames(sep string, lineupOnly bool) string {
	var names []string
	for _, f := range harness.Figures() {
		if !lineupOnly || f.Lineup != nil {
			names = append(names, f.Name)
		}
	}
	return strings.Join(names, sep)
}

// printKinds renders the registry: every kind, its one-line doc, the
// options it accepts, and its capability flags.
func printKinds(w *os.File) {
	fmt.Fprintln(w, "registered dictionary kinds (build with -dict, or repro.Build in code):")
	for _, kind := range registry.Kinds() {
		info, _ := registry.Info(kind)
		fmt.Fprintf(w, "\n  %-15s %s\n", kind, info.Doc)
		if len(info.Options) > 0 {
			fmt.Fprintf(w, "  %-15s options: %s\n", "", strings.Join(info.Options, ", "))
		}
		fmt.Fprintf(w, "  %-15s capabilities: %s\n", "", info.Caps)
	}
	fmt.Fprintf(w, "\nfigure display names also accepted by -dict: %s\n",
		strings.Join(harness.LegacyNames(), ", "))
}

// fail prints an error and exits with the CLI-usage status.
func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}

// singleKind resolves -dict for the durability modes: exactly one
// registered kind (not a figure display name — these modes build
// through the registry directly).
func singleKind(dict, def string) string {
	if dict == "" {
		return def
	}
	if strings.Contains(dict, ",") {
		fail("-dict must name exactly one registered kind here (got %q)", dict)
	}
	if _, ok := registry.Info(dict); !ok {
		fail("unknown kind %q (see -list)", dict)
	}
	return dict
}

// checkLogN mirrors the main figure path's -logn validation.
func checkLogN(logn int) {
	if logn < minLogN || logn > maxLogN {
		fail("-logn %d out of range [%d, %d]", logn, minLogN, maxLogN)
	}
}

// runSaveImage ingests a deterministic random workload into one kind
// and persists it as a warm on-disk image, so later runs (or the -load
// mode) can start from a populated structure instead of a cold ingest.
func runSaveImage(path, dict string, logn int, seed uint64) {
	checkLogN(logn)
	kind := singleKind(dict, "gcola")
	if info, _ := registry.Info(kind); !info.Caps.Snapshot {
		fail("kind %q does not support snapshots (see -list)", kind)
	}
	n := 1 << logn
	d, err := registry.Build(kind)
	if err != nil {
		fail("build %q: %v", kind, err)
	}
	elems := make([]core.Element, n)
	seq := workload.NewRandomUnique(seed)
	for i := range elems {
		k := seq.Next()
		elems[i] = core.Element{Key: k, Value: k ^ 0xD1C7}
	}
	start := time.Now()
	core.InsertBatch(d, elems)
	ingest := time.Since(start)
	start = time.Now()
	if err := repro.SaveFile(path, kind, d); err != nil {
		fail("-save: %v", err)
	}
	saveDur := time.Since(start)
	fi, _ := os.Stat(path)
	fmt.Printf("saved %s image of %d elements to %s: %d bytes, ingest %.2fs, save %.3fs (%.0f MB/s)\n",
		kind, n, path, fi.Size(), ingest.Seconds(), saveDur.Seconds(),
		float64(fi.Size())/1e6/saveDur.Seconds())
}

// runLoadImage restores a -save image — the container header says what
// to build — and measures warm searches over the recorded workload.
func runLoadImage(path string, seed uint64, searches int) {
	f, err := os.Open(path)
	if err != nil {
		fail("-load: %v", err)
	}
	// Header only — what kind is this image? — without reading (and
	// checksumming) the payload twice; LoadFile below does the real work.
	spec, err := snap.DecodeHeader(f)
	f.Close()
	if err != nil {
		fail("-load: %v", err)
	}
	start := time.Now()
	d, err := repro.LoadFile(path)
	if err != nil {
		fail("-load: %v", err)
	}
	loadDur := time.Since(start)
	n := d.Len()
	fmt.Printf("loaded %s image from %s: %d elements in %.3fs\n", spec.Kind, path, n, loadDur.Seconds())
	if n == 0 || searches <= 0 {
		return
	}
	// The image's keys are the deterministic random-unique stream of
	// -save with the same -seed; regenerate and probe.
	keys := workload.Take(workload.NewRandomUnique(seed), n)
	probe := workload.NewRNG(seed + 7)
	start = time.Now()
	for i := 0; i < searches; i++ {
		k := keys[probe.Intn(len(keys))]
		if v, ok := d.Search(k); !ok || v != k^0xD1C7 {
			fail("warm image is wrong: Search(%d) = (%d,%v)", k, v, ok)
		}
	}
	dur := time.Since(start)
	fmt.Printf("warm searches: %d in %.3fs (%.0f/s)\n", searches, dur.Seconds(), float64(searches)/dur.Seconds())
}

// recoveryMult spreads the recovery workload's sequential index over
// the key space (fibonacci multiplier: odd, so i -> key is injective).
const recoveryMult = 0x9E3779B97F4A7C15

func recoveryKey(i int) uint64 { return uint64(i+1) * recoveryMult }

// runRecoverIngest streams batches through a durable dictionary. Every
// batch is acknowledged (write-ahead logged) before the next starts, so
// killing this process at ANY point must lose nothing but the final
// in-flight batch — which -recover-verify checks.
func runRecoverIngest(path, dict string, logn, batch, ckptEvery int) {
	if path == "" {
		fail("-recover-ingest requires -wal")
	}
	checkLogN(logn)
	if batch <= 0 {
		fail("-wal-batch must be positive")
	}
	if (1<<logn)%batch != 0 {
		// -recover-verify proves the recovered count is a whole number
		// of batches; a short final batch from a non-dividing size would
		// make a COMPLETED run indistinguishable from a leaked
		// un-acknowledged tail and fail verification falsely.
		fail("-wal-batch %d does not divide the 2^%d-element workload; pick a power of two so every acknowledged batch is full-size", batch, logn)
	}
	kind := singleKind(dict, "gcola")
	opts := []repro.Option{repro.WithInner(kind)}
	if ckptEvery > 0 {
		opts = append(opts, repro.WithCheckpointEvery(ckptEvery))
	}
	d, err := repro.Open(path, opts...)
	if err != nil {
		fail("-recover-ingest: %v", err)
	}
	defer d.Close()
	n := 1 << logn
	if d.Len() != 0 {
		fail("-recover-ingest: %s already holds %d elements; use a fresh -wal path", path, d.Len())
	}
	elems := make([]core.Element, 0, batch)
	start := time.Now()
	for i := 0; i < n; i += batch {
		elems = elems[:0]
		for j := i; j < i+batch && j < n; j++ {
			elems = append(elems, core.Element{Key: recoveryKey(j), Value: uint64(j)})
		}
		d.InsertBatch(elems) // acknowledged on return
		if (i/batch)%256 == 0 {
			fmt.Printf("acked %d elements (%d batches)\n", i+len(elems), i/batch+1)
		}
	}
	dur := time.Since(start)
	fmt.Printf("ingest complete: %d elements in %.2fs (%.0f/s), %d records in log\n",
		n, dur.Seconds(), float64(n)/dur.Seconds(), d.Records())
}

// runRecoverVerify reopens the log and proves the recovered dictionary
// is exactly the acknowledged prefix of the -recover-ingest workload: a
// whole number of batches, every recovered index present with its
// value, and the next key absent.
func runRecoverVerify(path, dict string, batch, minElems int) {
	if path == "" {
		fail("-recover-verify requires -wal")
	}
	if batch <= 0 {
		fail("-wal-batch must be positive")
	}
	var opts []repro.Option
	if dict != "" {
		opts = append(opts, repro.WithInner(singleKind(dict, "")))
	}
	d, err := repro.Open(path, opts...)
	if err != nil {
		fail("-recover-verify: %v", err)
	}
	defer d.Close()
	n := d.Len()
	if n%batch != 0 {
		fail("recovered %d elements, not a whole number of %d-element batches: an un-acknowledged tail leaked in", n, batch)
	}
	for i := 0; i < n; i++ {
		if v, ok := d.Search(recoveryKey(i)); !ok || v != uint64(i) {
			fail("recovered state wrong at index %d: Search = (%d, %v), want %d", i, v, ok, uint64(i))
		}
	}
	if _, ok := d.Search(recoveryKey(n)); ok {
		fail("key beyond the acknowledged prefix is present")
	}
	if n < minElems {
		fail("recovered %d elements, -recover-min demands at least %d", n, minElems)
	}
	fmt.Printf("recovery verified: %d elements (%d acknowledged batches), prefix exact\n", n, n/batch)
}
