// Package harness regenerates the paper's evaluation: every figure of
// Section 4 plus the asymptotic-claim experiments indexed in DESIGN.md.
// Each experiment produces Series (x = workload size, y = measured rate
// or transfer count) that can be printed as aligned tables or CSV.
//
// Two measurements are reported side by side wherever it makes sense:
// wall-clock operations/second (the paper's y-axis) and DAM-model block
// transfers/operation (the quantity the theory bounds, free of Go
// runtime noise — see DESIGN.md's substitution table).
package harness

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dam"
	"repro/internal/la"
	"repro/internal/registry"
	"repro/internal/workload"
)

// Config scales the experiments. The paper ran N = 2^30 on a RAID array
// for 87 hours; the defaults here finish on a laptop in minutes while
// entering the out-of-core regime of the simulated cache.
type Config struct {
	// LogN is the largest workload size as a power of two (default 18).
	LogN int
	// LogNStart is the first measured checkpoint (default 10).
	LogNStart int
	// BlockBytes is the DAM block size B (default 4096, the paper's).
	BlockBytes int64
	// CacheBytes is the DAM cache size M (default 1 MiB so structures
	// leave cache partway through the sweep, reproducing the paper's
	// "no longer fit in main memory" crossover).
	CacheBytes int64
	// Seed feeds every workload generator.
	Seed uint64
	// Searches is the number of random searches for Figure 4 (default
	// 2^13).
	Searches int
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.LogN == 0 {
		c.LogN = 18
	}
	if c.LogNStart == 0 {
		c.LogNStart = 10
	}
	if c.LogNStart > c.LogN {
		c.LogNStart = c.LogN
	}
	if c.BlockBytes == 0 {
		c.BlockBytes = dam.DefaultBlockBytes
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 1 << 20
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Searches == 0 {
		c.Searches = 1 << 13
	}
	return c
}

// Series is one line of a figure.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Result is one regenerated figure.
type Result struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Notes  []string
}

// dict couples a dictionary with its cost accounting: a private store
// for space-charged structures, or the structure's own TransferCounter
// (e.g. a sharded map with per-shard stores), or nothing (pure
// wall-clock kinds like swbst).
type dict struct {
	name      string
	d         core.Dictionary
	store     *dam.Store
	transfers func() uint64
	// files are the temporary files and directories the build created
	// (a WAL and its checkpoint, a spill directory); close removes them.
	files []string
}

// cold starts a measurement phase: it drops every cache the entry has —
// the private store's, a spilled gcola's page cache — and zeroes their
// counters. Self-accounted structures expose no cache control; their
// phases run warm, and sweep measures them as deltas.
func (b dict) cold() {
	if b.store != nil {
		b.store.DropCache()
		b.store.ResetCounters()
	}
	if sp, ok := b.d.(interface {
		DropSpillCache()
		ResetSpillCounters()
	}); ok {
		sp.DropSpillCache()
		sp.ResetSpillCounters()
	}
}

// close ends the entry's measurement: it closes the structure if it
// holds open files and removes the files its build created.
func (b dict) close() {
	if c, ok := b.d.(io.Closer); ok {
		_ = c.Close() // the files are removed next; nothing is read back
	}
	for _, f := range b.files {
		os.RemoveAll(f)
	}
}

// inserts returns the operation that inserts seq's next key, with the
// key as its value.
func (b dict) inserts(seq workload.Sequence) func() {
	return func() {
		k := seq.Next()
		b.d.Insert(k, k)
	}
}

// load inserts seq's next n keys.
func (b dict) load(seq workload.Sequence, n int) {
	insert := b.inserts(seq)
	for i := 0; i < n; i++ {
		insert()
	}
}

// probe inserts seq's next n keys, then runs k searches from a cold
// cache for the keys key draws. It returns transfers per insert,
// searches per second and transfers per search.
func (b dict) probe(seq workload.Sequence, n, k int, key func() uint64) (insertT, searchRate, searchT float64) {
	_, ins := sweep([]int{n}, b.inserts(seq), b.transfers)
	b.cold()
	rate, srch := sweep([]int{k}, func() { b.d.Search(key()) }, b.transfers)
	return ins[0][0], rate[0], srch[0][0]
}

// sweep runs op until it has run ends[i] times, for each i in turn, and
// records for the window since the previous end (the first window
// starts at zero) the wall-clock operations per second and each
// counter's growth per operation: perOp[j][i] is counter j over window
// i.
func sweep(ends []int, op func(), counters ...func() uint64) (rate []float64, perOp [][]float64) {
	perOp = make([][]float64, len(counters))
	last := make([]uint64, len(counters))
	for j, count := range counters {
		last[j] = count()
	}
	done, lastTime := 0, time.Now()
	for _, end := range ends {
		window := float64(end - done)
		for ; done < end; done++ {
			op()
		}
		now := time.Now()
		el := now.Sub(lastTime).Seconds()
		if el <= 0 {
			el = 1e-9
		}
		rate = append(rate, window/el)
		for j, count := range counters {
			v := count()
			perOp[j] = append(perOp[j], float64(v-last[j])/window)
			last[j] = v
		}
		lastTime = now
	}
	return rate, perOp
}

// checkpoints returns the power-of-two sweep ends 2^lo, 2^(lo+1), … up
// to limit, with their exponents as the x values.
func checkpoints(lo, limit int) (xs []float64, ends []int) {
	for lg := lo; 1<<lg <= limit; lg++ {
		xs = append(xs, float64(lg))
		ends = append(ends, 1<<lg)
	}
	return xs, ends
}

// legacySpec maps one of the figures' display names to its registry
// kind and options. The paper's lineup names stay stable in figure
// output while construction goes through the same registry as
// everything else.
type legacySpec struct {
	kind string
	opts func(c Config) []registry.Option
}

var legacyLineup = map[string]legacySpec{
	"2-COLA": {"gcola", func(Config) []registry.Option {
		return []registry.Option{registry.WithGrowthFactor(2)}
	}},
	"4-COLA": {"gcola", func(Config) []registry.Option {
		return []registry.Option{registry.WithGrowthFactor(4)}
	}},
	"8-COLA": {"gcola", func(Config) []registry.Option {
		return []registry.Option{registry.WithGrowthFactor(8)}
	}},
	"basic-COLA": {"basic-cola", nil},
	"B-tree": {"btree", func(c Config) []registry.Option {
		return []registry.Option{registry.WithBlockBytes(c.BlockBytes)}
	}},
	"BRT": {"brt", func(c Config) []registry.Option {
		return []registry.Option{registry.WithBlockBytes(c.BlockBytes)}
	}},
	"deamortized-COLA":           {"deamortized", nil},
	"deamortized-lookahead-COLA": {"deamortized-la", nil},
	"shuttle":                    {"shuttle", nil},
	"CO-B-tree":                  {"cobtree", nil},
}

// LegacyNames returns the figures' display names, sorted — accepted by
// lineup flags alongside the registry kinds.
func LegacyNames() []string {
	out := make([]string, 0, len(legacyLineup))
	for name := range legacyLineup {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ValidateLineup checks that every name is either a figure display name
// or a registered dictionary kind, returning a descriptive error
// otherwise.
func ValidateLineup(names []string) error {
	for _, name := range names {
		if _, ok := legacyLineup[name]; ok {
			continue
		}
		if _, ok := registry.Info(name); ok {
			continue
		}
		return fmt.Errorf("unknown structure %q (registered kinds: %s; figure names: %s)",
			name, strings.Join(registry.Kinds(), ", "), strings.Join(LegacyNames(), ", "))
	}
	return nil
}

// buildWith constructs one lineup entry — a legacy display name or any
// registered kind with its defaults — wired to this config's DAM
// geometry wherever the kind supports accounting. Extra registry
// options are appended after the name-derived ones (later options win),
// so callers — the hypothesis bundles' control arms in particular — can
// perturb a lineup entry ("2-COLA" with its lookahead pointers
// fragmented) without inventing a new display name. The caller closes
// the entry.
func (c Config) buildWith(name string, extra []registry.Option) (dict, error) {
	c = c.withDefaults()
	if err := ValidateLineup([]string{name}); err != nil {
		return dict{}, err
	}
	kind := name
	var opts []registry.Option
	if spec, ok := legacyLineup[name]; ok {
		kind = spec.kind
		if spec.opts != nil {
			opts = spec.opts(c)
		}
	} else if registry.Accepts(kind, registry.OptBlockBytes) {
		opts = append(opts, registry.WithBlockBytes(c.BlockBytes))
	}
	opts = append(opts, extra...)

	b := dict{name: name}
	// The durable wrapper is lineup-able like everything else (putting a
	// WAL under a figure measures the logging overhead directly); each
	// build logs to a fresh temp directory, which close removes.
	if registry.Accepts(kind, registry.OptWALPath) {
		dir, err := os.MkdirTemp("", "streambench-")
		if err != nil {
			return dict{}, err
		}
		b.files = append(b.files, dir)
		opts = append(opts, registry.WithWALPath(filepath.Join(dir, "log.wal")))
	}

	switch {
	case registry.Accepts(kind, registry.OptSpace):
		b.store = dam.NewStore(c.BlockBytes, c.CacheBytes)
		opts = append(opts, registry.WithSpace(b.store.Space(name)))
		b.transfers = b.store.Transfers
	case registry.Accepts(kind, registry.OptShardDAM):
		opts = append(opts, registry.WithShardDAM(c.BlockBytes, c.CacheBytes))
	}

	d, err := registry.Build(kind, opts...)
	if err != nil {
		b.close()
		return dict{}, err
	}
	b.d = d
	if b.transfers == nil {
		if tc, ok := d.(core.TransferCounter); ok {
			b.transfers = tc.Transfers
		} else {
			b.transfers = func() uint64 { return 0 }
		}
	}
	return b, nil
}

// each builds the named lineup entries one at a time, with any extra
// options, hands each to measure and closes it once measure returns. It
// panics on a name that fails to build: lineup flags validate with
// ValidateLineup first.
func (c Config) each(names []string, measure func(b dict), extra ...registry.Option) {
	for _, name := range names {
		b, err := c.buildWith(name, extra)
		if err != nil {
			panic("harness: " + err.Error())
		}
		measure(b)
		b.close()
	}
}

// insertSweep drives seq into each structure, recording, at every
// power-of-two checkpoint, the insert rate and transfers/insert over the
// window since the previous checkpoint.
func (c Config) insertSweep(names []string, mkSeq func() workload.Sequence) (rates, transfers []Series) {
	xs, ends := checkpoints(c.LogNStart, 1<<c.LogN)
	c.each(names, func(b dict) {
		rate, perOp := sweep(ends, b.inserts(mkSeq()), b.transfers)
		rates = append(rates, Series{Name: b.name, X: xs, Y: rate})
		transfers = append(transfers, Series{Name: b.name, X: xs, Y: perOp[0]})
	})
	return rates, transfers
}

// paperLineup is the structure lineup of the paper's Figures 2–4.
var paperLineup = []string{"2-COLA", "4-COLA", "8-COLA", "B-tree"}

// Figure2For runs the Figure 2 experiment — random unique inserts,
// wall-clock rate and DAM transfers per checkpoint window — over a
// lineup of figure names or registered kinds.
func (c Config) Figure2For(names []string) []Result {
	c = c.withDefaults()
	rates, transfers := c.insertSweep(
		names,
		func() workload.Sequence { return workload.NewRandomUnique(c.Seed) },
	)
	return []Result{
		{
			Title:  "Figure 2 — COLA vs B-tree, random inserts (wall clock)",
			XLabel: "log2 N", YLabel: "avg inserts/second (window)",
			Series: rates,
			Notes: []string{
				"Paper: 2-COLA 790x faster than the B-tree out of core (N = 256M).",
				"Shape check: COLA curves stay roughly flat; the B-tree collapses once it leaves the cache.",
			},
		},
		{
			Title:  "Figure 2t — COLA vs B-tree, random inserts (DAM transfers)",
			XLabel: "log2 N", YLabel: "block transfers / insert (window)",
			Series: transfers,
			Notes: []string{
				"The theoretical quantity: COLA amortizes to O((log N)/B) << 1; the B-tree pays Omega(1) per insert out of core.",
			},
		},
	}
}

// Figure3For runs the Figure 3 experiment, "COLA vs B-tree (Sorted
// Inserts)" — keys inserted in descending order, the B-tree's best
// case — over a lineup.
func (c Config) Figure3For(names []string) []Result {
	c = c.withDefaults()
	n := uint64(1) << c.LogN
	rates, transfers := c.insertSweep(
		names,
		func() workload.Sequence { return workload.NewDescending(n) },
	)
	return []Result{
		{
			Title:  "Figure 3 — COLA vs B-tree, sorted (descending) inserts (wall clock)",
			XLabel: "log2 N", YLabel: "avg inserts/second (window)",
			Series: rates,
			Notes: []string{
				"Paper: the 4-COLA is 3.1x slower than the B-tree at N = 2^30 (B-tree keeps its insertion path cached).",
			},
		},
		{
			Title:  "Figure 3t — sorted inserts (DAM transfers)",
			XLabel: "log2 N", YLabel: "block transfers / insert (window)",
			Series: transfers,
		},
	}
}

// Figure4For runs the Figure 4 experiment, "COLA vs B-tree (Random
// Searches)": load with descending keys (as the paper's Figure 3 data),
// drop the cache, then measure searches — over a lineup.
func (c Config) Figure4For(names []string) []Result {
	c = c.withDefaults()
	n := uint64(1) << c.LogN
	xs, ends := checkpoints(0, c.Searches)
	var rates, transfers []Series
	c.each(names, func(b dict) {
		b.load(workload.NewDescending(n), int(n))
		b.cold()
		probe := workload.NewRNG(c.Seed + 1)
		rate, perOp := sweep(ends, func() { b.d.Search(probe.Uint64() % n) }, b.transfers)
		rates = append(rates, Series{Name: b.name, X: xs, Y: rate})
		transfers = append(transfers, Series{Name: b.name, X: xs, Y: perOp[0]})
	})
	return []Result{
		{
			Title:  "Figure 4 — random searches after sorted load (wall clock)",
			XLabel: "log2 searches", YLabel: "avg searches/second (window)",
			Series: rates,
			Notes: []string{
				"Paper: 4-COLA performs 2^15 searches 3.5x slower than the B-tree; early searches are slow on a cold cache.",
			},
		},
		{
			Title:  "Figure 4t — random searches (DAM transfers)",
			XLabel: "log2 searches", YLabel: "block transfers / search (window)",
			Series: transfers,
			Notes: []string{
				"Theory: B-tree O(log_B N) vs COLA O(log N) transfers per search.",
			},
		},
	}
}

// Figure5 regenerates "Ascending vs Descending vs Random Inserts" on the
// 4-COLA.
func (c Config) Figure5() []Result {
	c = c.withDefaults()
	n := uint64(1) << c.LogN
	orders := []struct {
		name string
		mk   func() workload.Sequence
	}{
		{"4-COLA (Ascending)", func() workload.Sequence { return workload.NewAscending() }},
		{"4-COLA (Descending)", func() workload.Sequence { return workload.NewDescending(n) }},
		{"4-COLA (Random)", func() workload.Sequence { return workload.NewRandomUnique(c.Seed) }},
	}
	var rates, transfers []Series
	for _, o := range orders {
		r, t := c.insertSweep([]string{"4-COLA"}, o.mk)
		r[0].Name = o.name
		t[0].Name = o.name
		rates = append(rates, r[0])
		transfers = append(transfers, t[0])
	}
	return []Result{
		{
			Title:  "Figure 5 — 4-COLA: ascending vs descending vs random inserts (wall clock)",
			XLabel: "log2 N", YLabel: "avg inserts/second (window)",
			Series: rates,
			Notes: []string{
				"Paper: descending 1.1x faster than ascending and than random (final merges move fewer target-level items).",
			},
		},
		{
			Title:  "Figure 5t — insertion orders (DAM transfers)",
			XLabel: "log2 N", YLabel: "block transfers / insert (window)",
			Series: transfers,
		},
	}
}

// Ratios condenses the paper's headline numbers: total-workload ratios
// between structures at the largest N.
func (c Config) Ratios() Result {
	c = c.withDefaults()
	n := 1 << c.LogN
	un := uint64(n)

	run := func(name string, seq workload.Sequence) (opsPerSec, transfersPerOp float64) {
		c.each([]string{name}, func(b dict) {
			rate, perOp := sweep([]int{n}, b.inserts(seq), b.transfers)
			opsPerSec, transfersPerOp = rate[0], perOp[0][0]
		})
		return opsPerSec, transfersPerOp
	}
	searchRun := func(name string) (opsPerSec, transfersPerOp float64) {
		rng := workload.NewRNG(c.Seed + 1)
		c.each([]string{name}, func(b dict) {
			_, opsPerSec, transfersPerOp = b.probe(workload.NewDescending(un), n, c.Searches,
				func() uint64 { return rng.Uint64() % un })
		})
		return opsPerSec, transfersPerOp
	}

	colaRandW, colaRandT := run("2-COLA", workload.NewRandomUnique(c.Seed))
	btRandW, btRandT := run("B-tree", workload.NewRandomUnique(c.Seed))
	cola4SortW, cola4SortT := run("4-COLA", workload.NewDescending(un))
	btSortW, btSortT := run("B-tree", workload.NewDescending(un))
	colaSearchW, colaSearchT := searchRun("4-COLA")
	btSearchW, btSearchT := searchRun("B-tree")
	ascW, _ := run("4-COLA", workload.NewAscending())
	descW, _ := run("4-COLA", workload.NewDescending(un))

	mk := func(name string, paper, wall, trans float64) Series {
		return Series{Name: name, X: []float64{paper}, Y: []float64{wall, trans}}
	}
	return Result{
		Title:  "Headline ratios (paper vs measured; X = paper, Y = [wall-clock ratio, transfer ratio])",
		XLabel: "paper ratio",
		YLabel: "measured",
		Series: []Series{
			mk("random inserts: COLA faster than B-tree by", 790, colaRandW/btRandW, btRandT/colaRandT),
			mk("sorted inserts: 4-COLA slower than B-tree by", 3.1, btSortW/cola4SortW, cola4SortT/btSortT),
			mk("searches: 4-COLA slower than B-tree by", 3.5, btSearchW/colaSearchW, colaSearchT/btSearchT),
			mk("4-COLA: descending faster than ascending by", 1.1, descW/ascW, 1),
		},
		Notes: []string{
			"Wall-clock ratios depend on the host; transfer ratios are deterministic for a given (B, M, N).",
			"The paper's 790x requires true out-of-core scale (N = 2^28 on disk); shrink M or raise LogN to widen the gap.",
		},
	}
}

// Transfers is experiment E6: transfers/op for every structure on one
// random workload, checking each claimed bound's order of magnitude.
func (c Config) Transfers() Result {
	c = c.withDefaults()
	n := 1 << c.LogN
	var series []Series
	point := func(name string, b dict) {
		insertT, _, searchT := b.probe(workload.NewRandomUnique(c.Seed), n, c.Searches, workload.NewRNG(c.Seed+1).Uint64)
		series = append(series, Series{Name: name, X: []float64{float64(n)}, Y: []float64{insertT, searchT}})
	}
	c.each([]string{"2-COLA", "basic-COLA", "deamortized-COLA", "deamortized-lookahead-COLA", "BRT", "B-tree", "shuttle"},
		func(b dict) { point(b.name, b) })
	// Cache-aware lookahead array across epsilon.
	for _, eps := range []float64{0, 0.5, 1} {
		c.each([]string{"la"}, func(b dict) {
			point(fmt.Sprintf("LA(eps=%.1f, g=%d)", eps, b.d.(*la.Array).GrowthFactor()), b)
		}, registry.WithEpsilon(eps))
	}
	return Result{
		Title:  "E6 — DAM transfers per operation (Y = [insert, search])",
		XLabel: "N",
		YLabel: "transfers/op",
		Series: series,
		Notes: []string{
			"Expected order: inserts COLA ~ BRT << B-tree; searches B-tree < COLA family;",
			"LA sweeps from the COLA point (eps=0) to the B-tree point (eps=1).",
		},
	}
}

// Deamortized is experiment E7: worst-case insert cost, amortized vs
// deamortized.
func (c Config) Deamortized() Result {
	c = c.withDefaults()
	n := 1 << c.LogN
	var series []Series
	c.each([]string{"2-COLA", "deamortized-COLA", "deamortized-lookahead-COLA"}, func(b dict) {
		b.load(workload.NewRandomUnique(c.Seed), n)
		st := b.d.(core.Statser).Stats()
		series = append(series, Series{
			Name: b.name,
			X:    []float64{float64(n)},
			Y:    []float64{float64(st.MaxMoves), float64(st.Moves) / float64(n)},
		})
	})
	return Result{
		Title:  "E7 — worst-case insert moves (Y = [max moves in one insert, amortized moves/insert])",
		XLabel: "N",
		YLabel: "element moves",
		Series: series,
		Notes: []string{
			"Theorems 22/24: deamortized variants bound the worst case by O(log N) while the",
			"amortized COLA's worst single insert rebuilds nearly the whole structure (Omega(N)).",
		},
	}
}

// Shuttle is experiment E8: shuttle tree vs B-tree vs CO-B-tree-proxy
// transfers across block sizes.
func (c Config) Shuttle() Result {
	c = c.withDefaults()
	n := 1 << c.LogN
	var series []Series
	for _, blockBytes := range []int64{512, 4096, 32768} {
		cb := c
		cb.BlockBytes = blockBytes
		cb.each([]string{"shuttle", "CO-B-tree", "B-tree"}, func(b dict) {
			insertT, _, searchT := b.probe(workload.NewRandomUnique(c.Seed), n, c.Searches/4, workload.NewRNG(c.Seed+1).Uint64)
			series = append(series, Series{
				Name: fmt.Sprintf("%s B=%d", b.name, blockBytes),
				X:    []float64{float64(blockBytes)},
				Y:    []float64{insertT, searchT},
			})
		})
	}
	return Result{
		Title:  "E8 — shuttle tree vs B-tree across block sizes (Y = [insert, search] transfers/op)",
		XLabel: "block bytes",
		YLabel: "transfers/op",
		Series: series,
		Notes: []string{
			"The shuttle tree is cache-oblivious: the same structure is measured at every B.",
			"Expected shape: shuttle insert transfers beat the B-tree's as B grows (buffers amortize",
			"block crossings); searches stay within a constant factor of the B-tree.",
		},
	}
}

// Print renders a Result as an aligned text table.
func Print(w io.Writer, r Result) {
	fmt.Fprintf(w, "\n== %s ==\n", r.Title)
	if len(r.Series) == 0 {
		return
	}
	// Figure-style (multi-X) or summary-style (single X per series)?
	if len(r.Series[0].X) > 1 {
		fmt.Fprintf(w, "%-14s", r.XLabel)
		for _, s := range r.Series {
			fmt.Fprintf(w, "%22s", s.Name)
		}
		fmt.Fprintln(w)
		for i := range r.Series[0].X {
			fmt.Fprintf(w, "%-14.0f", r.Series[0].X[i])
			for _, s := range r.Series {
				if i < len(s.Y) {
					fmt.Fprintf(w, "%22s", formatF(s.Y[i]))
				} else {
					fmt.Fprintf(w, "%22s", "-")
				}
			}
			fmt.Fprintln(w)
		}
	} else {
		nameW := 0
		for _, s := range r.Series {
			if len(s.Name) > nameW {
				nameW = len(s.Name)
			}
		}
		for _, s := range r.Series {
			fmt.Fprintf(w, "%-*s  x=%s  y=[", nameW, s.Name, formatF(s.X[0]))
			parts := make([]string, len(s.Y))
			for i, y := range s.Y {
				parts[i] = formatF(y)
			}
			fmt.Fprintf(w, "%s]\n", strings.Join(parts, ", "))
		}
	}
	for _, note := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", note)
	}
}

// CSV renders a Result as comma-separated values.
func CSV(w io.Writer, r Result) {
	fmt.Fprintf(w, "# %s\n", r.Title)
	fmt.Fprintf(w, "series,x,y_index,y\n")
	for _, s := range r.Series {
		for i := range s.X {
			for yi, y := range s.Y {
				if len(s.X) > 1 && yi != i {
					continue
				}
				xi := i
				if len(s.X) == 1 {
					xi = 0
				}
				fmt.Fprintf(w, "%s,%g,%d,%g\n", s.Name, s.X[xi], yi, y)
			}
		}
	}
}

func formatF(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000:
		return fmt.Sprintf("%.3g", v)
	case v >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// Figure is one experiment streambench runs by name.
type Figure struct {
	Name string
	// Lineup is the default structure lineup of a figure that runs over
	// any lineup (streambench's -dict replaces it); nil for a figure
	// with a fixed lineup.
	Lineup []string
	// inAll marks the figures All runs: the deterministic paper figures
	// whose DAM transfers BENCH_0.json gates. The rest depend on real
	// I/O, the network or the host's cores.
	inAll bool
	// Run measures the figure over lineup (nil for a fixed lineup).
	Run func(c Config, lineup []string) ([]Result, error)
}

// Results runs f over lineup, or over its default lineup when lineup is
// nil.
func (f Figure) Results(c Config, lineup []string) ([]Result, error) {
	if lineup == nil {
		lineup = f.Lineup
	}
	return f.Run(c, lineup)
}

// figures is every experiment streambench can run, in the order All
// runs its share of them.
var figures = []Figure{
	{Name: "2", Lineup: paperLineup, inAll: true, Run: overLineup(Config.Figure2For)},
	{Name: "3", Lineup: paperLineup, inAll: true, Run: overLineup(Config.Figure3For)},
	{Name: "4", Lineup: paperLineup, inAll: true, Run: overLineup(Config.Figure4For)},
	{Name: "5", inAll: true, Run: func(c Config, _ []string) ([]Result, error) { return c.Figure5(), nil }},
	{Name: "ratios", inAll: true, Run: single(Config.Ratios)},
	{Name: "transfers", inAll: true, Run: single(Config.Transfers)},
	{Name: "deamortized", inAll: true, Run: single(Config.Deamortized)},
	{Name: "scans", inAll: true, Run: single(Config.RangeScans)},
	{Name: "shuttle", inAll: true, Run: single(Config.Shuttle)},
	{Name: "concurrent", inAll: true, Run: single(Config.Concurrent)},
	{Name: "readmostly", Run: single(Config.ReadMostly)},
	{Name: "durability", Run: single(Config.Durability)},
	{Name: "scenarios", Lineup: []string{"2-COLA", "B-tree"}, Run: func(c Config, lineup []string) ([]Result, error) {
		return c.ScenariosFor(lineup, DefaultScenarioGrid())
	}},
	{Name: "serve", Run: func(c Config, _ []string) ([]Result, error) {
		r, err := c.Serve()
		return []Result{r}, err
	}},
	{Name: "outofcore", Run: func(c Config, _ []string) ([]Result, error) { return c.OutOfCore() }},
}

func overLineup(run func(Config, []string) []Result) func(Config, []string) ([]Result, error) {
	return func(c Config, lineup []string) ([]Result, error) { return run(c, lineup), nil }
}

func single(run func(Config) Result) func(Config, []string) ([]Result, error) {
	return func(c Config, _ []string) ([]Result, error) { return []Result{run(c)}, nil }
}

// Figures returns every experiment streambench can run by name, in the
// order All runs its share of them. Callers must not modify it.
func Figures() []Figure { return figures }

// LookupFigure returns the named figure.
func LookupFigure(name string) (Figure, bool) {
	for _, f := range figures {
		if f.Name == name {
			return f, true
		}
	}
	return Figure{}, false
}

// All runs every inAll figure, in order, over its default lineup.
func (c Config) All() []Result {
	var out []Result
	for _, f := range figures {
		if !f.inAll {
			continue
		}
		rs, err := f.Results(c, nil)
		if err != nil {
			panic("harness: " + err.Error()) // in-memory figures have no failure path
		}
		out = append(out, rs...)
	}
	return out
}

// RangeScans is experiment E9, the contiguity claim of Section 1: "For
// disk-based storage systems, range queries are likely to be faster for
// a lookahead array than for a BRT because the data is stored
// contiguously in arrays ... rather than stored scattered on blocks
// across disk." Measures transfers per returned element for window scans
// after a random load, cold cache.
func (c Config) RangeScans() Result {
	c = c.withDefaults()
	n := 1 << c.LogN
	const window = 1 << 10
	var series []Series
	c.each([]string{"2-COLA", "BRT", "B-tree"}, func(b dict) {
		// Dense keys 0..n-1 in random arrival order so every window is
		// full and scans are comparable.
		perm := workload.NewRNG(c.Seed)
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(i)
		}
		for i := n - 1; i > 0; i-- {
			j := int(perm.Uint64() % uint64(i+1))
			keys[i], keys[j] = keys[j], keys[i]
		}
		for _, k := range keys {
			b.d.Insert(k, k)
		}
		b.cold()
		rng := workload.NewRNG(c.Seed + 9)
		returned := 0
		for s := 0; s < 64; s++ {
			lo := rng.Uint64() % uint64(n-window)
			b.d.Range(lo, lo+window-1, func(core.Element) bool {
				returned++
				return true
			})
		}
		series = append(series, Series{
			Name: b.name,
			X:    []float64{float64(n)},
			Y:    []float64{float64(b.transfers()) / float64(returned)},
		})
	})
	return Result{
		Title:  "E9 — range scans, transfers per returned element (cold cache)",
		XLabel: "N",
		YLabel: "transfers/element",
		Series: series,
		Notes: []string{
			"Section 1's contiguity claim: the lookahead array's levels are contiguous arrays,",
			"so scans approach the 1/B sequential bound. Caveat recorded in DESIGN.md:",
			"this repo's BRT allocates nodes in key-clustered creation order under dense loads,",
			"so the paper's 'scattered on blocks across disk' premise does not manifest at",
			"simulator scale; the claim reduces to the COLA tracking the sequential bound.",
		},
	}
}
