// Out-of-core experiment (E15 in DESIGN.md): a gcola built with
// WithSpillDir runs its cold levels in chunk-aligned files behind a
// deliberately starved page cache, and every operation is measured
// twice — the DAM-charged prediction (the model's block count) and the
// chunk reads/writes that actually hit the spill files. The two streams
// side by side are the repo's direct test of the DAM substitution
// table: merges stream sequentially so insert transfers should track
// the prediction closely, and cache-starved random searches should pay
// roughly the charged O(log N) block reads for the spilled levels.
//
// The DAM cache M is pinned to the spill page-cache budget so both
// accountants see the same geometry. Levels below the spill depth stay
// in RAM and cost no actual I/O, so the actual curve sits below the
// predicted one by the charges of the hot levels — the ratio note
// quantifies the gap for the CI lane.
//
// Like E11/E12 this experiment is excluded from All(): its numbers
// depend on real file I/O and must not enter the committed
// deterministic-transfer baseline.

package harness

import (
	"fmt"
	"os"

	"repro/internal/registry"
	"repro/internal/workload"
)

// spillDict is the measurement surface a spilled gcola exposes beyond
// core.Dictionary: actual chunk I/O counters and file statistics (its
// cache controls are what dict.cold drives).
type spillDict interface {
	ActualTransfers() (reads, writes uint64)
	SpillFileStats() (files int, bytes int64, err error)
	SpillCacheChunks() (chunks, chunkBytes int)
}

// outOfCoreSpillCacheBytes starves the page cache enough that the
// spilled levels of the default 2^18-element sweep cannot be held
// resident (16 chunks of 4 KiB against several MiB of spill files).
const outOfCoreSpillCacheBytes = 64 << 10

// spillDepth is the first spilled level: only the top levels (a few
// thousand cells) stay in RAM, so a sweep crosses into the out-of-core
// regime early.
func (c Config) spillDepth() int { return max(c.LogN-6, 2) }

// spilled builds the gcola E15 measures, spilling at c.spillDepth() into
// a fresh temp directory behind a page cache of spillCacheBytes; the
// entry's close removes the directory.
func (c Config) spilled(spillCacheBytes int64) (dict, spillDict, error) {
	dir, err := os.MkdirTemp("", "streambench-spill-")
	if err != nil {
		return dict{}, nil, err
	}
	b, err := c.buildWith("gcola", []registry.Option{
		registry.WithSpillDir(dir),
		registry.WithSpillDepth(c.spillDepth()),
		registry.WithSpillCacheBytes(spillCacheBytes),
	})
	if err != nil {
		os.RemoveAll(dir)
		return dict{}, nil, err
	}
	b.files = append(b.files, dir)
	sd, ok := b.d.(spillDict)
	if !ok {
		b.close()
		return dict{}, nil, fmt.Errorf("harness: spilled gcola does not expose spill accounting")
	}
	return b, sd, nil
}

// OutOfCoreSearchTransfers is the measurement core of the
// dam-model-fidelity hypothesis bundle: it loads a spilled gcola with
// 2^LogN random-unique elements, drops every cache, runs `searches`
// random point searches, and returns the DAM-charged and
// actually-performed block reads per search. The DAM cache stays at
// c.CacheBytes in both arms; spillCacheBytes independently sets the
// real page-cache budget, so a caller can starve it (actual reads must
// then track the charges) or oversize it (actual reads must collapse
// while the charges do not).
func (c Config) OutOfCoreSearchTransfers(spillCacheBytes int64, searches int) (charged, actual float64, err error) {
	c = c.withDefaults()
	b, sd, err := c.spilled(spillCacheBytes)
	if err != nil {
		return 0, 0, err
	}
	defer b.close()

	n := 1 << c.LogN
	b.load(workload.NewRandomUnique(c.Seed), n)
	keys := workload.Take(workload.NewRandomUnique(c.Seed), n)
	b.cold()
	probe := workload.NewRNG(c.Seed + 1)
	reads := func() uint64 {
		r, _ := sd.ActualTransfers()
		return r
	}
	_, perOp := sweep([]int{searches}, func() { b.d.Search(keys[probe.Intn(len(keys))]) }, b.transfers, reads)
	return perOp[0][0], perOp[1][0], nil
}

// OutOfCore is experiment E15: random inserts then cold random searches
// on a spilled gcola, reporting DAM-predicted and actually-performed
// block transfers per operation at every power-of-two checkpoint.
func (c Config) OutOfCore() ([]Result, error) {
	c = c.withDefaults()
	c.CacheBytes = outOfCoreSpillCacheBytes
	b, sd, err := c.spilled(outOfCoreSpillCacheBytes)
	if err != nil {
		return nil, err
	}
	defer b.close()
	actual := func() uint64 {
		r, w := sd.ActualTransfers()
		return r + w
	}

	// Insert phase: the Figure 2 sweep with both accountants read at
	// every checkpoint.
	n := 1 << c.LogN
	ixs, ends := checkpoints(c.LogNStart, n)
	_, ins := sweep(ends, b.inserts(workload.NewRandomUnique(c.Seed)), b.transfers, actual)
	insPredTotal, insActTotal := b.transfers(), actual()

	// Search phase: cold caches on both sides, probes drawn from the
	// inserted key stream so every search hits.
	keys := workload.Take(workload.NewRandomUnique(c.Seed), n)
	b.cold()
	probe := workload.NewRNG(c.Seed + 1)
	sxs, ends := checkpoints(0, c.Searches)
	_, srch := sweep(ends, func() { b.d.Search(keys[probe.Intn(len(keys))]) }, b.transfers, actual)
	srchPredTotal, srchActTotal := b.transfers(), actual()

	files, bytes, err := sd.SpillFileStats()
	if err != nil {
		return nil, fmt.Errorf("harness: spill file stats: %w", err)
	}
	chunks, chunkBytes := sd.SpillCacheChunks()

	ratio := func(num, den uint64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	notes := []string{
		fmt.Sprintf("geometry: N = 2^%d, spill depth %d, page cache %d chunks x %d B, DAM B = %d M = %d",
			c.LogN, c.spillDepth(), chunks, chunkBytes, c.BlockBytes, c.CacheBytes),
		fmt.Sprintf("spill files: %d (%d bytes)", files, bytes),
		fmt.Sprintf("predicted/actual insert transfers: %.2f", ratio(insPredTotal, insActTotal)),
		fmt.Sprintf("predicted/actual search transfers: %.2f", ratio(srchPredTotal, srchActTotal)),
	}
	return []Result{
		{
			Title:  "E15 — out-of-core random inserts: DAM-predicted vs actual chunk transfers",
			XLabel: "log2 N", YLabel: "block transfers / insert (window)",
			Series: []Series{
				{Name: "predicted (DAM)", X: ixs, Y: ins[0]},
				{Name: "actual (chunk I/O)", X: ixs, Y: ins[1]},
			},
			Notes: append([]string{
				"Merges stream spilled levels sequentially, so the actual curve should track the",
				"predicted O((log N)/B)-amortized one once the sweep passes the spill depth;",
				"early windows touch only RAM levels and perform no I/O at all.",
			}, notes...),
		},
		{
			Title:  "E15s — out-of-core random searches, cold cache: predicted vs actual",
			XLabel: "log2 searches", YLabel: "block transfers / search (window)",
			Series: []Series{
				{Name: "predicted (DAM)", X: sxs, Y: srch[0]},
				{Name: "actual (chunk reads)", X: sxs, Y: srch[1]},
			},
			Notes: []string{
				"A cache-starved random search walks every spilled level, paying real chunk reads",
				"near the charged count; the gap is the RAM-resident top levels plus page-cache hits.",
				"The dam-model-fidelity hypothesis bundle gates this agreement in CI.",
			},
		},
	}, nil
}
