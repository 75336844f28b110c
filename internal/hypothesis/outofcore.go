package hypothesis

import (
	"fmt"

	"repro/internal/harness"
)

// The out-of-core edition of the repo's foundational assumption (PR 9 /
// E15): every figure substitutes DAM-charged transfers for real disk
// I/O, and this bundle checks the substitution against a structure that
// actually performs it. A gcola built with WithSpillDir keeps its cold
// levels in chunk-aligned files behind a page cache sized like the DAM
// cache M; at that starved geometry the chunk reads a random search
// really performs must land within 2x of the reads the model charges.
// The control removes the starvation — a page cache big enough to hold
// every spill file — and the actual reads must collapse toward zero
// while the charges, computed against the unchanged DAM geometry, do
// not: the agreement is produced by the shared geometry, not by the
// counters measuring the same thing twice.
func init() {
	mustRegister(Bundle{
		Name:  "dam-model-fidelity",
		Title: "DAM charges predict real out-of-core block reads",
		Claim: "At a cache-starved geometry the chunk reads per random search a spilled " +
			"gcola actually performs are within 2x of the DAM-charged block reads " +
			"(agreement min(charged,actual)/max(charged,actual) >= 0.5).",
		Mechanism: "The spill store and the DAM model share the geometry — 4 KiB blocks, " +
			"matching cache budgets — and the spilled search path issues its charges at " +
			"the same logical offsets it reads through the page cache, so a cold random " +
			"search pays roughly one real chunk read per charged block of every spilled " +
			"level; only the RAM-resident top levels and residual cache hits separate " +
			"the two counts.",
		Metric:     MetricTransfersPerOp,
		Experiment: fidelityRatio("charged vs actual reads/search, starved page cache", true, fidelityStarvedCache),
		MinRatio:   0.5,
		Control:    fidelityRatio("actual/charged reads/search, page cache holds everything", false, fidelityFullCache),
		ControlMax: 0.1,
		Tolerance:  0.2,
		LogN:       14,
		CacheBytes: 64 << 10,
	})
}

// The two page-cache operating points: starved matches the DAM cache M
// (16 chunks), full exceeds the total spill-file footprint at N = 2^14
// (~600 KiB) by two orders of magnitude.
const (
	fidelityStarvedCache = 64 << 10
	fidelityFullCache    = 64 << 20
)

// fidelitySearches is the length of each arm's search phase.
const fidelitySearches = 1 << 13

// fidelityRatio builds one ratio over the spilled gcola's search phase
// behind a page cache of spillCache bytes: the numerator arm counts the
// chunk reads actually performed, the denominator the DAM-charged ones.
// Each arm reruns the deterministic phase and keeps its own count; the
// scenario string only labels the mode and budget in the verdict.
func fidelityRatio(label string, agreement bool, spillCache int64) Ratio {
	mode := "actual/charged"
	if agreement {
		mode = "agreement"
	}
	scen := fmt.Sprintf("%s spill-cache=%d", mode, spillCache)
	arm := func(label string, actual bool) Arm {
		return Arm{
			Structure: "gcola (spilled)",
			Scenario:  scen,
			Label:     label,
			Measure: func(cfg harness.Config) (float64, error) {
				charged, got, err := cfg.OutOfCoreSearchTransfers(spillCache, fidelitySearches)
				if actual {
					return got, err
				}
				return charged, err
			},
		}
	}
	return Ratio{
		Label:     label,
		Num:       arm("actual chunk reads/search", true),
		Den:       arm("DAM-charged reads/search", false),
		Agreement: agreement,
	}
}
