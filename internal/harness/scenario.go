// Scenario family runner (E13 in DESIGN.md): drives composable
// workload scenarios — the key-skew × arrival-pattern × op-mix grid of
// internal/workload — against any lineup of structures, reporting DAM
// transfers per operation (deterministic, gateable) with wall-clock
// rates in the notes.
//
// Semantics, chosen so every cell of the grid measures a steady state
// the theory speaks about:
//
//   - The scenario keyspace is the dense range [0, 2^LogN). Mixes with
//     a read component (searches or scans) run against a preloaded
//     keyspace — every key present, cache dropped, counters reset
//     before measurement — so reads hit and the mix measures steady
//     traffic, not a ramp-up. Write/delete-only mixes start empty and
//     measure the growth path itself, like Figures 2/3.
//   - Arrival patterns are real batching: the ops of one tick that are
//     consecutive inserts are applied through core.InsertBatch, so a
//     bursty stream genuinely amortizes (or fails to amortize) batch
//     ingestion, instead of arrival being a cosmetic relabeling.
//   - Deletes replay the insert-key stream in insertion order (see
//     workload.Stream), so churn mixes hold the live set bounded while
//     tombstone-based structures keep paying for dead entries.
//
// Like E11/E12, the scenario family is not part of All(): the committed
// BENCH_0.json gate stays exactly the paper-figure workloads. Scenario
// runs emit their own perf records (op = slugged scenario title) when
// streambench -json is passed.

package harness

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/workload"
)

// DefaultScenarioGrid is the curated slice of the skew × arrival × mix
// grid that -fig scenarios runs by default: every skew under a steady
// read-mostly mix, every arrival pattern under pure inserts, plus a
// delete-churn and a scan-heavy cell.
func DefaultScenarioGrid() []string {
	return []string{
		"uniform+steady+95r5w",
		"zipf1.2+steady+95r5w",
		"hotset+steady+95r5w",
		"sequential+steady+95r5w",
		"uniform+steady+100w",
		"uniform+bursty+100w",
		"uniform+diurnal+100w",
		"uniform+steady+60w40d",
		"uniform+steady+90r5w5s",
	}
}

// ScenarioMeasurement is one structure's measured cost under one
// scenario.
type ScenarioMeasurement struct {
	Structure string
	Scenario  string
	// Ops is the number of measured operations (preload excluded).
	Ops int
	// Preloaded is the number of elements inserted before measurement
	// (0 for write/delete-only mixes).
	Preloaded int
	// Counts per op kind over the measured window.
	Inserts, Searches, Deletes, Scans int
	// TransfersPerOp is DAM block transfers per measured op —
	// deterministic for a fixed (scenario, seed, geometry).
	TransfersPerOp float64
	// NsPerOp is wall-clock nanoseconds per measured op (host-dependent).
	NsPerOp float64
}

// MeasureScenario builds one structure — a figure display name or
// registered kind, plus optional extra registry options — wires it to
// this config's DAM geometry, and drives 2^LogN ops of the scenario
// through it. The scenario's seed and keyspace come from the config
// (Seed, 2^LogN); the spec string carries only workload shape.
func (c Config) MeasureScenario(structure string, extra []registry.Option, spec string) (ScenarioMeasurement, error) {
	c = c.withDefaults()
	sc, err := workload.Parse(spec)
	if err != nil {
		return ScenarioMeasurement{}, err
	}
	sc.Seed = c.Seed
	sc.KeySpace = uint64(1) << c.LogN

	b, err := c.buildWith(structure, extra)
	if err != nil {
		return ScenarioMeasurement{}, err
	}
	defer b.close()
	if sc.Mix.DeletePct > 0 {
		if _, ok := b.d.(core.Deleter); !ok {
			return ScenarioMeasurement{}, fmt.Errorf("scenario %s needs deletes but structure %q does not implement core.Deleter", sc.Name(), structure)
		}
	}

	m := ScenarioMeasurement{Structure: b.name, Scenario: sc.Name(), Ops: 1 << c.LogN}

	// Preload a dense keyspace for mixes that read: searches and scans
	// must hit live keys to measure steady-state traffic. Chunked so
	// huge LogN does not materialize the whole keyspace at once.
	if sc.Mix.SearchPct+sc.Mix.ScanPct > 0 {
		const chunk = 1 << 15
		elems := make([]core.Element, 0, chunk)
		for lo := uint64(0); lo < sc.KeySpace; lo += chunk {
			elems = elems[:0]
			hi := lo + chunk
			if hi > sc.KeySpace {
				hi = sc.KeySpace
			}
			for k := lo; k < hi; k++ {
				elems = append(elems, core.Element{Key: k, Value: scenarioValue(k)})
			}
			core.InsertBatch(b.d, elems)
		}
		m.Preloaded = int(sc.KeySpace)
		b.cold()
	}

	st, err := sc.Stream()
	if err != nil {
		return ScenarioMeasurement{}, err
	}
	startTransfers := b.transfers()
	start := time.Now()
	c.driveScenario(b.d, st, m.Ops, &m)
	el := time.Since(start).Seconds()
	if el <= 0 {
		el = 1e-9
	}
	m.TransfersPerOp = float64(b.transfers()-startTransfers) / float64(m.Ops)
	m.NsPerOp = el * 1e9 / float64(m.Ops)
	return m, nil
}

// scenarioValue is the deterministic value bound to key k in scenario
// runs, so searches can (and the tests do) verify hits.
func scenarioValue(k uint64) uint64 { return k ^ 0xE13 }

// driveScenario applies n ops tick by tick. Consecutive inserts within
// one tick go through core.InsertBatch — the arrival pattern's batching
// is real work-shape, not labeling.
func (c Config) driveScenario(d core.Dictionary, st *workload.Stream, n int, m *ScenarioMeasurement) {
	del, _ := d.(core.Deleter)
	var tick []workload.Op
	var batch []core.Element
	applied := 0
	for applied < n {
		tick = st.NextTick(tick[:0])
		if len(tick) > n-applied {
			tick = tick[:n-applied]
		}
		i := 0
		for i < len(tick) {
			if tick[i].Kind == workload.OpInsert {
				batch = batch[:0]
				for i < len(tick) && tick[i].Kind == workload.OpInsert {
					k := tick[i].Key
					batch = append(batch, core.Element{Key: k, Value: scenarioValue(k)})
					i++
				}
				core.InsertBatch(d, batch)
				m.Inserts += len(batch)
				continue
			}
			op := tick[i]
			i++
			switch op.Kind {
			case workload.OpSearch:
				d.Search(op.Key)
				m.Searches++
			case workload.OpDelete:
				del.Delete(op.Key)
				m.Deletes++
			case workload.OpScan:
				d.Range(op.Key, op.Key+workload.ScanSpan-1, func(core.Element) bool { return true })
				m.Scans++
			}
		}
		applied += len(tick)
	}
}

// ScenariosFor runs every scenario spec over the lineup, one Result per
// scenario: X = N, Y = [transfers/op] per structure, wall-clock rates
// in the notes. Specs and lineup must already be validated
// (workload.Parse / ValidateLineup); a build or drive failure surfaces
// as an error.
func (c Config) ScenariosFor(names []string, specs []string) ([]Result, error) {
	c = c.withDefaults()
	var out []Result
	for _, spec := range specs {
		r := Result{
			XLabel: "N",
			YLabel: "transfers/op",
		}
		var notes []string
		for _, name := range names {
			m, err := c.MeasureScenario(name, nil, spec)
			if err != nil {
				return nil, err
			}
			// The canonical scenario name (not the raw spec) titles the
			// result, so perf-record identity is spelling-independent.
			r.Title = fmt.Sprintf("E13 — scenario %s (DAM transfers)", m.Scenario)
			r.Series = append(r.Series, Series{
				Name: m.Structure,
				X:    []float64{float64(m.Ops)},
				Y:    []float64{m.TransfersPerOp},
			})
			notes = append(notes, fmt.Sprintf("%s: %.0f ops/s wall-clock; mix applied %dw/%dr/%dd/%ds, preload %d",
				m.Structure, 1e9/m.NsPerOp, m.Inserts, m.Searches, m.Deletes, m.Scans, m.Preloaded))
		}
		r.Notes = notes
		out = append(out, r)
	}
	return out, nil
}
