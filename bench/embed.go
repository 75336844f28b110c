package main

// embed-ingest-scan: the library user of the paper's structure. One
// goroutine calls Insert, Search and Range on a bare gcola — no server,
// shard map, WAL or spill store.
//
// Unlike the served workloads its op counts are fixed: a run plays
// whole cycles (fresh gcola; N inserts, then searches, then 64-key
// ranges) until --seconds have passed, and reports medians over the
// cycles. With fixed counts each phase weighs on the cycle's throughput
// by the time it takes, so a slower Range shows in throughput_ops_s; a
// time-split run would hide it behind the millions of cheap inserts.

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/dam"
	"repro/internal/registry"
	"repro/internal/workload"
)

// embedCycleStats is one cycle: the embedded workload's time slice.
type embedCycleStats struct {
	rate     float64       // ops/s
	cpuPerOp float64       // CPU us per op
	quant    [3][2]float64 // p50 and p99 in us of the cycle's puts, gets and ranges
}

// embedPass is what the cycles of one run measured.
type embedPass struct {
	cycles  []embedCycleStats
	setups  []float64 // seconds per registry.Build, embedSetups samples
	samples [3]int    // put, get and range samples over all cycles
	ops     uint64
	failed  uint64
	peakRSS float64
	stats   core.Stats // cycle 0: exact for a seed
	inserts uint64     // cycle 0
	spans   []span     // traced: every call of every cycle, in call order

	lat      [numClasses][]uint32 // the current cycle's samples, reused
	rangeLat []uint32
}

// checkRange verifies one Range answer: ascending, inside [lo, hi], at
// most rangeSpan elements, key-derived values, and exactly the keys the
// caller knows to be present.
func checkRange(lo, hi uint64, got []core.Element, present bitset) bool {
	if len(got) > rangeSpan {
		return false
	}
	for i, e := range got {
		if e.Key < lo || e.Key > hi || e.Value != valueOf(e.Key) || !present.has(e.Key) {
			return false
		}
		if i > 0 && got[i-1].Key >= e.Key {
			return false
		}
	}
	want := 0
	for k := lo; k <= hi; k++ {
		if present.has(k) {
			want++
		}
	}
	return len(got) == want
}

// embedCycle plays one cycle against d, which must be empty. Latencies
// are window-position latencies like the served workloads': calls go
// out in windows of `pipeline`, and a call's latency runs from the
// start of its window to its own return.
func (p *embedPass) embedCycle(w workloadSpec, d core.Dictionary, seed uint64, present bitset) (embedCycleStats, error) {
	rng := workload.NewRNG(seed)
	clear(present)
	p.lat[clsPut], p.lat[clsGet], p.rangeLat = p.lat[clsPut][:0], p.lat[clsGet][:0], p.rangeLat[:0]
	cpu0, err := cpuSeconds()
	if err != nil {
		return embedCycleStats{}, err
	}
	start := time.Now()

	for done := 0; done < w.embedInserts; done += pipeline {
		t0 := time.Now()
		for i := 0; i < pipeline; i++ {
			k := rng.Uint64() % w.keySpace
			d.Insert(k, valueOf(k))
			p.lat[clsPut] = append(p.lat[clsPut], satNS(time.Since(t0)))
			present.set(k)
		}
	}
	for done := 0; done < w.embedSearches; done += pipeline {
		t0 := time.Now()
		for i := 0; i < pipeline; i++ {
			k := rng.Uint64() % w.keySpace
			v, ok := d.Search(k)
			p.lat[clsGet] = append(p.lat[clsGet], satNS(time.Since(t0)))
			if ok != present.has(k) || (ok && v != valueOf(k)) {
				p.failed++
			}
		}
	}
	got := make([]core.Element, 0, rangeSpan)
	for i := 0; i < w.embedRngs; i++ {
		lo := rng.Uint64() % (w.keySpace - rangeSpan)
		got = got[:0]
		t0 := time.Now()
		d.Range(lo, lo+rangeSpan-1, func(e core.Element) bool {
			got = append(got, e)
			return true
		})
		p.rangeLat = append(p.rangeLat, satNS(time.Since(t0)))
		if !checkRange(lo, lo+rangeSpan-1, got, present) {
			p.failed++
		}
	}
	t3 := time.Now()
	cpu1, err := cpuSeconds()
	if err != nil {
		return embedCycleStats{}, err
	}

	ops := len(p.lat[clsPut]) + len(p.lat[clsGet]) + len(p.rangeLat)
	p.ops += uint64(ops)
	c := embedCycleStats{
		rate:     float64(ops) / t3.Sub(start).Seconds(),
		cpuPerOp: (cpu1 - cpu0) * 1e6 / float64(ops),
	}
	for i, samples := range [][]uint32{p.lat[clsPut], p.lat[clsGet], p.rangeLat} {
		slices.Sort(samples)
		p.samples[i] += len(samples)
		c.quant[i] = [2]float64{quantileUS(samples, 0.50), quantileUS(samples, 0.99)}
	}
	return c, nil
}

// The embedded workload times its set-up embedSetups times, a batch of
// embedSetupBatch builds each.
const (
	embedSetups     = 101
	embedSetupBatch = 64
)

// runEmbed plays cycles until e.dur has passed. With a recorder every
// call goes through a span shim.
func (e *runEnv) runEmbed(rec *recorder) (*embedPass, error) {
	w := e.w
	p := &embedPass{}
	present := newBitset(w.keySpace)
	begin := time.Now()
	for cycle := 0; cycle == 0 || time.Since(begin) < e.dur; cycle++ {
		// Each cycle starts from a collected heap, as a fresh process
		// would: what the last cycle left behind is not this one's cost.
		runtime.GC()
		d, err := registry.Build("gcola")
		if err != nil {
			return nil, err
		}
		target := d
		if rec != nil {
			target = newSpanDict(d, rec, 0)
		}
		c, err := p.embedCycle(w, target, subSeed(e.seed, cycle), present)
		if err != nil {
			return nil, err
		}
		p.cycles = append(p.cycles, c)
		if cycle == 0 {
			p.stats = d.(core.Statser).Stats()
			p.inserts = uint64(p.samples[0])
		}
	}
	var err error
	if p.peakRSS, err = peakRSSMiB(); err != nil {
		return nil, err
	}
	// Set-up here is registry.Build alone, well under a microsecond:
	// each sample is the mean of a batch, and there are many samples.
	for i := 0; i < embedSetups; i++ {
		t0 := time.Now()
		for j := 0; j < embedSetupBatch; j++ {
			if _, err := registry.Build("gcola"); err != nil {
				return nil, err
			}
		}
		p.setups = append(p.setups, time.Since(t0).Seconds()/embedSetupBatch)
	}
	if rec != nil {
		if rec.dropped.Load() != 0 {
			return nil, fmt.Errorf("trace buffer overflowed: %d spans dropped", rec.dropped.Load())
		}
		p.spans = rec.recorded()
	}
	return p, nil
}

// DAM geometry of the accounted cycle: the block and cache sizes
// BENCH_0.json's transfer counts use.
const (
	damBlockBytes = 4096
	damCacheBytes = 1 << 20
)

// damTransfers plays one cycle's inserts and searches on a gcola that
// charges a DAM store, and returns transfers per insert and per search.
// The counts depend only on the seed.
func (e *runEnv) damTransfers() (perInsert, perSearch float64, err error) {
	w := e.w
	store := dam.NewStore(damBlockBytes, damCacheBytes)
	d, err := registry.Build("gcola", registry.WithSpace(store.Space("bench")))
	if err != nil {
		return 0, 0, err
	}
	rng := workload.NewRNG(subSeed(e.seed, 0))
	for i := 0; i < w.embedInserts; i++ {
		k := rng.Uint64() % w.keySpace
		d.Insert(k, valueOf(k))
	}
	ins := store.Transfers()
	for i := 0; i < w.embedSearches; i++ {
		d.Search(rng.Uint64() % w.keySpace)
	}
	return float64(ins) / float64(w.embedInserts),
		float64(store.Transfers()-ins) / float64(w.embedSearches), nil
}
