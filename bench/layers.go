package main

// The traced run: per-layer metrics from the span shims, from counters
// read through public accessors, and from timed loops over the public
// functions of the layers that have no Dictionary seam (wal, snap,
// extmem).

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/extmem"
	"repro/internal/registry"
	"repro/internal/wal"
	"repro/internal/workload"
)

// sloNS is the open-loop latency limit: a request slower than this —
// counted from when it was due — misses the objective.
const sloNS = 10_000_000

const mib = 1 << 20

// newLayerMap has every per-layer metric at zero: a layer a workload
// bypasses reads 0.
func newLayerMap() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	return m
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// servedLayers fills rep.PerLayer for a served workload. p is the
// untraced pass (with its open-loop phase) already run.
func (e *runEnv) servedLayers(rep *report, p *servedPass) error {
	L := newLayerMap()
	rep.PerLayer = L

	// Counters and process-level ratios of the untraced pass.
	ops := float64(p.closed.attempted)
	gets := float64(len(p.closed.lat[clsGet]))
	puts := float64(p.closed.puts)
	L["server.wire_bytes_per_op"] = float64(p.closed.wireBytes) / ops
	L["proc.syscalls_per_op"] = float64(p.io.syscr+p.io.syscw) / ops
	if e.w.durable || e.w.spill {
		// wchar counts socket writes too; the driver knows those bytes.
		L["proc.write_amp"] = (float64(p.io.wchar) - float64(p.closed.wireBytes)) / (keyBytes * puts)
	}
	L["durable.recovery_s"] = p.recovery.Seconds()
	L["extmem.chunk_reads_per_get"] = ratio(float64(p.after.chunkReads-p.before.chunkReads), gets)
	L["extmem.chunk_writes_per_put"] = ratio(float64(p.after.chunkWrites-p.before.chunkWrites), puts)
	if e.w.spill {
		// Live data: one 32-byte cell per preloaded key (the measured
		// phase overwrites keys, it adds few).
		L["extmem.space_amp"] = ratio(float64(p.after.spillBytes), float64(len(e.perm))*core.ElementBytes)
	}
	moved := p.after.stats.Moves - p.before.stats.Moves
	L["cola.moves_per_insert"] = ratio(float64(moved), float64(p.after.stats.Inserts-p.before.stats.Inserts))
	L["cola.max_moves"] = float64(p.after.stats.MaxMoves)
	L["driver.self_us_per_op"] = float64(p.closed.wall-p.closed.rtt) / 1e3 / ops
	if p.open != nil {
		L["open.put_p99_us"] = quantileUS(p.open.lat[clsPut], 0.99)
		L["open.get_p99_us"] = quantileUS(p.open.lat[clsGet], 0.99)
		L["open.late_p99_us"] = quantileUS(p.open.late, 0.99)
		missed := p.open.failed
		for _, lat := range p.open.lat {
			i, _ := slices.BinarySearch(lat, sloNS+1)
			missed += uint64(len(lat) - i)
		}
		L["open.slo_miss_pct"] = 100 * ratio(float64(missed), float64(p.open.attempted))
	}

	// The traced pass: the same stack with a shim at every seam.
	spanCap := traceCap
	if e.quick {
		spanCap = traceCap / 16
	}
	tr := newTracer(spanCap)
	tp, err := e.runServed(tr, false)
	if err != nil {
		return fmt.Errorf("traced pass: %w", err)
	}
	if n := tr.dropped(); n != 0 {
		return fmt.Errorf("traced pass: trace buffers overflowed, %d spans dropped", n)
	}
	rep.Attempted += tp.attempted
	rep.Failed += tp.failed
	tops := float64(tp.closed.attempted)
	lb, structure := tr.breakdown(int64(tp.closed.rtt))
	rtt := float64(lb.rtt)
	for name, ns := range map[string]int64{"server": lb.server, "shard": lb.shard, "durable": lb.durable} {
		L[name+".self_us_per_op"] = float64(ns) / 1e3 / tops
		L[name+".self_share"] = float64(ns) / rtt
	}
	L["cola.self_share"] = float64(lb.cola) / rtt
	colaMetrics(L, structure)
	untraced := ops / p.closed.elapsed.Seconds()
	L["trace.overhead_pct"] = 100 * (1 - tops/tp.closed.elapsed.Seconds()/untraced)

	aSpans, bSpans := tr.a.recorded(), tr.b.recorded()
	_, sizes := writeSpans(aSpans)
	if len(sizes) > 0 {
		sum := int64(0)
		for _, n := range sizes {
			sum += n
		}
		slices.Sort(sizes)
		L["server.coalesce_batch_mean"] = float64(sum) / float64(len(sizes))
		L["server.coalesce_batch_p99"] = quantile(sizes, 0.99)
	}
	self, orphans, ambiguous := joinSelf(aSpans, bSpans, tr.a.keys, false)
	slices.Sort(self)
	L["shard.self_us_p99"] = quantile(self, 0.99) / 1e3
	L["trace.unjoined_spans"] = float64(orphans + ambiguous)
	perShard := sumSpans(bSpans).perShard
	most, all := int64(0), int64(0)
	for _, n := range perShard {
		most, all = max(most, n), all+n
	}
	L["shard.imbalance"] = ratio(float64(most)*float64(len(perShard)), float64(all))
	if tr.hasDurable {
		c := sumSpans(tr.c.recorded())
		L["durable.checkpoint_count"] = float64(c.calls[opWriteTo])
		L["durable.checkpoint_s_total"] = float64(c.byOp[opWriteTo]) / 1e9
		for _, sp := range tr.c.recorded() {
			if sp.op == opWriteTo {
				L["durable.checkpoint_mb"] += float64(sp.key) / mib
			}
		}
	}

	// Layers with no Dictionary seam, and the driver itself.
	if err := e.genCost(L); err != nil {
		return err
	}
	switch {
	case e.w.durable:
		return errors.Join(e.walLoops(L), e.snapLoops(L))
	case e.w.spill:
		if err := e.extmemSelf(L, sumSpans(structure), rtt); err != nil {
			return err
		}
		return e.extmemLoops(L)
	default:
		return e.serverFloor(L)
	}
}

// genCost times the op generator alone.
func (e *runEnv) genCost(L map[string]float64) error {
	const n = 1 << 20
	if e.w.embed {
		rng := workload.NewRNG(e.seed)
		var sink uint64
		t0 := time.Now()
		for i := 0; i < n; i++ {
			sink += rng.Uint64() % e.w.keySpace
		}
		L["driver.gen_ns_per_op"] = float64(time.Since(t0)) / n
		if sink == 0 {
			return errors.New("generator produced only zero keys")
		}
		return nil
	}
	sc, err := e.scenario(e.seed)
	if err != nil {
		return err
	}
	st, err := sc.Stream()
	if err != nil {
		return err
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		st.Next()
	}
	L["driver.gen_ns_per_op"] = float64(time.Since(t0)) / n
	return nil
}

// stubDict is a zero-work dictionary: every key is present with its
// derived value. Served behind server.New it isolates what the server
// and the driver cost when the structure costs nothing. wrong makes it
// answer every Search with a wrong value, for the test that proves the
// checker bites.
type stubDict struct{ wrong bool }

func (stubDict) Insert(uint64, uint64)      {}
func (stubDict) InsertBatch([]core.Element) {}
func (stubDict) Len() int                   { return 0 }
func (stubDict) BeginSharedReads()          {}
func (stubDict) EndSharedReads()            {}
func (stubDict) Range(uint64, uint64, func(core.Element) bool) {
}
func (s stubDict) Search(key uint64) (uint64, bool) {
	if s.wrong {
		return valueOf(key) + 1, true
	}
	return valueOf(key), true
}

// stubPhase drives the workload's op stream at a served stub for dur.
func (e *runEnv) stubPhase(d core.Dictionary, dur time.Duration) (phaseStats, error) {
	st := &stack{}
	if err := st.serve(d); err != nil {
		return phaseStats{}, err
	}
	sc, err := e.scenario(e.seed)
	if err != nil {
		return phaseStats{}, errors.Join(err, st.close())
	}
	conns, err := dialConns(st.addr(), sc, 0)
	if err != nil {
		return phaseStats{}, errors.Join(err, st.close())
	}
	epoch := time.Now()
	runConns(conns, func(_ int, c *loadConn) { c.closedLoop(epoch, dur) })
	ps := foldStats(conns)
	closeConns(conns)
	return ps, errors.Join(ps.err, st.close())
}

// serverFloor measures the server and driver alone.
func (e *runEnv) serverFloor(L map[string]float64) error {
	ps, err := e.stubPhase(stubDict{}, e.dur/4)
	if err != nil {
		return fmt.Errorf("server floor: %w", err)
	}
	if ps.failed != 0 {
		return fmt.Errorf("server floor: %d of %d ops failed", ps.failed, ps.attempted)
	}
	L["server.floor_us_per_op"] = float64(ps.rtt) / 1e3 / float64(ps.attempted)
	return nil
}

// extmemSelf prices the spill store by difference: the traced spilled
// pass's mean Search span, minus the mean Search span of the same op
// stream over the same preload held entirely in RAM.
func (e *runEnv) extmemSelf(L map[string]float64, spilled spanSums, rtt float64) error {
	twin := *e
	twin.w.spill = false
	twin.dur = e.dur / 4
	tr := newTracer(traceCap / 4)
	tp, err := twin.runServed(tr, false)
	e.dirs = twin.dirs
	if err != nil {
		return fmt.Errorf("in-RAM twin: %w", err)
	}
	if tp.failed != 0 || tr.dropped() != 0 {
		return fmt.Errorf("in-RAM twin: %d ops failed, %d spans dropped", tp.failed, tr.dropped())
	}
	ram := sumSpans(tr.b.recorded())
	perGet := ratio(float64(spilled.byOp[opSearch]), float64(spilled.calls[opSearch])) -
		ratio(float64(ram.byOp[opSearch]), float64(ram.calls[opSearch]))
	L["extmem.self_us_per_get"] = perGet / 1e3
	L["extmem.self_share"] = perGet * float64(spilled.calls[opSearch]) / rtt
	L["cola.self_share"] -= L["extmem.self_share"]
	return nil
}

// countHandler counts the elements a WAL replays.
type countHandler struct{ elems int }

func (h *countHandler) ApplyInsert(elems []core.Element) { h.elems += len(elems) }
func (h *countHandler) ApplyDelete(keys []uint64)        { h.elems += len(keys) }

// walLoops times wal.Open, AppendInsert and replay directly, at batch
// sizes 1, 16 and 256.
func (e *runEnv) walLoops(L map[string]float64) error {
	dir, err := e.freshDir()
	if err != nil {
		return err
	}
	records := 20000
	if e.quick {
		records = 500
	}
	for _, b := range []int{1, 16, 256} {
		path := filepath.Join(dir, fmt.Sprintf("b%d.wal", b))
		w, _, err := wal.Open(path, &countHandler{})
		if err != nil {
			return err
		}
		batch := make([]core.Element, b)
		rng := workload.NewRNG(e.seed + uint64(b))
		t0 := time.Now()
		for r := 0; r < records; r++ {
			for i := range batch {
				k := rng.Uint64()
				batch[i] = core.Element{Key: k, Value: valueOf(k)}
			}
			if err := w.AppendInsert(batch); err != nil {
				return errors.Join(err, w.Close())
			}
		}
		L[fmt.Sprintf("wal.append_us_per_record.b%d", b)] = float64(time.Since(t0)) / 1e3 / float64(records)
		if err := w.Close(); err != nil {
			return err
		}
		if b == 1 {
			continue
		}
		info, err := os.Stat(path)
		if err != nil {
			return err
		}
		if b == 16 {
			L["wal.bytes_per_elem"] = float64(info.Size()) / float64(records*b)
			continue
		}
		h := &countHandler{}
		t0 = time.Now()
		w, n, err := wal.Open(path, h)
		if err != nil {
			return err
		}
		took := time.Since(t0)
		if n != records || h.elems != records*b {
			return errors.Join(fmt.Errorf("wal replay returned %d records, %d elements; wrote %d, %d", n, h.elems, records, records*b), w.Close())
		}
		L["wal.replay_elems_per_s"] = float64(h.elems) / took.Seconds()
		if err := w.Close(); err != nil {
			return err
		}
	}
	return nil
}

// snapLoops times registry.Save and Load of an in-RAM gcola.
func (e *runEnv) snapLoops(L map[string]float64) error {
	n := 1 << 20
	if e.quick {
		n = 1 << 14
	}
	d, err := registry.Build("gcola")
	if err != nil {
		return err
	}
	rng := workload.NewRNG(e.seed)
	for i := 0; i < n; i++ {
		k := rng.Uint64() % (1 << 24)
		d.Insert(k, valueOf(k))
	}
	var buf bytes.Buffer
	t0 := time.Now()
	if err := registry.Save(&buf, "gcola", d); err != nil {
		return err
	}
	size := float64(buf.Len()) / mib
	L["snap.encode_mb_s"] = size / time.Since(t0).Seconds()
	t0 = time.Now()
	back, err := registry.Load(&buf)
	if err != nil {
		return err
	}
	L["snap.decode_mb_s"] = size / time.Since(t0).Seconds()
	if back.Len() != d.Len() {
		return fmt.Errorf("snapshot round trip: %d keys in, %d out", d.Len(), back.Len())
	}
	return nil
}

// extmemLoops times the spill store's public functions directly: a
// sequential level write, sequential reads (every chunk read once, then
// hit), and random reads over a level 16 times the page cache.
func (e *runEnv) extmemLoops(L map[string]float64) error {
	dir, err := e.freshDir()
	if err != nil {
		return err
	}
	cache := int64(mib)
	if e.quick {
		cache = 64 << 10
	}
	s, err := extmem.Open(extmem.Config{Dir: dir, CacheBytes: cache})
	if err != nil {
		return err
	}
	err = extmemLoopsOn(L, s, int(16*cache/extmem.CellBytes), e.seed)
	return errors.Join(err, s.Close())
}

func extmemLoopsOn(L map[string]float64, s *extmem.Store, cells int, seed uint64) error {
	w, err := s.NewLevelWriter(1)
	if err != nil {
		return err
	}
	var cell [extmem.CellBytes]byte
	t0 := time.Now()
	for i := 0; i < cells; i++ {
		cell[0], cell[1], cell[2] = byte(i), byte(i>>8), byte(i>>16)
		if err := w.Append(cell[:]); err != nil {
			w.Abort()
			return err
		}
	}
	lvl, err := w.Commit()
	if err != nil {
		return err
	}
	L["extmem.write_mb_s"] = float64(cells) * extmem.CellBytes / mib / time.Since(t0).Seconds()

	t0 = time.Now()
	for i := 0; i < cells; i++ {
		if err := lvl.ReadCell(i, cell[:]); err != nil {
			return err
		}
	}
	L["extmem.readcell_hot_ns"] = float64(time.Since(t0)) / float64(cells)

	rng := workload.NewRNG(seed)
	hits0, reads0 := s.CacheHits(), s.ChunkReads()
	probes := cells / 4
	t0 = time.Now()
	for i := 0; i < probes; i++ {
		at := rng.Intn(cells)
		if err := lvl.ReadCell(at, cell[:]); err != nil {
			return err
		}
		if cell[0] != byte(at) || cell[1] != byte(at>>8) || cell[2] != byte(at>>16) {
			return fmt.Errorf("extmem: cell %d read back wrong", at)
		}
	}
	L["extmem.readcell_cold_us"] = float64(time.Since(t0)) / 1e3 / float64(probes)
	hits, reads := float64(s.CacheHits()-hits0), float64(s.ChunkReads()-reads0)
	L["extmem.cache_hit_rate"] = ratio(hits, hits+reads)
	return nil
}

// embedLayers fills rep.PerLayer for the embedded workload: a traced
// pass with a shim around the bare gcola, the structure's own counters,
// and one DAM-accounted cycle.
func (e *runEnv) embedLayers(rep *report, p *embedPass) error {
	L := newLayerMap()
	rep.PerLayer = L
	L["cola.moves_per_insert"] = ratio(float64(p.stats.Moves), float64(p.inserts))
	L["cola.max_moves"] = float64(p.stats.MaxMoves)
	var rq [2][]float64
	for _, c := range p.cycles {
		rq[0], rq[1] = append(rq[0], c.quant[2][0]), append(rq[1], c.quant[2][1])
	}
	L["cola.range_p50_us"], L["cola.range_p99_us"] = median(rq[0]), median(rq[1])

	spanCap := traceCap
	if e.quick {
		spanCap = traceCap / 16
	}
	tp, err := e.runEmbed(newRecorder(time.Now(), spanCap, 0))
	if err != nil {
		return fmt.Errorf("traced pass: %w", err)
	}
	rep.Attempted += tp.ops
	rep.Failed += tp.failed
	colaMetrics(L, tp.spans)
	var rates, tracedRates []float64
	for _, c := range tp.cycles {
		tracedRates = append(tracedRates, c.rate)
	}
	for _, c := range p.cycles {
		rates = append(rates, c.rate)
	}
	L["trace.overhead_pct"] = 100 * (1 - median(tracedRates)/median(rates))

	// The structure's share of the untraced run: what is left of a cycle
	// once the driver's own cost — the same loop over a dictionary that
	// does nothing — is taken out. (The traced pass would understate it:
	// the shim's clock reads land outside its spans.)
	floor := &embedPass{}
	fc, err := floor.embedCycle(e.w, stubDict{}, subSeed(e.seed, 0), newBitset(e.w.keySpace))
	if err != nil {
		return err
	}
	L["cola.self_share"] = 1 - median(rates)/fc.rate
	if L["dam.transfers_per_insert"], L["dam.transfers_per_search"], err = e.damTransfers(); err != nil {
		return err
	}
	return e.genCost(L)
}
