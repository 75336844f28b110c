package main

// The benchmark's fixed shape: load geometry, the four workloads and
// their sizes, and the metric tables. BENCHMARK.json at the repo root
// names the same workloads and metrics (the contract allows no extra
// keys there, so sizes, layers and the "moves" predictions live here
// and in README.md); TestBenchmarkJSONMatchesTables keeps the two in
// step.

// Load shape. Fixed, never derived from GOMAXPROCS, so two hosts run
// the same load.
const (
	numConns   = 2  // client connections, one goroutine each
	numShards  = 2  // shard.Map partitions
	pipeline   = 16 // requests per closed-loop window (one flush per window)
	batchFrame = 4096

	// keyBytes is the user payload of one PUT (u64 key + u64 value):
	// the denominator of write_amp.
	keyBytes = 16

	// rangeSpan is the key width of every RANGE/Range op.
	rangeSpan = 64
)

// workloadSpec sizes one workload. Served workloads run their measured
// phase for --seconds; the embedded one runs whole fixed-size cycles
// until --seconds have passed (see embed.go for why its op counts are
// fixed).
type workloadSpec struct {
	name string
	why  string // copied into BENCHMARK.json

	scenario string // internal/workload grammar of the measured phase
	keySpace uint64
	preload  int // keys 0..preload-1, inserted in a seeded permutation

	durable         bool // per-shard WAL + checkpoints (server.Open with a WALDir)
	checkpointEvery int
	spill           bool  // gcola cold levels on disk through extmem
	spillDepth      int   // first spilled level
	spillCache      int64 // page-cache bytes per shard

	// wholePhase reports throughput, CPU and PUT latency over the whole
	// measured phase instead of as the median of its ten slices: a
	// checkpoint cycle (about 2 s) outlasts a slice, so which slices a
	// checkpoint lands in would decide the median.
	wholePhase bool

	// setups is how many times set-up runs in one benchmark run
	// (setup_s is their median); cheap set-ups repeat more.
	setups int

	// openRate is the fixed open-loop rate (ops/s over all
	// connections) of the traced run: about half the closed-loop
	// throughput of the commit that introduced the benchmark.
	openRate int

	// embedded workload: per-cycle op counts.
	embed                                  bool
	embedInserts, embedSearches, embedRngs int
}

var workloads = []workloadSpec{
	{
		name:            "ingest-durable",
		why:             "streaming PUTs through server, shard, WAL and checkpoints into an in-RAM gcola: the paper's headline through the durable path; extmem is bypassed",
		scenario:        "uniform+steady+100w",
		keySpace:        1 << 24,
		durable:         true,
		checkpointEvery: 40000,
		wholePhase:      true,
		setups:          21,
		openRate:        200000,
	},
	{
		name:       "lookup-spill",
		why:        "95% GETs over a preloaded store about 8x its page cache: extmem chunk I/O and cola search dominate; the WAL is bypassed",
		scenario:   "uniform+steady+95r5w",
		keySpace:   1 << 22,
		preload:    4_000_000,
		spill:      true,
		spillDepth: 12,
		spillCache: 8 << 20,
		setups:     3,
		openRate:   30000,
	},
	{
		name:     "mixed-ram",
		why:      "zipf 70/30 GET/PUT on a volatile in-RAM store: server framing and shard locking own the largest share; WAL and extmem are bypassed",
		scenario: "zipf1.1+steady+70r30w",
		keySpace: 1 << 22,
		preload:  2_000_000,
		setups:   3,
		openRate: 250000,
	},
	{
		name:          "embed-ingest-scan",
		why:           "direct Insert, Search and Range calls on a bare gcola from one goroutine: the structure does all the work and every wrapper layer is bypassed; the only scans",
		keySpace:      1 << 24,
		embed:         true,
		embedInserts:  1 << 20,
		embedSearches: 500_000,
		embedRngs:     1000,
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// quick shrinks a workload to roughly 1% for the smoke test.
func (w workloadSpec) quick() workloadSpec {
	w.preload /= 50
	if w.checkpointEvery > 0 {
		w.checkpointEvery = 200
	}
	if w.spill {
		w.spillDepth = 8
		w.spillCache = 64 << 10
	}
	w.setups = 2
	w.openRate /= 10
	w.embedInserts /= 64
	w.embedSearches /= 64
	w.embedRngs /= 20
	return w
}

// metricDef describes one reported metric. For per-layer metrics,
// layer is the repo module measured and moves names the end-to-end
// metric and workload the layer metric is expected to move (the
// prediction a later change is checked against).
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: allowed worsening as a share of the parent's median
	layer  string
	moves  string
}

// endToEnd lists what a user of the served (or embedded) dictionary
// sees. Every metric is measured on every workload with tracing off.
// Latencies are window-position latencies: an op's time from the moment
// its window of 16 was issued (flushed, or started for direct calls)
// to its own completion.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "throughput_ops_s", unit: "ops/s", better: "higher", bound: 0.25},
	{name: "cpu_us_per_op", unit: "us", better: "lower", bound: 0.25},
	{name: "put_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "put_p99_us", unit: "us", better: "lower", bound: 0.25},
	{name: "get_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "get_p99_us", unit: "us", better: "lower", bound: 0.25},
	{name: "peak_rss_mb", unit: "MiB", better: "lower", bound: 0.25},
}

// Workload names, for the moves column.
const (
	wIngest = "ingest-durable"
	wSpill  = "lookup-spill"
	wMixed  = "mixed-ram"
	wEmbed  = "embed-ingest-scan"
)

// perLayer lists the traced run's metrics: one layer each, measured from
// outside the program (span shims at the public seams, public counters,
// and timed loops over public functions). Every metric is emitted on
// every workload; a layer the workload bypasses reads 0. They carry no
// bound.
var perLayer = []metricDef{
	{name: "server.self_us_per_op", unit: "us", better: "lower", layer: "server", moves: "throughput_ops_s, cpu_us_per_op on " + wMixed},
	{name: "server.self_share", unit: "ratio", better: "lower", layer: "server", moves: "throughput_ops_s, cpu_us_per_op on " + wMixed},
	{name: "server.floor_us_per_op", unit: "us", better: "lower", layer: "server", moves: "throughput_ops_s, cpu_us_per_op on " + wMixed},
	{name: "server.coalesce_batch_mean", unit: "count", better: "higher", layer: "server", moves: "put_p50_us, proc.write_amp on " + wIngest},
	{name: "server.coalesce_batch_p99", unit: "count", better: "higher", layer: "server", moves: "put_p50_us, proc.write_amp on " + wIngest},
	{name: "server.wire_bytes_per_op", unit: "B", better: "lower", layer: "server", moves: "cpu_us_per_op on " + wMixed},
	{name: "proc.syscalls_per_op", unit: "count", better: "lower", layer: "server", moves: "cpu_us_per_op on " + wMixed},
	{name: "proc.write_amp", unit: "ratio", better: "lower", layer: "durable+extmem", moves: "throughput_ops_s on " + wIngest + ", " + wSpill},

	{name: "shard.self_us_per_op", unit: "us", better: "lower", layer: "shard", moves: "put_p99_us, get_p99_us on " + wMixed},
	{name: "shard.self_us_p99", unit: "us", better: "lower", layer: "shard", moves: "put_p99_us, get_p99_us on " + wMixed},
	{name: "shard.self_share", unit: "ratio", better: "lower", layer: "shard", moves: "put_p99_us, get_p99_us on " + wMixed},
	{name: "shard.imbalance", unit: "ratio", better: "lower", layer: "shard", moves: "throughput_ops_s on " + wMixed},

	{name: "durable.self_us_per_op", unit: "us", better: "lower", layer: "durable+wal", moves: "throughput_ops_s, put_p50_us on " + wIngest},
	{name: "durable.self_share", unit: "ratio", better: "lower", layer: "durable+wal", moves: "throughput_ops_s, put_p50_us on " + wIngest},
	{name: "durable.checkpoint_count", unit: "count", better: "lower", layer: "durable+snap", moves: "throughput_ops_s, put_p99_us, peak_rss_mb on " + wIngest},
	{name: "durable.checkpoint_s_total", unit: "s", better: "lower", layer: "durable+snap", moves: "throughput_ops_s, put_p99_us on " + wIngest},
	{name: "durable.checkpoint_mb", unit: "MiB", better: "lower", layer: "durable+snap", moves: "proc.write_amp, peak_rss_mb on " + wIngest},
	{name: "durable.recovery_s", unit: "s", better: "lower", layer: "durable+wal+snap", moves: "restart time after " + wIngest},

	{name: "wal.append_us_per_record.b1", unit: "us", better: "lower", layer: "wal", moves: "put_p50_us on " + wIngest},
	{name: "wal.append_us_per_record.b16", unit: "us", better: "lower", layer: "wal", moves: "put_p50_us on " + wIngest},
	{name: "wal.append_us_per_record.b256", unit: "us", better: "lower", layer: "wal", moves: "put_p50_us on " + wIngest},
	{name: "wal.bytes_per_elem", unit: "B", better: "lower", layer: "wal", moves: "proc.write_amp on " + wIngest},
	{name: "wal.replay_elems_per_s", unit: "1/s", better: "higher", layer: "wal", moves: "durable.recovery_s on " + wIngest},
	{name: "snap.encode_mb_s", unit: "MiB/s", better: "higher", layer: "snap", moves: "durable.checkpoint_s_total, throughput_ops_s on " + wIngest},
	{name: "snap.decode_mb_s", unit: "MiB/s", better: "higher", layer: "snap", moves: "durable.recovery_s on " + wIngest},

	{name: "cola.insert_us_per_op", unit: "us", better: "lower", layer: "cola", moves: "throughput_ops_s, put_p50_us on " + wEmbed},
	{name: "cola.insertbatch_us_per_elem", unit: "us", better: "lower", layer: "cola", moves: "throughput_ops_s, put_p50_us on " + wIngest + ", " + wMixed},
	{name: "cola.search_us_per_op", unit: "us", better: "lower", layer: "cola", moves: "throughput_ops_s, get_p50_us on " + wEmbed + ", " + wMixed},
	{name: "cola.range_us_per_op", unit: "us", better: "lower", layer: "cola", moves: "throughput_ops_s on " + wEmbed},
	{name: "cola.range_p50_us", unit: "us", better: "lower", layer: "cola", moves: "throughput_ops_s on " + wEmbed},
	{name: "cola.range_p99_us", unit: "us", better: "lower", layer: "cola", moves: "throughput_ops_s on " + wEmbed},
	{name: "cola.self_share", unit: "ratio", better: "lower", layer: "cola", moves: "throughput_ops_s, cpu_us_per_op on " + wEmbed},
	{name: "cola.moves_per_insert", unit: "count", better: "lower", layer: "cola", moves: "cpu_us_per_op on " + wEmbed + ", " + wIngest},
	{name: "cola.max_moves", unit: "count", better: "lower", layer: "cola", moves: "cola.insert_max_ms on " + wEmbed + ", " + wIngest},
	{name: "cola.insert_max_ms", unit: "ms", better: "lower", layer: "cola", moves: "open.put_p99_us on " + wIngest},
	{name: "cola.insert_p9999_us", unit: "us", better: "lower", layer: "cola", moves: "open.put_p99_us on " + wIngest},
	{name: "cola.stalls_over_1ms", unit: "count", better: "lower", layer: "cola", moves: "open.slo_miss_pct on " + wIngest},
	{name: "dam.transfers_per_insert", unit: "count", better: "lower", layer: "dam", moves: "ties " + wEmbed + " to BENCH_0.json's transfer model"},
	{name: "dam.transfers_per_search", unit: "count", better: "lower", layer: "dam", moves: "ties " + wEmbed + " to BENCH_0.json's transfer model"},

	{name: "extmem.chunk_reads_per_get", unit: "count", better: "lower", layer: "extmem", moves: "get_p50_us on " + wSpill},
	{name: "extmem.chunk_writes_per_put", unit: "count", better: "lower", layer: "extmem", moves: "proc.write_amp, put_p99_us on " + wSpill},
	{name: "extmem.space_amp", unit: "ratio", better: "lower", layer: "extmem", moves: "setup_s on " + wSpill},
	{name: "extmem.self_us_per_get", unit: "us", better: "lower", layer: "extmem", moves: "throughput_ops_s, get_p50_us on " + wSpill},
	{name: "extmem.self_share", unit: "ratio", better: "lower", layer: "extmem", moves: "throughput_ops_s, cpu_us_per_op on " + wSpill},
	{name: "extmem.readcell_hot_ns", unit: "ns", better: "lower", layer: "extmem", moves: "get_p50_us on " + wSpill},
	{name: "extmem.readcell_cold_us", unit: "us", better: "lower", layer: "extmem", moves: "get_p50_us, get_p99_us on " + wSpill},
	{name: "extmem.cache_hit_rate", unit: "ratio", better: "higher", layer: "extmem", moves: "get_p50_us on " + wSpill},
	{name: "extmem.write_mb_s", unit: "MiB/s", better: "higher", layer: "extmem", moves: "setup_s, put_p99_us on " + wSpill},

	{name: "driver.gen_ns_per_op", unit: "ns", better: "lower", layer: "workload", moves: "subtract from cpu_us_per_op on every workload"},
	{name: "driver.self_us_per_op", unit: "us", better: "lower", layer: "driver", moves: "subtract from cpu_us_per_op on the served workloads"},
	{name: "open.put_p99_us", unit: "us", better: "lower", layer: "driver", moves: "user-visible stalls at a fixed rate on the served workloads"},
	{name: "open.get_p99_us", unit: "us", better: "lower", layer: "driver", moves: "user-visible stalls at a fixed rate on the served workloads"},
	{name: "open.slo_miss_pct", unit: "%", better: "lower", layer: "driver", moves: "share of open-loop requests over 10 ms on the served workloads"},
	{name: "open.late_p99_us", unit: "us", better: "lower", layer: "driver", moves: "validity of the open-loop phase: how late the generator ran"},
	{name: "trace.overhead_pct", unit: "%", better: "lower", layer: "driver", moves: "how far the traced pass departs from the untraced one"},
	{name: "trace.unjoined_spans", unit: "count", better: "lower", layer: "driver", moves: "validity of shard.self_us_p99: spans with no or several possible parents"},
}
