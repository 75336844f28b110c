// Command reproload drives a reproserve instance with a workload
// scenario over real TCP connections and reports client-observed
// latency (P50/P99/P999 per op class) and aggregate throughput.
//
// The scenario grammar is internal/workload's skew+arrival+mix spec
// ("uniform+steady+95r5w", "zipf1.2+bursty+100r", ...), the same grid
// streambench -fig scenarios sweeps in-process — here it runs over the
// wire, with -conns concurrent connections, an optional -pipeline
// window, open-loop arrival via -rate, and connection churn via
// -churn-every. -json writes the run as schema-1 perf records.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/loadgen"
	"repro/internal/perf"
	"repro/internal/server"
	"repro/internal/workload"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:7070", "server address")
		scenario   = flag.String("scenario", "uniform+steady+95r5w", "workload scenario spec (skew+arrival+mix)")
		conns      = flag.Int("conns", 4, "concurrent connections")
		ops        = flag.Int("ops", 100000, "total operations across all connections")
		pipeline   = flag.Int("pipeline", 1, "per-connection in-flight request window")
		rate       = flag.Float64("rate", 0, "aggregate ops/sec for open-loop arrival (0 = closed loop)")
		churnEvery = flag.Int("churn-every", 0, "reconnect each connection after this many ops (0 = never)")
		preload    = flag.Int("preload", 0, "sequential keys to batch-insert before the measured phase")
		logn       = flag.Int("logn", 20, "log2 of the key space")
		seed       = flag.Uint64("seed", 42, "workload seed")
		timeout    = flag.Duration("timeout", 30*time.Second, "dial timeout")
		jsonPath   = flag.String("json", "", "write the run as perf records (internal/perf schema) to this file")
	)
	flag.Parse()

	sc, err := workload.Parse(*scenario)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reproload:", err)
		os.Exit(2)
	}
	sc.KeySpace = uint64(1) << uint(*logn)
	sc.Seed = *seed

	cfg := loadgen.Config{
		Addr:       *addr,
		Scenario:   sc,
		Conns:      *conns,
		Ops:        *ops,
		Pipeline:   *pipeline,
		RatePerSec: *rate,
		ChurnEvery: *churnEvery,
		Preload:    *preload,
		Timeout:    *timeout,
	}
	// The -json target is opened before the run, so an unwritable path
	// fails fast, and replaced only by a complete report.
	var out *perf.File
	if *jsonPath != "" {
		if out, err = perf.CreateFile(*jsonPath); err != nil {
			fmt.Fprintln(os.Stderr, "reproload: -json:", err)
			os.Exit(2)
		}
	}
	sum, err := loadgen.Run(cfg)
	if err != nil {
		out.Abort()
		fmt.Fprintln(os.Stderr, "reproload:", err)
		os.Exit(1)
	}

	mode := "closed loop"
	if *rate > 0 {
		mode = fmt.Sprintf("open loop %.0f ops/s target", *rate)
	}
	fmt.Printf("scenario %s  conns=%d pipeline=%d %s\n", sc.Name(), sum.Conns, cfg.Pipeline, mode)
	fmt.Printf("ops=%d errors=%d elapsed=%s throughput=%.0f ops/s\n",
		sum.Ops, sum.Errors, sum.Elapsed.Round(time.Millisecond), sum.OpsPerSec())
	for class := 0; class < server.NumClasses; class++ {
		h := &sum.Lat[class]
		if h.Count() == 0 {
			continue
		}
		fmt.Printf("%-5s count=%-8d p50=%s p99=%s p999=%s\n",
			server.ClassName(class), h.Count(),
			time.Duration(h.Quantile(0.5)), time.Duration(h.Quantile(0.99)), time.Duration(h.Quantile(0.999)))
	}

	if out != nil {
		rep := perf.NewReport(fmt.Sprintf(
			"reproload -scenario %s -conns %d -ops %d -pipeline %d -rate %g -logn %d -seed %d",
			sc.Name(), *conns, *ops, *pipeline, *rate, *logn, *seed))
		rep.Add(loadgen.PerfRecords(cfg, sum, *logn)...)
		if err := out.Commit(rep.Write); err != nil {
			fmt.Fprintln(os.Stderr, "reproload: -json:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote perf records to %s\n", *jsonPath)
	}
}
