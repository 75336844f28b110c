package hypothesis

import (
	"fmt"

	"repro/internal/harness"
)

// The served edition of the shared-reader claim (PR 5 / E11): a
// shared-read-safe inner lets a single shard's RLock admit concurrent
// GETs, so served read throughput grows with connections; hide the
// same inner's shared-read support and the same lock serializes every
// search, collapsing the ratio. Both arms run E14's measurement over a
// real loopback socket through the load generator, so it includes the
// whole serving stack.
//
// Ops/s is wall-clock: on a host with fewer than MinCPU CPUs the arms
// cannot actually run concurrently, so the verdict is advisory there
// (reported by CI, never gated).
func init() {
	mustRegister(Bundle{
		Name:  "server-shared-read-scaling",
		Title: "Served GETs scale with connections only under shared reads",
		Claim: "GET throughput over the wire at 4 connections exceeds 1 connection by >= 1.5x when the " +
			"single shard's inner dictionary supports shared-read bracketing",
		Mechanism: "the shard's syncdict guard takes its RLock for Search and brackets Begin/EndSharedReads " +
			"when the inner probes shared-read safe, so concurrent connections' searches overlap; the same " +
			"2-COLA with its shared-read support hidden downgrades the path to a full Lock and serializes them",
		Metric:     MetricOpsPerSec,
		Experiment: serveRatio(false, "shared inner: 4-conn / 1-conn GET throughput"),
		MinRatio:   1.5,
		Control:    serveRatio(true, "exclusive inner: 4-conn / 1-conn GET throughput"),
		ControlMax: 1.4,
		Tolerance:  0.25,
		LogN:       14,
		CacheBytes: 1 << 20,
		MinCPU:     4,
	})
}

// servePerConn is the number of GETs each connection issues.
const servePerConn = 1 << 13

// serveRatio builds the two arms of one served-throughput ratio: one
// shard over a 2-COLA, shared or exclusive, at 4 and at 1 connection.
func serveRatio(exclusive bool, label string) Ratio {
	inner := "2-COLA"
	if exclusive {
		inner = "2-COLA, shared reads hidden"
	}
	arm := func(conns int) Arm {
		return Arm{
			Structure: "2-COLA",
			Scenario:  "uniform+steady+100r",
			Label:     fmt.Sprintf("sharded-1(%s) %d-conn", inner, conns),
			Measure: func(cfg harness.Config) (float64, error) {
				cfg.Searches = servePerConn
				return cfg.ServeThroughput(exclusive, conns)
			},
		}
	}
	return Ratio{Label: label, Num: arm(4), Den: arm(1)}
}
