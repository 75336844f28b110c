package perf

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ParseGoBench converts `go test -bench` output into perf records, one
// per benchmark line. Lines that are not benchmark results (package
// headers, PASS/ok trailers, log output) are skipped.
//
// A line looks like
//
//	BenchmarkFig2RandomInserts/2-COLA-8   100   56789 ns/op   12 B/op   3 allocs/op   0.50 transfers/op
//
// The record's Op is "gobench" and its Kind is the benchmark name with
// the "Benchmark" prefix and the trailing -GOMAXPROCS suffix removed
// (so the same benchmark matches across hosts with different core
// counts), qualified by the surrounding "pkg:" header when present —
// `go test -bench . ./...` spans packages, and two packages may define
// same-named benchmarks that must not collide on Result.Key.
// Recognized units: ns/op, MB/s, B/op, allocs/op, and any custom unit
// ending in "transfers/op"; others are ignored.
func ParseGoBench(r io.Reader) ([]Result, error) {
	var out []Result
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if p, ok := strings.CutPrefix(line, "pkg:"); ok {
			pkg = strings.TrimSpace(p)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// name, iterations, then (value, unit) pairs.
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		iters, err := strconv.Atoi(fields[1])
		if err != nil {
			continue // e.g. "BenchmarkFoo---FAIL"
		}
		kind := trimCPUSuffix(strings.TrimPrefix(fields[0], "Benchmark"))
		if pkg != "" {
			kind = pkg + ":" + kind
		}
		res := Result{Op: "gobench", Kind: kind, Samples: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("perf: bad value %q in bench line %q", fields[i], line)
			}
			switch unit := fields[i+1]; {
			case unit == "ns/op":
				res.NsPerOp = v
			case unit == "MB/s":
				res.MBPerSec = v
			case unit == "B/op":
				res.BytesPerOp = F(v)
			case unit == "allocs/op":
				res.AllocsPerOp = F(v)
			case strings.HasSuffix(unit, "transfers/op"):
				res.TransfersPerOp = v
			}
		}
		out = append(out, res)
	}
	return out, sc.Err()
}

// trimCPUSuffix drops the "-N" GOMAXPROCS suffix go test appends to
// benchmark names. Sub-benchmark names may themselves contain dashes
// ("Fig2RandomInserts/2-COLA-8" → "Fig2RandomInserts/2-COLA"), so only
// a trailing run of digits after the final dash is removed.
func trimCPUSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 || i == len(name)-1 {
		return name
	}
	for _, r := range name[i+1:] {
		if r < '0' || r > '9' {
			return name
		}
	}
	return name[:i]
}
