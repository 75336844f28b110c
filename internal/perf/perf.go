// Package perf is the repository's benchmark-result pipeline: a
// machine-readable record model for measured operation costs, a JSON
// writer/reader for committing baselines (BENCH_*.json at the repo
// root), and a benchstat-style comparator with configurable regression
// thresholds that CI uses to gate pull requests.
//
// Three producers feed the model:
//
//   - cmd/streambench -json writes one record per figure series point
//     (wall-clock ns/op and DAM transfers/op),
//   - ParseGoBench converts `go test -bench -benchmem` output
//     (ns/op, B/op, allocs/op, custom transfers/op metrics),
//   - tests can construct records directly.
//
// Records carry host metadata so the comparator knows when wall-clock
// numbers are comparable: ns/op is only gated between reports whose
// host fingerprints match (DAM transfers and allocation counts are
// deterministic and gate everywhere). See DESIGN.md "Appendix: the
// perf JSON schema" for the committed format.
package perf

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// Schema is the current perf JSON schema version; Read rejects reports
// written by a newer schema.
const Schema = 1

// Host identifies the machine a report was measured on.
type Host struct {
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	GoVersion string `json:"go_version"`
}

// ThisHost describes the current process's machine.
func ThisHost() Host {
	return Host{
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		GoVersion: runtime.Version(),
	}
}

// Fingerprint is the comparability key for wall-clock numbers: OS,
// architecture, and core count. The Go version is deliberately
// excluded — toolchain upgrades are exactly the regressions the gate
// should see, not an excuse to skip it.
func (h Host) Fingerprint() string {
	return fmt.Sprintf("%s/%s/cpu%d", h.GOOS, h.GOARCH, h.NumCPU)
}

// Result is one measured operating point. Op names the experiment
// ("figure-2-wall-clock", "gobench", ...), Kind the structure or
// benchmark under it, and LogN/X/YIndex locate the point within the
// experiment's sweep; together they form the identity the comparator
// matches on.
//
// AllocsPerOp and BytesPerOp are pointers so a measured zero (the
// zero-allocation hot paths this package exists to protect) is
// distinguishable from "not measured" (streambench records, which
// carry no allocation data). MBPerSec is recorded for benchmarks that
// call b.SetBytes (the checkpoint codec's) and never gated: ns/op
// already is.
type Result struct {
	Op     string  `json:"op"`
	Kind   string  `json:"kind"`
	LogN   int     `json:"logn,omitempty"`
	X      float64 `json:"x,omitempty"`
	YIndex int     `json:"y_index,omitempty"`

	// Samples is how many operations the wall-clock number averages
	// over (benchmark iterations, or a figure checkpoint's window).
	// The comparator refuses to gate ns/op below a sample floor:
	// one-shot windows of a few thousand ops routinely jitter far past
	// any reasonable threshold.
	Samples int `json:"samples,omitempty"`

	NsPerOp        float64  `json:"ns_per_op,omitempty"`
	TransfersPerOp float64  `json:"transfers_per_op,omitempty"`
	AllocsPerOp    *float64 `json:"allocs_per_op,omitempty"`
	BytesPerOp     *float64 `json:"bytes_per_op,omitempty"`
	MBPerSec       float64  `json:"mb_per_s,omitempty"`
}

// F boxes a float for the optional metric fields.
func F(v float64) *float64 { return &v }

// Key is the identity the comparator matches baseline and candidate
// records on.
func (r Result) Key() string {
	return fmt.Sprintf("%s|%s|%d|%g|%d", r.Op, r.Kind, r.LogN, r.X, r.YIndex)
}

// Report is one benchmark run: a label describing how it was produced,
// the host it ran on, and its records.
type Report struct {
	Schema    int      `json:"schema"`
	Label     string   `json:"label,omitempty"`
	CreatedAt string   `json:"created_at,omitempty"` // RFC 3339; informational only
	Host      Host     `json:"host"`
	Results   []Result `json:"results"`
}

// NewReport returns an empty report stamped with the current host and
// time.
func NewReport(label string) *Report {
	return &Report{
		Schema:    Schema,
		Label:     label,
		CreatedAt: time.Now().UTC().Format(time.RFC3339),
		Host:      ThisHost(),
	}
}

// Add appends records to the report.
func (rep *Report) Add(rs ...Result) { rep.Results = append(rep.Results, rs...) }

// Sort orders the records by key so serialized reports diff cleanly.
func (rep *Report) Sort() {
	sort.SliceStable(rep.Results, func(i, j int) bool {
		return rep.Results[i].Key() < rep.Results[j].Key()
	})
}

// Write serializes the report as indented JSON, sorted by record key.
func (rep *Report) Write(w io.Writer) error {
	rep.Sort()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// WriteFile writes the report to path, creating or truncating it.
func (rep *Report) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Read parses a report and validates its schema and record identities.
func Read(r io.Reader) (*Report, error) {
	var rep Report
	dec := json.NewDecoder(r)
	if err := dec.Decode(&rep); err != nil {
		return nil, fmt.Errorf("perf: decoding report: %w", err)
	}
	if rep.Schema < 1 || rep.Schema > Schema {
		return nil, fmt.Errorf("perf: unsupported schema %d (this build reads <= %d)", rep.Schema, Schema)
	}
	seen := make(map[string]struct{}, len(rep.Results))
	for _, res := range rep.Results {
		if res.Op == "" {
			return nil, fmt.Errorf("perf: record with empty op (kind %q)", res.Kind)
		}
		key := res.Key()
		if _, dup := seen[key]; dup {
			return nil, fmt.Errorf("perf: duplicate record key %s", key)
		}
		seen[key] = struct{}{}
	}
	return &rep, nil
}

// ReadFile reads a report from path.
func ReadFile(path string) (*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rep, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}
