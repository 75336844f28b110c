// Command reprolint runs the repo's invariant analyzers (package
// repro/internal/lint: damcharge, rlockpure, bracketflow,
// scratchescape, durerr, reprodirective) together with the full
// standard vet battery — a superset of the
// abbreviated subset `go test` runs by default.
//
// It speaks the `go vet -vettool` unitchecker protocol, so the usual
// invocation is simply
//
//	go build -o bin/reprolint ./cmd/reprolint
//	go vet -vettool=bin/reprolint ./...
//
// and as a convenience, invoking it with package patterns re-execs
// itself through go vet:
//
//	bin/reprolint ./...
//
// With -summary and/or -json, the re-exec mode additionally runs the
// driver with JSON diagnostics, scans the tree's //repro: directives,
// and emits a findings/waivers report: -json writes a machine-readable
// summary, -summary appends a markdown table (CI passes
// $GITHUB_STEP_SUMMARY, mirroring perfgate -summary):
//
//	bin/reprolint -summary "$GITHUB_STEP_SUMMARY" -json lint-summary.json ./...
//
// The nilness and unusedwrite passes are intentionally absent: they
// need golang.org/x/tools/go/ssa, which the vendored (GOROOT-sourced)
// x/tools subset does not carry. See DESIGN.md "Machine-checked
// invariants".
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/appends"
	"golang.org/x/tools/go/analysis/passes/asmdecl"
	"golang.org/x/tools/go/analysis/passes/assign"
	"golang.org/x/tools/go/analysis/passes/atomic"
	"golang.org/x/tools/go/analysis/passes/bools"
	"golang.org/x/tools/go/analysis/passes/buildtag"
	"golang.org/x/tools/go/analysis/passes/composite"
	"golang.org/x/tools/go/analysis/passes/copylock"
	"golang.org/x/tools/go/analysis/passes/defers"
	"golang.org/x/tools/go/analysis/passes/directive"
	"golang.org/x/tools/go/analysis/passes/errorsas"
	"golang.org/x/tools/go/analysis/passes/framepointer"
	"golang.org/x/tools/go/analysis/passes/httpresponse"
	"golang.org/x/tools/go/analysis/passes/ifaceassert"
	"golang.org/x/tools/go/analysis/passes/loopclosure"
	"golang.org/x/tools/go/analysis/passes/lostcancel"
	"golang.org/x/tools/go/analysis/passes/nilfunc"
	"golang.org/x/tools/go/analysis/passes/printf"
	"golang.org/x/tools/go/analysis/passes/shift"
	"golang.org/x/tools/go/analysis/passes/sigchanyzer"
	"golang.org/x/tools/go/analysis/passes/slog"
	"golang.org/x/tools/go/analysis/passes/stdmethods"
	"golang.org/x/tools/go/analysis/passes/stringintconv"
	"golang.org/x/tools/go/analysis/passes/structtag"
	"golang.org/x/tools/go/analysis/passes/testinggoroutine"
	"golang.org/x/tools/go/analysis/passes/tests"
	"golang.org/x/tools/go/analysis/passes/timeformat"
	"golang.org/x/tools/go/analysis/passes/unmarshal"
	"golang.org/x/tools/go/analysis/passes/unreachable"
	"golang.org/x/tools/go/analysis/passes/unsafeptr"
	"golang.org/x/tools/go/analysis/passes/unusedresult"
	"golang.org/x/tools/go/analysis/unitchecker"

	"repro/internal/lint"
)

// vetPasses is the standard vet battery (minus cgocall, which is
// irrelevant to a pure-Go tree, and minus the go/ssa-based nilness and
// unusedwrite — see the package comment).
func vetPasses() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		appends.Analyzer,
		asmdecl.Analyzer,
		assign.Analyzer,
		atomic.Analyzer,
		bools.Analyzer,
		buildtag.Analyzer,
		composite.Analyzer,
		copylock.Analyzer,
		defers.Analyzer,
		directive.Analyzer,
		errorsas.Analyzer,
		framepointer.Analyzer,
		httpresponse.Analyzer,
		ifaceassert.Analyzer,
		loopclosure.Analyzer,
		lostcancel.Analyzer,
		nilfunc.Analyzer,
		printf.Analyzer,
		shift.Analyzer,
		sigchanyzer.Analyzer,
		slog.Analyzer,
		stdmethods.Analyzer,
		stringintconv.Analyzer,
		structtag.Analyzer,
		testinggoroutine.Analyzer,
		tests.Analyzer,
		timeformat.Analyzer,
		unmarshal.Analyzer,
		unreachable.Analyzer,
		unsafeptr.Analyzer,
		unusedresult.Analyzer,
	}
}

func main() {
	// The go vet driver probes with -V=full and -flags, then hands the
	// tool one JSON .cfg per package (possibly preceded by analyzer
	// flags such as -json); anything else is a human typing package
	// patterns.
	if len(os.Args) >= 2 {
		first, last := os.Args[1], os.Args[len(os.Args)-1]
		if strings.HasPrefix(first, "-V") || first == "-flags" || strings.HasSuffix(last, ".cfg") {
			unitchecker.Main(append(lint.Suite(), vetPasses()...)...) // does not return
		}
	}

	fs := flag.NewFlagSet("reprolint", flag.ExitOnError)
	summary := fs.String("summary", "", "append a markdown findings/waivers table to this file (CI passes $GITHUB_STEP_SUMMARY)")
	jsonOut := fs.String("json", "", "write a machine-readable findings/waivers summary to this file")
	fs.Parse(os.Args[1:])
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "reprolint:", err)
		os.Exit(2)
	}

	if *summary != "" || *jsonOut != "" {
		os.Exit(runWithSummary(exe, patterns, *summary, *jsonOut))
	}

	cmd := exec.Command("go", append([]string{"vet", "-vettool=" + exe}, patterns...)...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			os.Exit(ee.ExitCode())
		}
		fmt.Fprintln(os.Stderr, "reprolint:", err)
		os.Exit(2)
	}
}
