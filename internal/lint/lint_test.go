package lint_test

import (
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"golang.org/x/tools/go/analysis"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

// corpora is the spec: every analyzer of the suite and the testdata
// packages it must pass, flagged and clean cases side by side. A merged
// analyzer runs over the corpora of both analyzers it replaced, and its
// expected lines there are the union of theirs. The hist* packages
// reproduce bugs this repo actually shipped: histdam and histamount the
// synthetic midpoint chain of experiment E13, from the uncharged-probe
// and the charge-amount side; histrlock the plain counter increments on
// syncdict's first RLock fast path.
var corpora = []struct {
	a    *analysis.Analyzer
	pkgs []string
}{
	{lint.DirectiveAnalyzer, []string{"reprodirective"}},
	{lint.DamchargeAnalyzer, []string{"damcharge", "histdam", "chargeamount", "histamount"}},
	{lint.RlockpureAnalyzer, []string{"rlockpure", "histrlock"}},
	{lint.BracketflowAnalyzer, []string{"bracketflow", "bracketbalance"}},
	{lint.ScratchescapeAnalyzer, []string{"scratchescape"}},
	{lint.DurerrAnalyzer, []string{"wal"}},
}

// runCorpora runs a over each of its corpora as a subtest.
func runCorpora(t *testing.T, a *analysis.Analyzer) {
	for _, row := range corpora {
		if row.a != a {
			continue
		}
		for _, pkg := range row.pkgs {
			t.Run(pkg, func(t *testing.T) { linttest.Run(t, "testdata", a, pkg) })
		}
		return
	}
	t.Fatalf("%s has no row in corpora", a.Name)
}

func TestDirectiveSyntax(t *testing.T) { runCorpora(t, lint.DirectiveAnalyzer) }
func TestDamcharge(t *testing.T)       { runCorpora(t, lint.DamchargeAnalyzer) }
func TestRlockpure(t *testing.T)       { runCorpora(t, lint.RlockpureAnalyzer) }
func TestBracketflow(t *testing.T)     { runCorpora(t, lint.BracketflowAnalyzer) }
func TestScratchescape(t *testing.T)   { runCorpora(t, lint.ScratchescapeAnalyzer) }
func TestDurerr(t *testing.T)          { runCorpora(t, lint.DurerrAnalyzer) }

// TestEveryCorpusIsRun keeps the table honest: every analyzer of the
// suite has exactly one row, and every package under testdata/src
// except the standard-library stubs is some row's corpus, so renaming
// or merging an analyzer cannot orphan a corpus.
func TestEveryCorpusIsRun(t *testing.T) {
	stubs := []string{"os", "sync", "sync/atomic"}
	rows := make(map[*analysis.Analyzer]int)
	listed := make(map[string]bool)
	for _, row := range corpora {
		rows[row.a]++
		for _, pkg := range row.pkgs {
			if listed[pkg] {
				t.Errorf("corpus %s is listed twice", pkg)
			}
			listed[pkg] = true
		}
	}
	for _, a := range lint.Suite() {
		if rows[a] != 1 {
			t.Errorf("analyzer %s has %d rows in corpora, want 1", a.Name, rows[a])
		}
	}
	if len(rows) != len(lint.Suite()) {
		t.Errorf("corpora has %d rows for a suite of %d analyzers", len(rows), len(lint.Suite()))
	}
	src := filepath.Join("testdata", "src")
	pkgs := make(map[string]bool)
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		rel, err := filepath.Rel(src, filepath.Dir(path))
		pkgs[filepath.ToSlash(rel)] = true
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for pkg := range pkgs {
		if !listed[pkg] && !slices.Contains(stubs, pkg) {
			t.Errorf("testdata package %s is run by no analyzer: add it to corpora", pkg)
		}
	}
}
