package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/cfg"

	"repro/internal/lint/flow"
)

// RlockpureAnalyzer enforces the mutation-free-accessor invariant:
// code that may hold the read side of an RWMutex, or run inside a
// shared-read epoch, or that belongs to a method declared
// //repro:readonly, must not mutate the receiver non-atomically.
// Flagged there: assignments and ++/-- on receiver fields (including
// map entries), and calls on the receiver to same-package methods that
// mutate it, directly or through further such calls (a bottom-up call
// summary). Atomic counters (atomic.Uint64 and friends) mutate through
// method calls and pass. This is the analyzer that would have caught
// syncdict's first shared-read fast path, which bumped a plain counter
// under RLock.
//
// Read regions are bracketflow's balance dataflow: a statement is in
// one when some RLock or BeginSharedReads key may be held both before
// and after it. A deferred release does not end a region (the bracket
// is held until the function returns), a helper's net bracket effect
// opens or closes regions in its callers, and each closure is its own
// frame. A //repro:readonly method is checked whole, once.
var RlockpureAnalyzer = &analysis.Analyzer{
	Name:       "rlockpure",
	Doc:        "no receiver mutation under RLock, inside shared-read epochs, or in //repro:readonly methods",
	Requires:   []*analysis.Analyzer{ctrlflow.Analyzer},
	ResultType: waiverUsageType,
	Run:        runRlockpure,
}

func runRlockpure(pass *analysis.Pass) (interface{}, error) {
	dirs := collectDirectives(pass)
	bc, g := newBracketCtx(pass)
	mutators := flow.Summaries(g, func(a, b bool) bool { return a == b },
		func(_ *types.Func, fd *ast.FuncDecl, get func(*types.Func) (bool, bool)) bool {
			found := false
			mutations(pass, fd.Body, receiverObject(pass, fd),
				func(fn *types.Func) bool { m, _ := get(fn); return m },
				func(ast.Node, string, ...any) { found = true })
			return found
		})
	isMutator := func(fn *types.Func) bool { return mutators[fn] }

	reported := make(map[token.Pos]bool) // a closure inside a region is checked twice
	lat := bfLattice{bc: bc, holdDeferred: true}
	for _, fn := range g.Funcs() {
		fd := g.Decls[fn]
		recv := receiverObject(pass, fd)
		if recv == nil {
			continue
		}
		check := func(n ast.Node, where string) {
			mutations(pass, n, recv, isMutator, func(m ast.Node, format string, args ...any) {
				if reported[m.Pos()] || dirs.allowed("rlockpure", m.Pos(), fd.Doc) {
					return
				}
				reported[m.Pos()] = true
				pass.Reportf(m.Pos(), format+" in %s", append(args, where)...)
			})
		}
		if _, ok := funcDirective(fd, verbReadonly); ok {
			check(fd.Body, "//repro:readonly method "+fd.Name.Name)
			continue
		}
		frames := []*cfg.CFG{bc.cfgs.FuncDecl(fd)}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				frames = append(frames, bc.cfgs.FuncLit(lit))
			}
			return true
		})
		for _, frame := range frames {
			flow.Forward[bfState](frame, lat).Walk(func(_ *cfg.Block, n ast.Node, before bfState) {
				if recv := readHeld(before, lat.Transfer(lat.Clone(before), n)); recv != "" {
					check(n, "shared-read region ("+recv+" held)")
				}
			})
		}
	}
	return dirs.usage, nil
}

// readHeld returns the receiver of the first (by receiver) read
// bracket — RLock or BeginSharedReads — that may be held both before
// and after a node, or "" when none is.
func readHeld(before, after bfState) string {
	var held []string
	for k, v := range before {
		if (k.release == "RUnlock" || k.release == "EndSharedReads") && v.held() && after.get(k).held() {
			held = append(held, k.recv)
		}
	}
	if len(held) == 0 {
		return ""
	}
	return slices.Min(held)
}

// mutations reports every non-atomic mutation of recv in n, closures
// included: a write rooted at it, or a call on it to a same-package
// method that mutates.
func mutations(pass *analysis.Pass, n ast.Node, recv types.Object, mutates func(*types.Func) bool, report func(n ast.Node, format string, args ...any)) {
	if recv == nil {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.AssignStmt:
			for _, lhs := range m.Lhs {
				if rootedAt(pass, lhs, recv) {
					report(m, "receiver field %s written non-atomically", types.ExprString(lhs))
				}
			}
		case *ast.IncDecStmt:
			if rootedAt(pass, m.X, recv) {
				report(m, "receiver field %s mutated non-atomically", types.ExprString(m.X))
			}
		case *ast.CallExpr:
			sel, isSel := m.Fun.(*ast.SelectorExpr)
			fn := flow.StaticCallee(pass.TypesInfo, m)
			if isSel && fn != nil && fn.Pkg() == pass.Pkg && fn.Signature().Recv() != nil &&
				rootedAt(pass, sel.X, recv) && mutates(fn.Origin()) {
				report(m, "call to mutating method %s", types.ExprString(m.Fun))
			}
		}
		return true
	})
}
