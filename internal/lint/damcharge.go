package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"repro/internal/lint/flow"
)

// DamchargeAnalyzer enforces the DAM-accounting invariant: every
// access to an accounted array goes through a declared charged
// accessor. Storage marked //repro:accounted may only be indexed,
// sliced, or ranged over inside a function whose doc comment carries
// //repro:charges <space>; such a function must in turn contain a
// charge call (Read/Write on a space, or a call to another charged
// accessor) unless its argument starts with "caller:", which documents
// that its callers own the charging. Accounted storage handed to a
// same-package function stays accounted in the parameter that receives
// it (accountedStorage), so a helper indexing a `cells []entry` it was
// passed answers to the same rule. This is the analyzer that would
// have failed the build on PR 6's synthetic binary-search midpoint
// chain — an "optimization" that probed accounted cells while charging
// a key-independent synthetic position stream.
var DamchargeAnalyzer = &analysis.Analyzer{
	Name:       "damcharge",
	Doc:        "accounted arrays may only be accessed inside //repro:charges accessors",
	Requires:   []*analysis.Analyzer{inspect.Analyzer},
	ResultType: waiverUsageType,
	Run:        runDamcharge,
}

// chargeCallNames are method/function names that constitute a charge:
// the dam.Space primitives and the per-structure charge helpers (which
// are themselves charged accessors, so the set stays closed).
var chargeCallNames = map[string]bool{
	"Read": true, "Write": true,
	"chargeRead": true, "chargeWrite": true,
	"touch": true, "dirty": true,
}

func runDamcharge(pass *analysis.Pass) (interface{}, error) {
	dirs := collectDirectives(pass)
	accounted := accountedStorage(pass)
	if len(accounted) == 0 {
		return dirs.usage, nil
	}
	// chargers: names of package functions/methods declared as charged
	// accessors, so "contains a call to another charged accessor"
	// satisfies the charge-call requirement.
	chargers := make(map[string]bool)
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		if _, ok := funcDirective(fd, verbCharges); ok {
			chargers[fd.Name.Name] = true
		}
	})

	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		if fd.Body == nil {
			return
		}
		if args, ok := funcDirective(fd, verbCharges); ok {
			checkAccessorCharges(pass, fd, args, chargers)
			return
		}
		checkUncharged(pass, fd, accounted, dirs)
	})
	return dirs.usage, nil
}

// checkAccessorCharges verifies a declared accessor actually charges:
// its body must contain a call to a charge primitive or to another
// charged accessor, unless the directive defers to its callers.
func checkAccessorCharges(pass *analysis.Pass, fd *ast.FuncDecl, args string, chargers map[string]bool) {
	if strings.HasPrefix(args, "caller:") {
		return
	}
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.SelectorExpr:
			if chargeCallNames[fun.Sel.Name] || chargers[fun.Sel.Name] {
				found = true
			}
		case *ast.Ident:
			if chargeCallNames[fun.Name] || chargers[fun.Name] {
				found = true
			}
		}
		return !found
	})
	if !found {
		pass.Reportf(fd.Name.Pos(),
			"charged accessor %s contains no charge call (use //repro:charges caller:<who> if its callers charge)",
			fd.Name.Name)
	}
}

// aliasable reports whether e is reference-like: only such values
// carry accounted storage along. Reading a basic-typed element is an
// access (caught at the index expression), not an alias.
func aliasable(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Pointer, *types.Array:
		return true
	}
	return false
}

// accountedStorage is the package's accounted storage: the fields and
// variables marked //repro:accounted, and every parameter of a
// same-package function that some call hands such storage, a local
// alias of it, or another such parameter. Calls through function values
// and into other packages are not followed: their callees have no
// syntax here to check.
func accountedStorage(pass *analysis.Pass) map[types.Object]bool {
	accounted := markedFields(pass, verbAccounted)
	if len(accounted) == 0 {
		return accounted
	}
	var bodies []*ast.BlockStmt
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				bodies = append(bodies, fd.Body)
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, body := range bodies {
			taint := make(map[types.Object]bool)
			ast.Inspect(body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					taintAliases(pass, n, accounted, taint)
				case *ast.CallExpr:
					callee := flow.StaticCallee(pass.TypesInfo, n)
					if callee == nil || callee.Pkg() != pass.Pkg {
						return true
					}
					params := callee.Type().(*types.Signature).Params()
					for i, arg := range n.Args {
						if !aliasable(pass, arg) || freshAlloc(pass, arg) ||
							!selectsMarked(pass, arg, accounted) && !selectsMarked(pass, arg, taint) {
							continue
						}
						if p := params.At(min(i, params.Len()-1)); !accounted[p] { // a variadic's last parameter takes the rest
							accounted[p] = true
							changed = true
						}
					}
				}
				return true
			})
		}
	}
	return accounted
}

// taintAliases adds to taint the locals that as assigns accounted
// storage, or an alias of it already in taint.
func taintAliases(pass *analysis.Pass, as *ast.AssignStmt, accounted, taint map[types.Object]bool) {
	for i, rhs := range as.Rhs {
		if i >= len(as.Lhs) {
			break
		}
		id, ok := as.Lhs[i].(*ast.Ident)
		if !ok || !aliasable(pass, rhs) || freshAlloc(pass, rhs) ||
			!selectsMarked(pass, rhs, accounted) && !selectsMarked(pass, rhs, taint) {
			continue
		}
		if obj := pass.TypesInfo.Defs[id]; obj != nil {
			taint[obj] = true
		} else if obj := pass.TypesInfo.Uses[id]; obj != nil {
			taint[obj] = true
		}
	}
}

// checkUncharged flags accesses to accounted storage in a function
// that is not a declared accessor. Local aliases of accounted storage
// (slice-typed values assigned from it) are tracked within the
// function.
func checkUncharged(pass *analysis.Pass, fd *ast.FuncDecl, accounted map[types.Object]bool, dirs *dirIndex) {
	// taint: locals aliasing accounted storage.
	taint := make(map[types.Object]bool)
	reaches := func(e ast.Expr) bool {
		return selectsMarked(pass, e, accounted) || selectsMarked(pass, e, taint)
	}
	report := func(pos ast.Node, what string) {
		if dirs.allowed("damcharge", pos.Pos(), fd.Doc) {
			return
		}
		pass.Reportf(pos.Pos(),
			"%s accounted storage outside a charged accessor (mark %s with //repro:charges <space> or charge via an accessor)",
			what, fd.Name.Name)
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			taintAliases(pass, n, accounted, taint)
		case *ast.IndexExpr:
			if reaches(n.X) {
				report(n, "indexes")
				return false
			}
		case *ast.CallExpr:
			// copy and append move cells without an index expression.
			if id, ok := n.Fun.(*ast.Ident); ok {
				if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
					switch id.Name {
					case "copy":
						for _, arg := range n.Args {
							if reaches(arg) {
								report(n, "copies")
								break
							}
						}
					case "append":
						if len(n.Args) > 0 && reaches(n.Args[0]) {
							report(n, "appends to")
						}
					}
				}
			}
		case *ast.SliceExpr:
			// Slicing re-aliases without touching cells; it only matters
			// when the result is kept (handled by assignment tainting) or
			// accessed (handled at the eventual index). Not a finding.
		case *ast.RangeStmt:
			if n.X != nil && reaches(n.X) {
				report(n.X, "ranges over")
			}
		}
		return true
	})
}
