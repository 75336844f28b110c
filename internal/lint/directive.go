package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// The directive vocabulary. Directives are line comments of the form
// //repro:<verb> [args], attached to declarations (accounted, charges,
// readonly, scratch) or to finding sites (allow).
const (
	verbAccounted = "accounted"
	verbCharges   = "charges"
	verbReadonly  = "readonly"
	verbScratch   = "scratch"
	verbAllow     = "allow"
)

// directive is one parsed //repro: comment.
type directive struct {
	verb string
	args string // remainder after the verb, space-trimmed
	pos  token.Pos
}

// parseDirective parses a single comment; ok is false for non-repro
// comments.
func parseDirective(c *ast.Comment) (directive, bool) {
	text, found := strings.CutPrefix(c.Text, "//repro:")
	if !found {
		return directive{}, false
	}
	verb, args, _ := strings.Cut(text, " ")
	return directive{verb: verb, args: strings.TrimSpace(args), pos: c.Pos()}, true
}

// WaiverUsage is the result type every invariant analyzer returns: the
// source positions of the //repro:allow directives that actually
// suppressed one of its findings in this pass. reprodirective unions
// the usage of every analyzer it Requires and reports reasoned waivers
// nothing used — a stale waiver is a suppression whose finding has
// been fixed (or was never real), and leaving it in place would mask
// the next genuine finding at that line.
type WaiverUsage struct {
	Used map[token.Pos]bool
}

// waiverUsageType is the ResultType declared by the invariant
// analyzers.
var waiverUsageType = reflect.TypeOf((*WaiverUsage)(nil))

// dirIndex holds every directive of one package, indexed for the two
// lookups analyzers need: waivers by file line, and decl directives by
// comment group.
type dirIndex struct {
	fset *token.FileSet
	// allowByLine maps file -> line -> waived analyzer name -> position
	// of the //repro:allow comment (only waivers with a non-empty
	// reason count; reprodirective reports the reason-less ones).
	allowByLine map[*token.File]map[int]map[string]token.Pos
	all         []directive
	// usage records which waiver directives suppressed a finding of the
	// analyzer that built this index.
	usage *WaiverUsage
}

// collectDirectives scans all comments of the pass's files.
func collectDirectives(pass *analysis.Pass) *dirIndex {
	idx := &dirIndex{
		fset:        pass.Fset,
		allowByLine: make(map[*token.File]map[int]map[string]token.Pos),
		usage:       &WaiverUsage{Used: make(map[token.Pos]bool)},
	}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, ok := parseDirective(c)
				if !ok {
					continue
				}
				idx.all = append(idx.all, d)
				if d.verb != verbAllow {
					continue
				}
				name, reason, _ := strings.Cut(d.args, " ")
				if strings.TrimSpace(reason) == "" {
					continue // reason-less waivers do not suppress
				}
				tf := pass.Fset.File(d.pos)
				if tf == nil {
					continue
				}
				lines := idx.allowByLine[tf]
				if lines == nil {
					lines = make(map[int]map[string]token.Pos)
					idx.allowByLine[tf] = lines
				}
				line := tf.Line(d.pos)
				set := lines[line]
				if set == nil {
					set = make(map[string]token.Pos)
					lines[line] = set
				}
				set[name] = d.pos
			}
		}
	}
	return idx
}

// allowed reports whether a finding by the named analyzer at pos is
// waived: a //repro:allow <name> <reason> on the same line or the line
// immediately above, or in the given doc comment group (the enclosing
// function's, so one waiver can cover a whole accessor). A waiver that
// suppresses a finding is recorded as used, which is what keeps it off
// reprodirective's stale-waiver report.
func (idx *dirIndex) allowed(name string, pos token.Pos, doc *ast.CommentGroup) bool {
	tf := idx.fset.File(pos)
	if tf == nil {
		return false
	}
	if lines := idx.allowByLine[tf]; lines != nil {
		line := tf.Line(pos)
		if p, ok := lines[line][name]; ok {
			idx.usage.Used[p] = true
			return true
		}
		if p, ok := lines[line-1][name]; ok {
			idx.usage.Used[p] = true
			return true
		}
	}
	if doc != nil {
		for _, c := range doc.List {
			if d, ok := parseDirective(c); ok && d.verb == verbAllow {
				waived, reason, _ := strings.Cut(d.args, " ")
				if waived == name && strings.TrimSpace(reason) != "" {
					idx.usage.Used[d.pos] = true
					return true
				}
			}
		}
	}
	return false
}

// funcDirective returns the args of the first //repro:<verb> directive
// in the function's doc comment.
func funcDirective(fd *ast.FuncDecl, verb string) (string, bool) {
	if fd.Doc == nil {
		return "", false
	}
	for _, c := range fd.Doc.List {
		if d, ok := parseDirective(c); ok && d.verb == verb {
			return d.args, true
		}
	}
	return "", false
}

// markedFields collects the types.Var objects of struct fields and
// package-level vars whose declarations carry the given directive verb
// (in their doc comment or trailing line comment).
func markedFields(pass *analysis.Pass, verb string) map[types.Object]bool {
	marked := make(map[types.Object]bool)
	mark := func(names []*ast.Ident) {
		for _, n := range names {
			if obj := pass.TypesInfo.Defs[n]; obj != nil {
				marked[obj] = true
			}
		}
	}
	hasVerb := func(groups ...*ast.CommentGroup) bool {
		for _, g := range groups {
			if g == nil {
				continue
			}
			for _, c := range g.List {
				if d, ok := parseDirective(c); ok && d.verb == verb {
					return true
				}
			}
		}
		return false
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Field:
				if hasVerb(n.Doc, n.Comment) {
					mark(n.Names)
				}
			case *ast.ValueSpec:
				if hasVerb(n.Doc, n.Comment) {
					mark(n.Names)
				}
			}
			return true
		})
	}
	return marked
}

// receiverObject returns the types.Var of the receiver of fd, or nil.
func receiverObject(pass *analysis.Pass, fd *ast.FuncDecl) types.Object {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	return pass.TypesInfo.Defs[fd.Recv.List[0].Names[0]]
}

// rootedAt reports whether expr is the given object or a selector /
// index / slice / star / paren chain rooted at it (e.g. s.stats.n with
// root s).
func rootedAt(pass *analysis.Pass, expr ast.Expr, root types.Object) bool {
	if root == nil {
		return false
	}
	for {
		switch e := expr.(type) {
		case *ast.Ident:
			return pass.TypesInfo.Uses[e] == root
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.SliceExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		case *ast.UnaryExpr:
			if e.Op != token.AND {
				return false
			}
			expr = e.X
		default:
			return false
		}
	}
}

// freshAlloc reports whether e is a builtin make or new call: the
// result is newly allocated memory and cannot alias anything, even
// when a marked expression appears in the size arguments.
func freshAlloc(pass *analysis.Pass, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	b := builtin(pass, call)
	return b == "make" || b == "new"
}

// builtin is the name of the builtin a call invokes, or "".
func builtin(pass *analysis.Pass, call *ast.CallExpr) string {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			return id.Name
		}
	}
	return ""
}

// selectsMarked reports whether expr contains a selector (or bare
// ident) whose object is in marked — i.e. the expression reaches
// through a marked field anywhere in its chain.
func selectsMarked(pass *analysis.Pass, expr ast.Expr, marked map[types.Object]bool) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if marked[pass.TypesInfo.Uses[n.Sel]] {
				found = true
				return false
			}
		case *ast.Ident:
			if marked[pass.TypesInfo.Uses[n]] {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
