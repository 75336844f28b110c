package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"slices"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/cfg"

	"repro/internal/lint/flow"
)

// DamchargeAnalyzer enforces the DAM-accounting invariant from both
// sides of a charge. Storage marked //repro:accounted is accounted, and
// so is every parameter of a same-package function that is handed such
// storage (accountedStorage); an index, range, copy, or append on it
// probes the DAM model's cells.
//
//   - Uncharged access: a probe may only happen inside a function whose
//     doc comment carries //repro:charges <space>. Slicing re-aliases
//     without touching cells and is not an access; append is one only
//     through its first argument.
//   - Silent accessor: a declared accessor must contain a charge call
//     (Read/Write on a space, a charge helper, or a call to another
//     charged accessor) unless its argument starts with "caller:",
//     which documents that its callers own the charging.
//   - Charge amount: in an accessor that probes, some argument of each
//     charge call must derive, on some path reaching it, from what was
//     probed — an index or slice bound used on accounted storage, its
//     len/cap, an argument to or result of a probing call (a bottom-up
//     summary), or extent metadata of a struct carrying an accounted
//     field (lv.start, lv.used()). A charge with no derived argument
//     still passes when its innermost loop also probes: the lockstep
//     idiom charges a constant 1 per probed cell.
//
// Both rules read the probe sites of one forward dataflow per function:
// which locals alias accounted storage, and which hold probe-derived
// values. A closure is its own frame, entered with the state where it
// is created, and its probes count as its function's. Soundness
// caveats (DESIGN.md): charge calls inside closures are not
// amount-checked, and a charge derived only from len() passes even
// when the probed positions are key-dependent — deriving from the
// probed length is the documented blessing for size-proportional bulk
// charges. This is the analyzer that would have failed the build on
// the synthetic binary-search midpoint chain (hypothesis experiment
// E13) from either side: its probes ran outside an accessor, and its
// charges followed a key-independent position stream.
var DamchargeAnalyzer = &analysis.Analyzer{
	Name:       "damcharge",
	Doc:        "accounted arrays may only be accessed inside //repro:charges accessors, which must charge the positions they probe",
	Requires:   []*analysis.Analyzer{ctrlflow.Analyzer},
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

// probeSite is one place a function reads accounted storage. verb names
// the cell access ("indexes", "ranges over", "copies", "appends to");
// it is empty for probe evidence that is not itself an access: a slice
// bound, a later append argument, or a call to a probing function.
type probeSite struct {
	pos  token.Pos
	verb string
}

// dcCtx is one package's damcharge pass.
type dcCtx struct {
	pass      *analysis.Pass
	cfgs      *ctrlflow.CFGs
	accounted map[types.Object]bool
	// probers holds the functions that probe accounted cells, directly
	// or through same-package callees; nil while it is being computed.
	probers map[*types.Func]bool
	// rangeSeed maps the Key/Value nodes of every range statement to
	// the ranged expression, which rangeX marks (cfg stores all three
	// as bare expression nodes).
	rangeSeed map[ast.Node]ast.Expr
	rangeX    map[ast.Node]bool
	// hasAccounted caches the extent-metadata test per struct type.
	hasAccounted map[types.Type]bool
}

func runDamcharge(pass *analysis.Pass) (interface{}, error) {
	dirs := collectDirectives(pass)
	accounted := accountedStorage(pass)
	if len(accounted) == 0 {
		return dirs.usage, nil
	}
	dc := &dcCtx{
		pass:         pass,
		cfgs:         pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs),
		accounted:    accounted,
		rangeSeed:    make(map[ast.Node]ast.Expr),
		rangeX:       make(map[ast.Node]bool),
		hasAccounted: make(map[types.Type]bool),
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if rs, ok := n.(*ast.RangeStmt); ok {
				if rs.Key != nil {
					dc.rangeSeed[rs.Key] = rs.X
				}
				if rs.Value != nil {
					dc.rangeSeed[rs.Value] = rs.X
				}
				dc.rangeX[rs.X] = true
			}
			return true
		})
	}

	// Cell accesses do not depend on which callees probe, so one walk
	// per function finds them before probers exists.
	g := flow.PackageGraph(pass)
	chargers := make(map[string]bool)
	sites := make(map[*types.Func][]probeSite)
	for _, fn := range g.Funcs() {
		if _, ok := funcDirective(g.Decls[fn], verbCharges); ok {
			chargers[fn.Name()] = true
		}
		sites[fn] = dc.probes(g.Decls[fn], nil)
	}
	dc.probers = flow.Summaries(g, func(a, b bool) bool { return a == b },
		func(fn *types.Func, _ *ast.FuncDecl, get func(*types.Func) (bool, bool)) bool {
			if slices.ContainsFunc(sites[fn], func(s probeSite) bool { return s.verb != "" }) {
				return true
			}
			return slices.ContainsFunc(g.CalleesOf(fn), func(c *types.Func) bool { hit, _ := get(c); return hit })
		})

	for _, fn := range g.Funcs() {
		fd := g.Decls[fn]
		args, declared := funcDirective(fd, verbCharges)
		switch {
		case !declared:
			seen := make(map[token.Pos]bool)
			for _, s := range sites[fn] {
				if s.verb == "" || seen[s.pos] || dirs.allowed("damcharge", s.pos, fd.Doc) {
					continue
				}
				seen[s.pos] = true
				pass.Reportf(s.pos,
					"%s accounted storage outside a charged accessor (mark %s with //repro:charges <space> or charge via an accessor)",
					s.verb, fd.Name.Name)
			}
		case !strings.HasPrefix(args, "caller:"):
			dc.checkAccessor(fd, chargers, dirs)
		}
	}
	return dirs.usage, nil
}

// checkAccessor applies the silent-accessor and charge-amount rules to
// a declared accessor that owns its charging.
func (dc *dcCtx) checkAccessor(fd *ast.FuncDecl, chargers map[string]bool, dirs *dirIndex) {
	charges := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			name := calleeName(call)
			charges = charges || chargeCallNames[name] || chargers[name]
		}
		return !charges
	})
	if !charges {
		dc.pass.Reportf(fd.Name.Pos(),
			"charged accessor %s contains no charge call (use //repro:charges caller:<who> if its callers charge)",
			fd.Name.Name)
		return
	}

	var underived []*ast.CallExpr
	sites := dc.probes(fd, func(n ast.Node, s amtState) {
		ast.Inspect(n, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok && chargeCallNames[calleeName(call)] &&
				!slices.ContainsFunc(call.Args, func(arg ast.Expr) bool { return dc.exprDerived(s, arg) }) {
				underived = append(underived, call)
			}
			_, isLit := m.(*ast.FuncLit)
			return !isLit
		})
	})
	if len(sites) == 0 {
		return // accessor never probes: nothing to co-derive from
	}
	for _, call := range underived {
		loop := enclosingLoop(fd, call.Pos())
		if loop != nil && slices.ContainsFunc(sites, func(s probeSite) bool { return s.pos >= loop.Pos() && s.pos < loop.End() }) {
			continue // lockstep probe-then-charge inside one loop
		}
		if dirs.allowed("damcharge", call.Pos(), fd.Doc) {
			continue
		}
		dc.pass.Reportf(call.Pos(),
			"charge call %s derives from no probed index: %s probes accounted cells elsewhere (synthetic midpoint-chain shape — charge the positions actually probed)",
			calleeName(call), fd.Name.Name)
	}
}

// probes runs the dataflow over fd and returns its probe sites, those
// of its closures included. visit, when non-nil, sees every node of
// fd's own body with the state in force there, the node's probes
// seeded.
func (dc *dcCtx) probes(fd *ast.FuncDecl, visit func(n ast.Node, s amtState)) []probeSite {
	var sites []probeSite
	dc.frame(dc.cfgs.FuncDecl(fd), amtState{}, &sites, visit)
	return sites
}

// frame walks one body from start, appending its probe sites and
// entering each closure it creates with the state captured there.
func (dc *dcCtx) frame(g *cfg.CFG, start amtState, sites *[]probeSite, visit func(n ast.Node, s amtState)) {
	lat := amtLattice{dc, start}
	flow.Forward[amtState](g, lat).Walk(func(_ *cfg.Block, n ast.Node, before amtState) {
		s := lat.Clone(before)
		dc.seedProbes(s, n, sites)
		ast.Inspect(n, func(m ast.Node) bool {
			lit, isLit := m.(*ast.FuncLit)
			if isLit {
				dc.frame(dc.cfgs.FuncLit(lit), s, sites, nil)
			}
			return !isLit
		})
		if visit != nil {
			visit(n, s)
		}
	})
}

// aliasable reports whether values of type t are reference-like: only
// such values carry accounted storage along. Reading a basic-typed
// element is an access (caught at the index expression), not an alias.
func aliasable(t types.Type) bool {
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
			carries := func(e ast.Expr) bool {
				return aliasable(pass.TypesInfo.TypeOf(e)) && !freshAlloc(pass, e) &&
					(selectsMarked(pass, e, accounted) || selectsMarked(pass, e, taint))
			}
			ast.Inspect(body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for i, rhs := range n.Rhs {
						if id, ok := n.Lhs[i].(*ast.Ident); ok && carries(rhs) {
							if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
								taint[obj] = true
							}
						}
					}
				case *ast.CallExpr:
					callee := flow.StaticCallee(pass.TypesInfo, n)
					if callee == nil || callee.Pkg() != pass.Pkg {
						return true
					}
					params := callee.Type().(*types.Signature).Params()
					for i, arg := range n.Args {
						if !carries(arg) {
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

// amtState is the abstract state of the dataflow: which locals alias
// accounted storage, and which locals hold probe-derived values.
type amtState struct {
	alias   map[types.Object]bool
	derived map[types.Object]bool
}

// amtLattice is the dataflow of one frame, entered in start.
type amtLattice struct {
	*dcCtx
	start amtState
}

func (l amtLattice) Entry() amtState { return l.Clone(l.start) }

func (amtLattice) Clone(s amtState) amtState {
	c := amtState{alias: make(map[types.Object]bool, len(s.alias)), derived: make(map[types.Object]bool, len(s.derived))}
	maps.Copy(c.alias, s.alias)
	maps.Copy(c.derived, s.derived)
	return c
}

func (l amtLattice) Join(a, b amtState) amtState {
	j := l.Clone(a)
	maps.Copy(j.alias, b.alias)
	maps.Copy(j.derived, b.derived)
	return j
}

func (amtLattice) Equal(a, b amtState) bool {
	return maps.Equal(a.alias, b.alias) && maps.Equal(a.derived, b.derived)
}

// reaches reports whether e reads accounted storage or an alias.
func (dc *dcCtx) reaches(s amtState, e ast.Expr) bool {
	return selectsMarked(dc.pass, e, dc.accounted) || selectsMarked(dc.pass, e, s.alias)
}

// extentOf reports whether e selects a field or method of a struct
// that itself carries an //repro:accounted field — the structure's own
// extent metadata (lv.start, lv.used(), c.levels[t].start).
func (dc *dcCtx) extentOf(e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	t := dc.pass.TypesInfo.TypeOf(sel.X)
	if t == nil {
		return false
	}
	if hit, cached := dc.hasAccounted[t]; cached {
		return hit
	}
	hit := false
	u := t
	if p, ok := u.Underlying().(*types.Pointer); ok {
		u = p.Elem()
	}
	if st, ok := u.Underlying().(*types.Struct); ok {
		for i := 0; i < st.NumFields(); i++ {
			if dc.accounted[st.Field(i)] {
				hit = true
				break
			}
		}
	}
	dc.hasAccounted[t] = hit
	return hit
}

// probeCall reports whether a call probes accounted cells: a static
// same-package callee with a probing summary.
func (dc *dcCtx) probeCall(call *ast.CallExpr) bool {
	if chargeCallNames[calleeName(call)] {
		return false // charging is not probing
	}
	fn := flow.StaticCallee(dc.pass.TypesInfo, call)
	return fn != nil && dc.probers[fn]
}

// exprDerived reports whether e is probe-derived in state s: it
// contains a derived local, len/cap of accounted storage, a probing
// call, or extent metadata of an accounted-bearing struct.
func (dc *dcCtx) exprDerived(s amtState, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.Ident:
			found = found || s.derived[dc.pass.TypesInfo.Uses[n]]
		case *ast.SelectorExpr:
			found = found || dc.extentOf(n)
		case *ast.CallExpr:
			b := builtin(dc.pass, n)
			found = found || (b == "len" || b == "cap") && len(n.Args) == 1 && dc.reaches(s, n.Args[0]) || dc.probeCall(n)
		}
		return !found
	})
	return found
}

// seedProbes marks probe positions found anywhere in n as derived —
// idents inside index/slice-bound expressions over accounted storage,
// and arguments of probing calls — and, when sites is non-nil, appends
// every probe site.
func (dc *dcCtx) seedProbes(s amtState, n ast.Node, sites *[]probeSite) {
	site := func(pos token.Pos, verb string) {
		if sites != nil {
			*sites = append(*sites, probeSite{pos, verb})
		}
	}
	markIdents := func(e ast.Expr) {
		if e == nil {
			return
		}
		ast.Inspect(e, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok {
				if obj := dc.pass.TypesInfo.Uses[id]; obj != nil {
					s.derived[obj] = true
				}
			}
			return true
		})
	}
	reaches := func(e ast.Expr) bool { return dc.reaches(s, e) }
	if x, ok := n.(ast.Expr); ok && dc.rangeX[n] && reaches(x) {
		site(n.Pos(), "ranges over")
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.IndexExpr:
			if reaches(m.X) {
				markIdents(m.Index)
				site(m.Pos(), "indexes")
			}
		case *ast.SliceExpr:
			if reaches(m.X) {
				markIdents(m.Low)
				markIdents(m.High)
				markIdents(m.Max)
				site(m.Pos(), "")
			}
		case *ast.CallExpr:
			switch builtin(dc.pass, m) {
			case "copy":
				if slices.ContainsFunc(m.Args, reaches) {
					site(m.Pos(), "copies")
				}
				return true
			case "append":
				if len(m.Args) > 0 && reaches(m.Args[0]) {
					site(m.Pos(), "appends to")
				} else if slices.ContainsFunc(m.Args, reaches) {
					site(m.Pos(), "")
				}
				return true
			}
			if dc.probeCall(m) {
				for _, arg := range m.Args {
					markIdents(arg)
				}
				site(m.Pos(), "")
			}
		}
		return true
	})
}

func (l amtLattice) Transfer(s amtState, n ast.Node) amtState {
	// Probe seeds first: sub-expressions are evaluated before any
	// assignment they feed takes effect.
	l.seedProbes(s, n, nil)
	if x, isRangeVar := l.rangeSeed[n]; isRangeVar {
		if id, ok := n.(*ast.Ident); ok && l.reaches(s, x) {
			if obj := l.pass.TypesInfo.ObjectOf(id); obj != nil {
				s.derived[obj] = true
			}
		}
		return s
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		opAssign := n.Tok != token.ASSIGN && n.Tok != token.DEFINE
		for i, lhs := range n.Lhs {
			// x, y := f(...) is derived iff f probes; a non-ident LHS
			// (data[j] = v) changes no local, its index probe seeded.
			if id, ok := lhs.(*ast.Ident); ok {
				l.assignTo(s, id, n.Rhs[min(i, len(n.Rhs)-1)], opAssign)
			}
		}
	case *ast.ValueSpec:
		for i, name := range n.Names {
			var rhs ast.Expr
			if i < len(n.Values) {
				rhs = n.Values[i]
			} else if len(n.Values) == 1 {
				rhs = n.Values[0] // multi-value: conservative, same expr
			}
			l.assignTo(s, name, rhs, false)
		}
	}
	return s
}

// assignTo applies one ident-LHS assignment: strong update (plain
// assignment kills stale facts) with alias and derived gen. Op-assigns
// (x += e) keep existing facts.
func (dc *dcCtx) assignTo(s amtState, id *ast.Ident, rhs ast.Expr, opAssign bool) {
	obj := dc.pass.TypesInfo.ObjectOf(id)
	if id.Name == "_" || obj == nil {
		return
	}
	aliasGen := rhs != nil && aliasable(dc.pass.TypesInfo.TypeOf(rhs)) && dc.reaches(s, rhs) && !freshAlloc(dc.pass, rhs)
	derGen := rhs != nil && dc.exprDerived(s, rhs)
	if !opAssign {
		delete(s.alias, obj)
		delete(s.derived, obj)
	}
	if aliasGen {
		s.alias[obj] = true
	}
	if derGen {
		s.derived[obj] = true
	}
}

// calleeName is the bare selector or ident name of a call's function.
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		return fun.Sel.Name
	case *ast.Ident:
		return fun.Name
	}
	return ""
}

// enclosingLoop returns the innermost for/range statement containing
// pos, excluding loops inside function literals.
func enclosingLoop(fd *ast.FuncDecl, pos token.Pos) ast.Stmt {
	var best ast.Stmt
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if _, isLit := n.(*ast.FuncLit); isLit {
			return !(pos >= n.Pos() && pos < n.End())
		}
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			if pos >= n.Pos() && pos < n.End() {
				best = n.(ast.Stmt)
			}
		}
		return true
	})
	return best
}
