package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/cfg"

	"repro/internal/lint/flow"
)

// ChargeamountAnalyzer checks charged accessors from the charge-amount
// side: the values passed to a charge call must be derived from the
// positions the accessor actually probes. damcharge catches uncharged
// probes (the call-site side of PR 6's synthetic-midpoint bug); this
// analyzer catches the dual — an accessor that probes accounted cells
// but feeds its charge calls constants or variables unrelated to any
// probed index, which is exactly how the midpoint chain kept the
// charge COUNT right while charging the wrong cells.
//
// An argument counts as probe-derived when, on some path reaching the
// charge (a may-analysis over the flow engine's fixpoint), it is
// derived from: an index/slice-bound expression applied to accounted
// storage or an alias of it, len/cap of accounted storage, an argument
// to or result of a call that probes accounted cells (directly or
// transitively within the package, via bottom-up call summaries), or a
// field/method of a struct that carries an //repro:accounted field
// (extent metadata such as lv.start / lv.used() — the level's own
// bookkeeping of where its cells live). A charge with no derived
// argument is still fine when its innermost enclosing loop contains a
// probe (the lockstep probe-then-charge idiom charges a constant 1 per
// probed cell), and the whole check is vacuous in accessors that never
// probe (pure charge helpers like chargeRead itself, and bulk
// extent-charging accessors validated by the extent rule).
//
// Soundness caveats (see DESIGN.md): closure bodies are not analyzed
// (they have their own CFGs; charge calls inside them are skipped),
// and a charge derived only from len() passes even when the probed
// positions are key-dependent — deriving from the probed length is the
// documented blessing for size-proportional bulk charges.
var ChargeamountAnalyzer = &analysis.Analyzer{
	Name:       "chargeamount",
	Doc:        "charge-call arguments in a charged accessor must derive from probed positions",
	Requires:   []*analysis.Analyzer{ctrlflow.Analyzer},
	ResultType: waiverUsageType,
	Run:        runChargeamount,
}

func runChargeamount(pass *analysis.Pass) (interface{}, error) {
	dirs := collectDirectives(pass)
	accounted := accountedStorage(pass)
	if len(accounted) == 0 {
		return dirs.usage, nil
	}
	cfgs := pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs)
	g := flow.PackageGraph(pass)

	// checked: declared accessors that own their charging. caller:
	// accessors and undeclared functions are damcharge's concern.
	var checked []*types.Func
	for _, fn := range g.Funcs() {
		if args, ok := funcDirective(g.Decls[fn], verbCharges); ok && !strings.HasPrefix(args, "caller:") {
			checked = append(checked, fn)
		}
	}

	// probers: which package functions probe accounted storage, closed
	// transitively over same-package calls. A call to a prober is probe
	// evidence at the call site — its arguments are probed positions
	// and its results are derived from them.
	probers := flow.Summaries(g, func(a, b bool) bool { return a == b },
		func(fn *types.Func, fd *ast.FuncDecl, get func(*types.Func) (bool, bool)) bool {
			if probesDirectly(pass, fd, accounted) {
				return true
			}
			for _, c := range g.CalleesOf(fn) {
				if hit, ok := get(c); ok && hit {
					return true
				}
			}
			return false
		})

	for _, fn := range checked {
		fd := g.Decls[fn]
		if cg := cfgs.FuncDecl(fd); cg != nil {
			checkChargeAmounts(pass, fd, cg, accounted, probers, dirs)
		}
	}
	return dirs.usage, nil
}

// probesDirectly reports whether fd's body (closures included —
// probing inside a closure is still this function probing) indexes,
// ranges over, or copies accounted storage or a local alias of it.
func probesDirectly(pass *analysis.Pass, fd *ast.FuncDecl, accounted map[types.Object]bool) bool {
	taint := make(map[types.Object]bool)
	reaches := func(e ast.Expr) bool {
		return selectsMarked(pass, e, accounted) || selectsMarked(pass, e, taint)
	}
	// Collect aliases first (textual order suffices for the tree's
	// alias-then-probe idiom), then look for probes.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok {
			taintAliases(pass, as, accounted, taint)
		}
		return true
	})
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.IndexExpr:
			if reaches(n.X) {
				found = true
			}
		case *ast.RangeStmt:
			if n.X != nil && reaches(n.X) {
				found = true
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok {
				if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin && (id.Name == "copy" || id.Name == "append") {
					for _, arg := range n.Args {
						if reaches(arg) {
							found = true
							break
						}
					}
				}
			}
		}
		return !found
	})
	return found
}

// amtState is the abstract state of the charge-amount analysis: which
// locals alias accounted storage, and which locals hold probe-derived
// values.
type amtState struct {
	alias   map[types.Object]bool
	derived map[types.Object]bool
}

type amtLattice struct {
	pass      *analysis.Pass
	accounted map[types.Object]bool
	// rangeSeed maps the Key/Value ident nodes of every range statement
	// in the function to the ranged expression (cfg stores them as bare
	// expression nodes, so the range structure must be recovered here).
	rangeSeed map[ast.Node]ast.Expr
	// rangeX marks the ranged expressions themselves: ranging over
	// accounted storage is a (bulk) probe site.
	rangeX map[ast.Node]bool
	// probeCall reports whether a call probes accounted cells (a static
	// same-package callee with a probing summary).
	probeCall func(*ast.CallExpr) bool
	// hasAccounted caches the extent-metadata test per struct type.
	hasAccounted map[types.Type]bool
}

func (amtLattice) Entry() amtState {
	return amtState{alias: map[types.Object]bool{}, derived: map[types.Object]bool{}}
}

func (amtLattice) Clone(s amtState) amtState {
	c := amtState{alias: make(map[types.Object]bool, len(s.alias)), derived: make(map[types.Object]bool, len(s.derived))}
	for k := range s.alias {
		c.alias[k] = true
	}
	for k := range s.derived {
		c.derived[k] = true
	}
	return c
}

func (l amtLattice) Join(a, b amtState) amtState {
	j := l.Clone(a)
	for k := range b.alias {
		j.alias[k] = true
	}
	for k := range b.derived {
		j.derived[k] = true
	}
	return j
}

func (amtLattice) Equal(a, b amtState) bool {
	if len(a.alias) != len(b.alias) || len(a.derived) != len(b.derived) {
		return false
	}
	for k := range a.alias {
		if !b.alias[k] {
			return false
		}
	}
	for k := range a.derived {
		if !b.derived[k] {
			return false
		}
	}
	return true
}

// reaches reports whether e reads accounted storage or an alias.
func (l amtLattice) reaches(s amtState, e ast.Expr) bool {
	return selectsMarked(l.pass, e, l.accounted) || selectsMarked(l.pass, e, s.alias)
}

// extentOf reports whether e selects a field or method of a struct
// that itself carries an //repro:accounted field — the structure's own
// extent metadata (lv.start, lv.used(), c.levels[t].start).
func (l amtLattice) extentOf(e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	t := l.pass.TypesInfo.TypeOf(sel.X)
	if t == nil {
		return false
	}
	if hit, cached := l.hasAccounted[t]; cached {
		return hit
	}
	hit := false
	u := t
	if p, ok := u.Underlying().(*types.Pointer); ok {
		u = p.Elem()
	}
	if st, ok := u.Underlying().(*types.Struct); ok {
		for i := 0; i < st.NumFields(); i++ {
			if l.accounted[st.Field(i)] {
				hit = true
				break
			}
		}
	}
	l.hasAccounted[t] = hit
	return hit
}

// exprDerived reports whether e is probe-derived in state s: it
// contains a derived local, len/cap of accounted storage, a probing
// call, or extent metadata of an accounted-bearing struct.
func (l amtLattice) exprDerived(s amtState, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		switch n := n.(type) {
		case *ast.Ident:
			if s.derived[l.pass.TypesInfo.Uses[n]] {
				found = true
			}
		case *ast.SelectorExpr:
			if l.extentOf(n) {
				found = true
				return false
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && (id.Name == "len" || id.Name == "cap") {
				if _, isBuiltin := l.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin && len(n.Args) == 1 && l.reaches(s, n.Args[0]) {
					found = true
					return false
				}
			}
			if l.probeCall(n) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// seedProbes marks probe positions found anywhere in n as derived:
// idents inside index/slice-bound expressions over accounted storage,
// and arguments of probing calls. When sites is non-nil, the position
// of every probe found is appended (the reporting pass's evidence and
// co-location set).
func (l amtLattice) seedProbes(s amtState, n ast.Node, sites *[]token.Pos) {
	markIdents := func(e ast.Expr) {
		if e == nil {
			return
		}
		ast.Inspect(e, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok {
				if obj := l.pass.TypesInfo.Uses[id]; obj != nil {
					s.derived[obj] = true
				}
			}
			return true
		})
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if _, isLit := m.(*ast.FuncLit); isLit {
			return false
		}
		switch m := m.(type) {
		case *ast.IndexExpr:
			if l.reaches(s, m.X) {
				markIdents(m.Index)
				if sites != nil {
					*sites = append(*sites, m.Pos())
				}
			}
		case *ast.SliceExpr:
			if l.reaches(s, m.X) {
				markIdents(m.Low)
				markIdents(m.High)
				markIdents(m.Max)
				if sites != nil {
					*sites = append(*sites, m.Pos())
				}
			}
		case *ast.CallExpr:
			if id, ok := m.Fun.(*ast.Ident); ok {
				if _, isBuiltin := l.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin && (id.Name == "copy" || id.Name == "append") {
					for _, arg := range m.Args {
						if l.reaches(s, arg) {
							if sites != nil {
								*sites = append(*sites, m.Pos())
							}
							break
						}
					}
					return true
				}
			}
			if l.probeCall(m) {
				for _, arg := range m.Args {
					markIdents(arg)
				}
				if sites != nil {
					*sites = append(*sites, m.Pos())
				}
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
		if l.reaches(s, x) {
			if id, ok := n.(*ast.Ident); ok {
				if obj := l.pass.TypesInfo.Defs[id]; obj != nil {
					s.derived[obj] = true
				} else if obj := l.pass.TypesInfo.Uses[id]; obj != nil {
					s.derived[obj] = true
				}
			}
		}
		return s
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		l.transferAssign(s, n)
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

func (l amtLattice) transferAssign(s amtState, as *ast.AssignStmt) {
	opAssign := as.Tok != token.ASSIGN && as.Tok != token.DEFINE
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		// Multi-value form: x, y := f(...). Derived iff f probes.
		rhs := as.Rhs[0]
		for _, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				l.assignTo(s, id, rhs, opAssign)
			}
		}
		return
	}
	for i, rhs := range as.Rhs {
		if i >= len(as.Lhs) {
			break
		}
		if id, ok := as.Lhs[i].(*ast.Ident); ok {
			l.assignTo(s, id, rhs, opAssign)
		}
		// Non-ident LHS (data[j] = v): the index probe was already
		// seeded by seedProbes; no local changes state.
	}
}

// assignTo applies one ident-LHS assignment: strong update (plain
// assignment kills stale facts) with alias and derived gen. Op-assigns
// (x += e) keep existing facts.
func (l amtLattice) assignTo(s amtState, id *ast.Ident, rhs ast.Expr, opAssign bool) {
	if id.Name == "_" {
		return
	}
	obj := l.pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = l.pass.TypesInfo.Uses[id]
	}
	if obj == nil {
		return
	}
	aliasGen := rhs != nil && aliasableType(l.pass.TypesInfo.TypeOf(rhs)) && l.reaches(s, rhs) && !freshAlloc(l.pass, rhs)
	derGen := rhs != nil && l.exprDerived(s, rhs)
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

// aliasableType mirrors damcharge: only reference-like values carry an
// alias of accounted storage.
func aliasableType(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Pointer, *types.Array:
		return true
	}
	return false
}

func checkChargeAmounts(pass *analysis.Pass, fd *ast.FuncDecl, g *cfg.CFG, accounted map[types.Object]bool, probers map[*types.Func]bool, dirs *dirIndex) {
	lat := amtLattice{
		pass:         pass,
		accounted:    accounted,
		rangeSeed:    make(map[ast.Node]ast.Expr),
		rangeX:       make(map[ast.Node]bool),
		hasAccounted: make(map[types.Type]bool),
	}
	lat.probeCall = func(call *ast.CallExpr) bool {
		if name := calleeName(call); chargeCallNames[name] {
			return false // charging is not probing
		}
		fn := flow.StaticCallee(pass.TypesInfo, call)
		return fn != nil && probers[fn]
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if rs, ok := n.(*ast.RangeStmt); ok {
			if rs.Key != nil {
				lat.rangeSeed[rs.Key] = rs.X
			}
			if rs.Value != nil {
				lat.rangeSeed[rs.Value] = rs.X
			}
			lat.rangeX[rs.X] = true
		}
		return true
	})

	res := flow.Forward[amtState](g, lat)

	// Reporting pass: collect probe evidence and underived charges.
	type candidate struct {
		call *ast.CallExpr
		name string
	}
	var sites []token.Pos
	var cands []candidate
	res.Walk(func(_ *cfg.Block, n ast.Node, before amtState) {
		lat.seedProbes(before, n, &sites)
		if lat.rangeX[n] {
			if x, isExpr := n.(ast.Expr); isExpr && lat.reaches(before, x) {
				sites = append(sites, n.Pos())
			}
		}
		ast.Inspect(n, func(m ast.Node) bool {
			if _, isLit := m.(*ast.FuncLit); isLit {
				return false
			}
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			name := calleeName(call)
			if !chargeCallNames[name] {
				return true
			}
			ok = false
			for _, arg := range call.Args {
				if lat.exprDerived(before, arg) {
					ok = true
					break
				}
			}
			if !ok {
				cands = append(cands, candidate{call, name})
			}
			return true
		})
	})
	if len(sites) == 0 {
		return // accessor never probes here: nothing to co-derive from
	}
	probeWithin := func(lo, hi token.Pos) bool {
		for _, p := range sites {
			if p >= lo && p < hi {
				return true
			}
		}
		return false
	}
	for _, c := range cands {
		if loop := enclosingLoop(fd, c.call.Pos()); loop != nil && probeWithin(loop.Pos(), loop.End()) {
			continue // lockstep probe-then-charge inside one loop
		}
		if dirs.allowed("chargeamount", c.call.Pos(), fd.Doc) {
			continue
		}
		pass.Reportf(c.call.Pos(),
			"charge call %s derives from no probed index: %s probes accounted cells elsewhere (PR 6 midpoint-chain shape — charge the positions actually probed)",
			c.name, fd.Name.Name)
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
