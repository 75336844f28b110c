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

// ScratchescapeAnalyzer is the flow-sensitive, cross-function successor
// of scratchalias: a value derived from sync.Pool.Get or from a field
// marked //repro:scratch must not outlive the call that produced it.
// Escapes flagged: returning a scratch-backed value, storing it into a
// location not itself scratch-owned, sending it on a channel, and
// capturing it in a closure that escapes (stored, returned, sent, or
// started as a goroutine — a deferred closure does not escape).
//
// Two upgrades over the retired v1:
//
//   - Flow-sensitive taint: reassigning a local to a fresh allocation
//     kills its taint, so "reuse scratch, then return a fresh copy
//     through the same variable" is clean where v1 false-positived;
//     taint reaching a return through a loop back edge is caught where
//     v1's single forward pass could miss it.
//   - Cross-function within the package: bottom-up call summaries
//     record, per declared function, which results are scratch-backed
//     or derived from which parameters, and which parameters the
//     callee stores beyond the call. Handing scratch to a same-package
//     callee that leaks it is a finding at the call site; a callee
//     returning its own pooled value taints the caller's result.
//
// Cross-package and dynamic calls have no summary and are assumed
// neither to retain arguments nor to return scratch (the v1 caveat,
// unchanged); the append builtin propagates taint from its arguments.
var ScratchescapeAnalyzer = &analysis.Analyzer{
	Name:       "scratchescape",
	Doc:        "pooled and //repro:scratch buffers must not escape (returned, stored, sent, or captured)",
	Requires:   []*analysis.Analyzer{ctrlflow.Analyzer},
	ResultType: waiverUsageType,
	Run:        runScratchescape,
}

// escMask is a small label set: bit 0 marks scratch-backed memory; bit
// i+1 marks "derived from parameter slot i" (slot 0 is the receiver,
// slots 1.. the declared parameters, capped at escMaxParams).
type escMask uint32

const (
	escScratch   escMask = 1
	escMaxParams         = 16
)

func paramBit(slot int) escMask {
	if slot < 0 || slot >= escMaxParams {
		return 0
	}
	return 1 << (slot + 1)
}

// escSummary is one function's bottom-up summary.
type escSummary struct {
	// ret holds, per result position, the labels that flow into it.
	ret []escMask
	// escapes is the union of parameter bits stored/sent/captured
	// beyond the callee's own frame (transitively).
	escapes escMask
}

func escSummaryEqual(a, b escSummary) bool {
	if a.escapes != b.escapes || len(a.ret) != len(b.ret) {
		return false
	}
	for i := range a.ret {
		if a.ret[i] != b.ret[i] {
			return false
		}
	}
	return true
}

func runScratchescape(pass *analysis.Pass) (interface{}, error) {
	dirs := collectDirectives(pass)
	scratch := markedFields(pass, verbScratch)
	cfgs := pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs)
	g := flow.PackageGraph(pass)

	ec := &escCtx{pass: pass, scratch: scratch, cfgs: cfgs, graph: g}

	// Phase 1: bottom-up summaries (no reporting).
	ec.summaries = flow.Summaries(g, escSummaryEqual,
		func(fn *types.Func, fd *ast.FuncDecl, get func(*types.Func) (escSummary, bool)) escSummary {
			ec.get = get
			return ec.analyze(fd, nil, nil)
		})
	ec.get = func(fn *types.Func) (escSummary, bool) { s, ok := ec.summaries[fn]; return s, ok }

	// Phase 2: re-run each function with reporting enabled.
	for _, fn := range g.Funcs() {
		fd := g.Decls[fn]
		ec.analyze(fd, dirs, fd.Doc)
	}
	return dirs.usage, nil
}

type escCtx struct {
	pass      *analysis.Pass
	scratch   map[types.Object]bool
	cfgs      *ctrlflow.CFGs
	graph     *flow.Graph
	summaries map[*types.Func]escSummary
	get       func(*types.Func) (escSummary, bool)
}

// escState maps labeled locals to their label masks.
type escState map[types.Object]escMask

type escLattice struct {
	ec *escCtx
	// params maps receiver/parameter objects to their slot bit.
	params map[types.Object]escMask
	// entry seeds non-param labels (closure captures).
	entry escState
}

func (l escLattice) Entry() escState {
	s := make(escState, len(l.params)+len(l.entry))
	for obj, bit := range l.params {
		s[obj] = bit
	}
	for obj, m := range l.entry {
		s[obj] |= m
	}
	return s
}

func (escLattice) Clone(s escState) escState {
	c := make(escState, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

func (l escLattice) Join(a, b escState) escState {
	j := l.Clone(a)
	for k, v := range b {
		j[k] |= v
	}
	return j
}

func (escLattice) Equal(a, b escState) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// labels computes the label mask of an expression in state s.
func (l escLattice) labels(s escState, e ast.Expr) escMask {
	ec := l.ec
	pass := ec.pass
	switch e := e.(type) {
	case nil:
		return 0
	case *ast.Ident:
		return s[pass.TypesInfo.Uses[e]]
	case *ast.ParenExpr:
		return l.labels(s, e.X)
	case *ast.StarExpr:
		return l.labels(s, e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return l.labels(s, e.X)
		}
		return 0
	case *ast.SelectorExpr:
		m := l.labels(s, e.X)
		if ec.scratch[pass.TypesInfo.Uses[e.Sel]] {
			m |= escScratch
		}
		return m
	case *ast.IndexExpr:
		return l.labels(s, e.X)
	case *ast.SliceExpr:
		return l.labels(s, e.X)
	case *ast.TypeAssertExpr:
		return l.labels(s, e.X)
	case *ast.CompositeLit:
		return 0 // fresh memory; element aliases are beyond v2's scope (as in v1)
	case *ast.FuncLit:
		// A closure carries the labels of everything it captures.
		return l.capturedMask(s, e)
	case *ast.CallExpr:
		return l.callLabels(s, e)
	case *ast.BinaryExpr:
		return 0 // arithmetic/comparison results are values, not aliases
	}
	return 0
}

// callLabels resolves a call's result labels: pool.Get is scratch, the
// append builtin aliases its arguments, and same-package callees
// translate their summary through the call's arguments. The mask of a
// multi-result call is the union (assignTo splits by position when a
// summary is available).
func (l escLattice) callLabels(s escState, call *ast.CallExpr) escMask {
	masks := l.callResultMasks(s, call)
	var m escMask
	for _, rm := range masks {
		m |= rm
	}
	return m
}

// callResultMasks returns per-result labels for a call (a single-entry
// slice for single-result calls and unknown callees).
func (l escLattice) callResultMasks(s escState, call *ast.CallExpr) []escMask {
	ec := l.ec
	pass := ec.pass
	if isPoolGet(pass, call) {
		return []escMask{escScratch}
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			if id.Name == "append" {
				var m escMask
				for _, a := range call.Args {
					m |= l.labels(s, a)
				}
				return []escMask{m}
			}
			return []escMask{0}
		}
	}
	fn := flow.StaticCallee(pass.TypesInfo, call)
	if fn == nil {
		return []escMask{0}
	}
	sum, ok := ec.get(fn)
	if !ok {
		return []escMask{0} // cross-package or not yet computed (cycle bottom)
	}
	argMasks := l.argSlotMasks(s, call, fn)
	out := make([]escMask, len(sum.ret))
	for i, rm := range sum.ret {
		out[i] = translateMask(rm, argMasks)
	}
	if len(out) == 0 {
		out = []escMask{0}
	}
	return out
}

// argSlotMasks computes the label mask of each argument slot at a call
// site (slot 0 = receiver for method calls).
func (l escLattice) argSlotMasks(s escState, call *ast.CallExpr, fn *types.Func) []escMask {
	var slots []escMask
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && fn.Signature().Recv() != nil {
		slots = append(slots, l.labels(s, sel.X))
	} else {
		slots = append(slots, 0)
	}
	for _, a := range call.Args {
		slots = append(slots, l.labels(s, a))
	}
	return slots
}

// translateMask rewrites a callee-side mask into caller labels: the
// scratch bit passes through (the callee's own pooled memory is
// scratch for the caller too); parameter bits become the labels of the
// corresponding argument.
func translateMask(m escMask, argMasks []escMask) escMask {
	var out escMask
	if m&escScratch != 0 {
		out |= escScratch
	}
	for slot := 0; slot < escMaxParams; slot++ {
		if m&paramBit(slot) != 0 && slot < len(argMasks) {
			out |= argMasks[slot]
		}
	}
	return out
}

// capturedMask is the union of labels of free variables the closure
// references.
func (l escLattice) capturedMask(s escState, fl *ast.FuncLit) escMask {
	var m escMask
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := l.ec.pass.TypesInfo.Uses[id]
		if obj == nil {
			return true
		}
		if obj.Pos() < fl.Pos() || obj.Pos() >= fl.End() {
			m |= s[obj]
		}
		return true
	})
	return m
}

// scratchRooted reports whether an LHS chain stores into scratch-owned
// memory: a //repro:scratch field anywhere in the chain, or a base
// whose label carries the scratch bit (fields of a pooled object are
// pooled memory).
func (l escLattice) scratchRooted(s escState, e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			if l.ec.scratch[l.ec.pass.TypesInfo.Uses[x.Sel]] {
				return true
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return s[l.ec.pass.TypesInfo.Uses[x]]&escScratch != 0
		default:
			return false
		}
	}
}

// baseMask is the label mask of the base identifier of an LHS chain
// (s.buf, h[0], *p.field → s, h, p). Storing a value into a location
// rooted at object X cannot extend the value's lifetime beyond X's, so
// stores subtract the base's own bits: sc.buf = sc.buf[:0] mutates
// sc's state, it does not leak sc.
func (l escLattice) baseMask(s escState, e ast.Expr) escMask {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return s[l.ec.pass.TypesInfo.Uses[x]]
		default:
			return 0
		}
	}
}

func (l escLattice) Transfer(s escState, n ast.Node) escState {
	pass := l.ec.pass
	switch n := n.(type) {
	case *ast.AssignStmt:
		if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
			// x, y := f(): split per-result labels when known.
			var masks []escMask
			if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok {
				masks = l.callResultMasks(s, call)
			} else if ta, ok := ast.Unparen(n.Rhs[0]).(*ast.TypeAssertExpr); ok {
				masks = []escMask{l.labels(s, ta.X)}
			}
			for i, lhs := range n.Lhs {
				var m escMask
				if len(masks) == len(n.Lhs) {
					m = masks[i]
				} else if len(masks) == 1 {
					m = masks[0]
				}
				l.assignTo(s, lhs, m)
			}
			return s
		}
		for i, rhs := range n.Rhs {
			if i >= len(n.Lhs) {
				break
			}
			m := l.labels(s, rhs)
			if !aliasLike(pass.TypesInfo.TypeOf(rhs)) {
				m = 0 // a basic-typed copy cannot alias scratch
			}
			if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
				// Op-assigns only mutate in place; keep existing labels.
				if id, ok := n.Lhs[i].(*ast.Ident); ok {
					if obj := identObj(pass, id); obj != nil {
						s[obj] |= m
					}
					continue
				}
			}
			l.assignTo(s, n.Lhs[i], m)
		}
	case *ast.ValueSpec:
		for i, name := range n.Names {
			var m escMask
			if i < len(n.Values) {
				if aliasLike(pass.TypesInfo.TypeOf(n.Values[i])) {
					m = l.labels(s, n.Values[i])
				}
			} else if len(n.Values) == 1 {
				if call, ok := ast.Unparen(n.Values[0]).(*ast.CallExpr); ok {
					masks := l.callResultMasks(s, call)
					if i < len(masks) {
						m = masks[i]
					}
				}
			}
			l.assignTo(s, name, m)
		}
	}
	return s
}

// assignTo performs a strong update on ident targets; selector/index
// targets do not change local state (escape checking happens in the
// reporting walk).
func (l escLattice) assignTo(s escState, lhs ast.Expr, m escMask) {
	id, ok := lhs.(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := identObj(l.ec.pass, id)
	if obj == nil {
		return
	}
	// Parameters keep their slot bit: the caller's alias still exists
	// even after the callee rebinds the name.
	base := l.params[obj]
	if m == 0 && base == 0 {
		delete(s, obj)
		return
	}
	s[obj] = m | base
}

func identObj(pass *analysis.Pass, id *ast.Ident) types.Object {
	if obj := pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return pass.TypesInfo.Uses[id]
}

// analyze runs the escape flow over one declared function: it returns
// the function's summary and, when dirs is non-nil, reports scratch
// escapes. Closure bodies are analyzed recursively with their captured
// entry state.
func (ec *escCtx) analyze(fd *ast.FuncDecl, dirs *dirIndex, doc *ast.CommentGroup) escSummary {
	params := make(map[types.Object]escMask)
	slot := 0
	addParam := func(names []*ast.Ident) {
		for _, name := range names {
			if obj := ec.pass.TypesInfo.Defs[name]; obj != nil && aliasLike(obj.Type()) {
				params[obj] = paramBit(slot)
			}
			slot++
		}
	}
	if fd.Recv != nil && len(fd.Recv.List) > 0 && len(fd.Recv.List[0].Names) > 0 {
		addParam(fd.Recv.List[0].Names)
	} else {
		slot++ // keep slot 0 reserved for the receiver
	}
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			if len(field.Names) == 0 {
				slot++ // unnamed parameter still occupies a slot
				continue
			}
			addParam(field.Names)
		}
	}
	nresults := 0
	if fd.Type.Results != nil {
		for _, field := range fd.Type.Results.List {
			if len(field.Names) == 0 {
				nresults++
			} else {
				nresults += len(field.Names)
			}
		}
	}
	g := ec.cfgs.FuncDecl(fd)
	lat := escLattice{ec: ec, params: params}
	return ec.analyzeCFG(g, lat, fd.Body, nresults, dirs, doc)
}

// analyzeCFG is the shared body of analyze (declarations) and the
// nested closure analysis.
func (ec *escCtx) analyzeCFG(g *cfg.CFG, lat escLattice, body *ast.BlockStmt, nresults int, dirs *dirIndex, doc *ast.CommentGroup) escSummary {
	sum := escSummary{ret: make([]escMask, nresults)}
	if g == nil {
		return sum
	}
	report := func(n ast.Node, format string, args ...any) {
		if dirs == nil {
			return
		}
		if dirs.allowed("scratchescape", n.Pos(), doc) {
			return
		}
		ec.pass.Reportf(n.Pos(), format, args...)
	}
	res := flow.Forward[escState](g, lat)
	res.Walk(func(_ *cfg.Block, n ast.Node, before escState) {
		ec.visitNode(lat, before, n, &sum, report, dirs, doc)
	})
	return sum
}

// visitNode inspects one CFG node for escape events against the state
// in force before it.
func (ec *escCtx) visitNode(lat escLattice, s escState, n ast.Node, sum *escSummary, report func(ast.Node, string, ...any), dirs *dirIndex, doc *ast.CommentGroup) {
	pass := ec.pass
	record := func(n ast.Node, m escMask, format string, args ...any) {
		if m&escScratch != 0 {
			report(n, format, args...)
		}
		sum.escapes |= m &^ escScratch
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		for i, rhs := range n.Rhs {
			if i >= len(n.Lhs) {
				break
			}
			lhs := n.Lhs[i]
			if _, isIdent := lhs.(*ast.Ident); isIdent {
				continue
			}
			m := lat.labels(s, rhs) &^ lat.baseMask(s, lhs)
			if !aliasLike(pass.TypesInfo.TypeOf(rhs)) {
				continue
			}
			if m != 0 && !lat.scratchRooted(s, lhs) {
				record(n, m, "stores scratch-backed value in %s (scratch must not outlive the call; DESIGN.md scratch rules)",
					types.ExprString(lhs))
			}
		}
	case *ast.ReturnStmt:
		for i, res := range n.Results {
			m := lat.labels(s, res)
			if !aliasLike(pass.TypesInfo.TypeOf(res)) && !isFuncLit(res) {
				continue
			}
			if i < len(sum.ret) {
				sum.ret[i] |= m
			}
			if m&escScratch != 0 {
				report(n, "returns scratch-backed value %s (scratch is only valid inside the call that produced it)",
					types.ExprString(res))
			}
		}
	case *ast.SendStmt:
		m := lat.labels(s, n.Value)
		if aliasLike(pass.TypesInfo.TypeOf(n.Value)) && m != 0 {
			record(n, m, "sends scratch-backed value %s on a channel", types.ExprString(n.Value))
		}
	case *ast.GoStmt:
		// A goroutine outlives the frame: captured or passed scratch
		// escapes.
		var m escMask
		if fl, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
			m |= lat.capturedMask(s, fl)
		}
		for _, a := range n.Call.Args {
			m |= lat.labels(s, a)
		}
		if m != 0 {
			record(n, m, "goroutine may outlive scratch-backed value it captures (scratch must not outlive the call)")
		}
	case *ast.DeferStmt:
		// Deferred closures run before the frame is released: not an
		// escape. Analyzed below for their internal stores.
	}
	// Call-site effects: passing labeled values to a same-package
	// callee whose summary stores them beyond the call.
	ast.Inspect(n, func(m ast.Node) bool {
		if _, isLit := m.(*ast.FuncLit); isLit {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := flow.StaticCallee(pass.TypesInfo, call)
		if fn == nil {
			return true
		}
		cs, ok := ec.get(fn)
		if !ok || cs.escapes == 0 {
			return true
		}
		argMasks := lat.argSlotMasks(s, call, fn)
		leaked := translateMask(cs.escapes, argMasks)
		record(call, leaked, "passes scratch-backed value to %s, which stores it beyond the call (scratch must not outlive the call)",
			fn.Name())
		return true
	})
	// Closure bodies: analyze with the captured environment; a closure
	// keeping scratch strictly inside itself is fine, so only its own
	// events report.
	ast.Inspect(n, func(m ast.Node) bool {
		fl, ok := m.(*ast.FuncLit)
		if !ok {
			return true
		}
		ec.analyzeFuncLit(fl, lat, s, sum, dirs, doc)
		return false // analyzeFuncLit recurses into nested literals itself
	})
}

func (ec *escCtx) analyzeFuncLit(fl *ast.FuncLit, outer escLattice, s escState, sum *escSummary, dirs *dirIndex, doc *ast.CommentGroup) {
	g := ec.cfgs.FuncLit(fl)
	if g == nil {
		return
	}
	entry := make(escState)
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := ec.pass.TypesInfo.Uses[id]; obj != nil {
				if obj.Pos() < fl.Pos() || obj.Pos() >= fl.End() {
					if m := s[obj]; m != 0 {
						entry[obj] = m
					}
				}
			}
		}
		return true
	})
	lat := escLattice{ec: ec, params: map[types.Object]escMask{}, entry: entry}
	// Results of a closure flow to its (local) caller, not out of the
	// enclosing function; returning scratch from a closure is only an
	// escape if the closure itself escapes, which the closure's label
	// mask already tracks. Pass nresults=0 so closure returns are not
	// findings on their own.
	nested := ec.analyzeCFG(g, lat, fl.Body, 0, dirs, doc)
	// Stores inside the closure that leak captured parameters count
	// against the enclosing function's summary.
	sum.escapes |= nested.escapes
}

// isPoolGet reports whether call is (*sync.Pool).Get, directly or
// under a type assertion.
func isPoolGet(pass *analysis.Pass, e ast.Expr) bool {
	if ta, ok := e.(*ast.TypeAssertExpr); ok {
		e = ta.X
	}
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Get" {
		return false
	}
	t := pass.TypesInfo.TypeOf(sel.X)
	if t == nil {
		return false
	}
	return strings.HasSuffix(strings.TrimPrefix(types.TypeString(t, nil), "*"), "sync.Pool")
}

// aliasLike reports whether t can alias scratch memory; copies that
// hold no reference cannot — a basic-typed value (an int pulled out of
// a pooled struct), or a struct or array made of nothing else (a cell
// copied out of a scratch slab).
func aliasLike(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Slice, *types.Pointer, *types.Map, *types.Chan, *types.Interface, *types.Signature:
		return true
	case *types.Array:
		return aliasLike(u.Elem())
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if aliasLike(u.Field(i).Type()) {
				return true
			}
		}
	}
	return false
}

func isFuncLit(e ast.Expr) bool {
	_, ok := ast.Unparen(e).(*ast.FuncLit)
	return ok
}
