package lint

import (
	"go/ast"
	"go/types"
	"maps"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/cfg"

	"repro/internal/lint/flow"
)

// BracketflowAnalyzer enforces bracket balance — RLock/RUnlock,
// Lock/Unlock, Begin*/End* — as dataflow facts: per bracket key (the
// receiver expression plus its release name, so s.mu.RLock() paired
// with other.mu.RUnlock() does not balance), the set of balances
// possible at each program point. It reports:
//
//   - Leaks at return: a key that may still be held at some exit, such
//     as an early return that skips the release.
//   - Loop leaks: an acquire whose release is skipped on the back edge
//     accumulates balance; the analyzer reports the acquire the moment
//     a prior balance may still be outstanding.
//   - Conditionally-acquiring helpers: a same-package helper whose net
//     bracket effect is not zero gets a bottom-up summary (the set of
//     possible deltas per bracket key, rewritten to the caller's
//     receiver expression at the call site), so a caller that fails to
//     release on some path is caught even though the acquire is hidden
//     inside the helper.
//
// A deferred release — direct or inside a deferred closure — is
// credited where the defer is registered, since it covers every
// subsequent path including panics. The call of a go statement runs in
// another goroutine, so it acquires, releases and summarizes nothing in
// this frame: a lock handed to a goroutine is still held here, and the
// hand-off needs a waiver. Functions that are themselves bracket
// machinery (named Begin*, End*, Lock, Unlock, RLock, RUnlock) are
// skipped and get no summary: a call to them IS the primitive
// acquire/release. Net-negative functions (release-only helpers) are
// not reported — over-release is a run-time panic the tests catch —
// but their summaries still debit callers.
var BracketflowAnalyzer = &analysis.Analyzer{
	Name:       "bracketflow",
	Doc:        "bracket balance (RLock/Lock/Begin*) tracked as dataflow facts across loops and helper calls",
	Requires:   []*analysis.Analyzer{ctrlflow.Analyzer},
	ResultType: waiverUsageType,
	Run:        runBracketflow,
}

// balSet is a set of possible balances for one bracket key, encoded as
// a bitmask: bit 0 ↔ balance -1 (clamped floor), bits 1..4 ↔ balances
// 0..3, bit 5 ↔ "4 or more" (clamped ceiling, only reachable in
// runaway loops).
type balSet uint8

const (
	balFloor balSet = 1 << 0 // -1 or less
	balZero  balSet = 1 << 1
	balCeil  balSet = 1 << 5 // +4 or more
	balPos   balSet = 0b111100
)

// held reports whether the set admits a positive balance.
func (b balSet) held() bool { return b&(balPos|balCeil) != 0 }

// shift moves every balance in the set by delta, clamping at the
// floor and ceiling.
func (b balSet) shift(delta int) balSet {
	var out balSet
	for bit := 0; bit < 6; bit++ {
		if b&(1<<bit) == 0 {
			continue
		}
		n := bit + delta
		switch {
		case n <= 0:
			out |= balFloor
		case n >= 5:
			out |= balCeil
		default:
			out |= 1 << n
		}
	}
	return out
}

// bkey identifies one bracket: the receiver expression as printed
// (s.mu) plus the release name (RUnlock), so s.mu.RLock and
// s.other.RLock stay distinct.
type bkey struct {
	recv    string
	release string
}

// bfState maps bracket keys to possible balances. Missing key ≡
// {balance 0}.
type bfState map[bkey]balSet

// bfSummary is a helper's net bracket effect on keys rooted at its
// receiver or parameters: slot → path remainder → release → delta set
// (as a balSet around zero).
type bfSummary map[bfSumKey]balSet

type bfSumKey struct {
	slot    int    // 0 = receiver, 1.. = parameters
	path    string // selector remainder, e.g. ".mu"
	release string
}

// releaseFor maps an acquire call name to its release; Begin* pairs
// generically with End*.
func releaseFor(name string) (string, bool) {
	switch name {
	case "RLock":
		return "RUnlock", true
	case "Lock":
		return "Unlock", true
	}
	if rest, ok := strings.CutPrefix(name, "Begin"); ok && rest != "" {
		return "End" + rest, true
	}
	return "", false
}

// isReleaseName reports whether name closes some bracket.
func isReleaseName(name string) bool {
	if name == "Unlock" || name == "RUnlock" {
		return true
	}
	rest, ok := strings.CutPrefix(name, "End")
	return ok && rest != ""
}

// bracketMachinery reports whether a function is itself part of the
// bracket vocabulary; calls to it are primitives, and its own
// (deliberate) imbalance is not a finding.
func bracketMachinery(name string) bool {
	_, isAcquire := releaseFor(name)
	return isAcquire || isReleaseName(name)
}

// bracketCall matches x.<name>() calls; it returns the receiver
// expression string.
func bracketCall(c *ast.CallExpr) (name, recvStr string, ok bool) {
	sel, ok := c.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	return sel.Sel.Name, types.ExprString(sel.X), true
}

func runBracketflow(pass *analysis.Pass) (interface{}, error) {
	dirs := collectDirectives(pass)
	bc, g := newBracketCtx(pass)
	for _, fn := range g.Funcs() {
		if fd := g.Decls[fn]; !bracketMachinery(fd.Name.Name) {
			bc.check(fd, dirs)
		}
	}
	return dirs.usage, nil
}

type bfCtx struct {
	pass      *analysis.Pass
	cfgs      *ctrlflow.CFGs
	summaries map[*types.Func]bfSummary
	get       func(*types.Func) (bfSummary, bool)
}

// newBracketCtx computes the package's bottom-up bracket summaries: the
// net deltas of every non-machinery function on keys rooted at its
// receiver or parameters.
func newBracketCtx(pass *analysis.Pass) (*bfCtx, *flow.Graph) {
	bc := &bfCtx{pass: pass, cfgs: pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs)}
	g := flow.PackageGraph(pass)
	bc.summaries = flow.Summaries(g, maps.Equal[bfSummary, bfSummary],
		func(fn *types.Func, fd *ast.FuncDecl, get func(*types.Func) (bfSummary, bool)) bfSummary {
			if bracketMachinery(fd.Name.Name) {
				return bfSummary{}
			}
			bc.get = get
			return bc.summarize(fd)
		})
	bc.get = func(fn *types.Func) (bfSummary, bool) { s, ok := bc.summaries[fn]; return s, ok }
	return bc, g
}

// bfLattice is the balance dataflow. With holdDeferred, deferred calls
// change nothing where they are registered — the bracket stays held
// until the function returns — which is the view rlockpure's read
// regions need; bracketflow credits them at registration.
type bfLattice struct {
	bc           *bfCtx
	holdDeferred bool
}

func (bfLattice) Entry() bfState { return bfState{} }

func (bfLattice) Clone(s bfState) bfState { return maps.Clone(s) }

func (l bfLattice) Join(a, b bfState) bfState {
	j := l.Clone(a)
	for k, v := range b {
		if cur, ok := j[k]; ok {
			j[k] = cur | v
		} else {
			j[k] = balZero | v // absent ≡ {0}
		}
	}
	for k, v := range j {
		if _, ok := b[k]; !ok {
			j[k] = v | balZero
		}
	}
	return j
}

func (bfLattice) Equal(a, b bfState) bool { return maps.Equal(a, b) }

func (s bfState) get(k bkey) balSet {
	if v, ok := s[k]; ok {
		return v
	}
	return balZero
}

// apply shifts key k by every delta in deltas (a balSet around zero:
// balZero means "no change possible", bit 2 means "+1 possible", the
// floor bit means "-1 possible").
func (s bfState) apply(k bkey, deltas balSet) {
	cur := s.get(k)
	var out balSet
	for bit := 0; bit < 6; bit++ {
		if deltas&(1<<bit) == 0 {
			continue
		}
		out |= cur.shift(bit - 1)
	}
	if out != 0 {
		s[k] = out
	}
}

// events walks one CFG node (closures excluded — they have their own
// frames) and reports its acquires, releases, and callee summaries in
// syntactic order, each summary delta already rewritten to a
// caller-side key.
func (l bfLattice) events(n ast.Node,
	onAcquire func(k bkey, call *ast.CallExpr),
	onRelease func(k bkey),
	onSummary func(k bkey, deltas balSet, call *ast.CallExpr),
) {
	var visit func(m ast.Node, inDefer bool)
	visit = func(m ast.Node, inDefer bool) {
		ast.Inspect(m, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.FuncLit:
				return false
			case *ast.DeferStmt:
				if l.holdDeferred {
					return false
				}
				// The deferred call's releases are credited here; a
				// deferred closure's releases too. Acquire-in-defer is
				// nonsense the event order surfaces naturally.
				visit(x.Call, true)
				if fl, ok := x.Call.Fun.(*ast.FuncLit); ok {
					visit(fl.Body, true)
				}
				return false
			case *ast.GoStmt:
				// The call runs in the spawned goroutine; only its
				// operands are evaluated in this frame.
				visit(x.Call.Fun, inDefer)
				for _, arg := range x.Call.Args {
					visit(arg, inDefer)
				}
				return false
			case *ast.CallExpr:
				if name, recv, ok := bracketCall(x); ok {
					if release, isAcquire := releaseFor(name); isAcquire {
						if !inDefer {
							onAcquire(bkey{recv, release}, x)
						}
						return true
					}
					if isReleaseName(name) {
						onRelease(bkey{recv, name})
						return true
					}
				}
				// Non-bracket call (method or plain function): apply the
				// callee's net-delta summary if one exists.
				if fn := flow.StaticCallee(l.bc.pass.TypesInfo, x); fn != nil {
					sum, _ := l.bc.get(fn)
					for sk, deltas := range sum {
						if k, ok := instantiate(sk, x, fn); ok {
							onSummary(k, deltas, x)
						}
					}
				}
				return true
			}
			return true
		})
	}
	visit(n, false)
}

// instantiate rewrites a summary key to a caller-side bracket key
// through the call's receiver/argument expressions; ok is false when
// the slot has no printable expression at this call site.
func instantiate(k bfSumKey, call *ast.CallExpr, fn *types.Func) (bkey, bool) {
	var base ast.Expr
	if k.slot == 0 {
		sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !isSel || fn.Signature().Recv() == nil {
			return bkey{}, false
		}
		base = sel.X
	} else {
		if k.slot-1 >= len(call.Args) {
			return bkey{}, false
		}
		base = call.Args[k.slot-1]
	}
	return bkey{types.ExprString(base) + k.path, k.release}, true
}

func (l bfLattice) Transfer(s bfState, n ast.Node) bfState {
	l.events(n,
		func(k bkey, _ *ast.CallExpr) { s[k] = s.get(k).shift(1) },
		func(k bkey) { s[k] = s.get(k).shift(-1) },
		func(k bkey, deltas balSet, _ *ast.CallExpr) { s.apply(k, deltas) },
	)
	return s
}

// summarize computes a function's net bracket deltas on keys rooted at
// its receiver or parameters. Keys rooted at locals cannot outlive the
// frame and are dropped (their leaks are reported by check).
func (bc *bfCtx) summarize(fd *ast.FuncDecl) bfSummary {
	g := bc.cfgs.FuncDecl(fd)
	if g == nil {
		return bfSummary{}
	}
	res := flow.Forward[bfState](g, bfLattice{bc: bc})
	slots := paramSlots(fd)
	sum := bfSummary{}
	var tracked []map[bfSumKey]bool // per exit
	for _, exit := range res.ExitStates() {
		at := make(map[bfSumKey]bool)
		for k, v := range exit {
			base, path := splitRecv(k.recv)
			if slot, ok := slots[base]; ok {
				sk := bfSumKey{slot, path, k.release}
				at[sk] = true
				if v != balZero {
					sum[sk] |= v
				}
			}
		}
		tracked = append(tracked, at)
	}
	// A key imbalanced at one exit but untracked (≡ balance 0) at
	// another must include the zero delta.
	for sk := range sum {
		for _, at := range tracked {
			if !at[sk] {
				sum[sk] |= balZero
			}
		}
	}
	return sum
}

// paramSlots maps receiver/parameter names to their slot index
// (receiver = 0, parameters from 1).
func paramSlots(fd *ast.FuncDecl) map[string]int {
	slots := make(map[string]int)
	if fd.Recv != nil && len(fd.Recv.List) > 0 && len(fd.Recv.List[0].Names) > 0 {
		slots[fd.Recv.List[0].Names[0].Name] = 0
	}
	slot := 1
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			if len(field.Names) == 0 {
				slot++
				continue
			}
			for _, name := range field.Names {
				slots[name.Name] = slot
				slot++
			}
		}
	}
	return slots
}

// splitRecv splits a printed receiver expression into its base
// identifier and the selector remainder: "s.mu" → ("s", ".mu").
func splitRecv(recv string) (base, path string) {
	if i := strings.IndexByte(recv, '.'); i >= 0 {
		return recv[:i], recv[i:]
	}
	return recv, ""
}

// check reports bracket-balance findings for one function.
func (bc *bfCtx) check(fd *ast.FuncDecl, dirs *dirIndex) {
	g := bc.cfgs.FuncDecl(fd)
	if g == nil {
		return
	}
	res := flow.Forward[bfState](g, bfLattice{bc: bc})

	// First acquire-ish site per key, for placing exit findings.
	firstSite := make(map[bkey]*ast.CallExpr)
	reported := make(map[bkey]bool)
	report := func(k bkey, call *ast.CallExpr, format string, args ...any) {
		if call == nil || reported[k] {
			return
		}
		if dirs.allowed("bracketflow", call.Pos(), fd.Doc) {
			reported[k] = true // waived counts as handled
			return
		}
		reported[k] = true
		bc.pass.Reportf(call.Pos(), format, args...)
	}

	lat := bfLattice{bc: bc}
	res.Walk(func(_ *cfg.Block, n ast.Node, before bfState) {
		// Walk forbids mutating before; replay this node's events on a
		// private copy so a second acquire within the same node still
		// sees the first.
		local := lat.Clone(before)
		lat.events(n,
			func(k bkey, call *ast.CallExpr) {
				if firstSite[k] == nil {
					firstSite[k] = call
				}
				if local.get(k).held() {
					report(k, call,
						"%s may be re-acquired while a previous acquire is still unreleased (missing release on a loop back edge?)",
						k.recv)
				}
				local[k] = local.get(k).shift(1)
			},
			func(k bkey) { local[k] = local.get(k).shift(-1) },
			func(k bkey, deltas balSet, call *ast.CallExpr) {
				if deltas.held() && firstSite[k] == nil {
					firstSite[k] = call
				}
				local.apply(k, deltas)
			},
		)
	})

	// Exit check: any key that may still be positive at some exit.
	for _, exit := range res.ExitStates() {
		for k, v := range exit {
			if !v.held() {
				continue
			}
			report(k, firstSite[k],
				"%s may still be held at return (%s missing on some path; if this helper hands the bracket to its caller, waive with //repro:allow bracketflow <reason>)",
				k.recv, k.release)
		}
	}
}
