// Package flow is a small intraprocedural forward-dataflow engine over
// golang.org/x/tools/go/cfg, plus a package-local call graph for
// computing bottom-up call summaries. reprolint's damcharge,
// rlockpure, bracketflow and scratchescape analyzers all run on it, so
// they can express flow-sensitive facts — "this local is derived from
// a probed index on some path reaching this charge call", "a read lock
// may be held here" — that per-statement AST matching cannot.
//
// The engine is deliberately minimal: a client supplies a Lattice (an
// abstract state, a join, and a transfer function over CFG nodes) and
// gets back per-block fixpoint states it can replay node-by-node. The
// lattices used by the lint analyzers are finite (taint sets over a
// function's locals, small balance sets per bracket key), so the
// worklist terminates without widening.
//
// Soundness caveats shared by every client (documented once here,
// referenced from DESIGN.md):
//
//   - Function literals have their own CFGs; a node's transfer must not
//     descend into *ast.FuncLit subtrees. Clients that care about
//     closure bodies analyze them separately with a captured entry
//     state.
//   - The engine is intraprocedural; interprocedural facts arrive only
//     through Summaries, which covers static same-package calls. Calls
//     through interfaces, function values, or into other packages get
//     no summary and must be handled conservatively by the client.
//   - cfg.New treats every call as possibly returning (the analyzers
//     pass a mayReturn that believes panics only from the obvious
//     panic builtin), so states are joined over more paths than can
//     execute — may-analyses stay sound, must-analyses stay
//     conservative.
package flow

import (
	"go/ast"

	"golang.org/x/tools/go/cfg"
)

// Lattice defines one forward dataflow problem over abstract states of
// type S. Join and Equal must be pure; Transfer receives a private
// copy of the state and may mutate it in place before returning it.
type Lattice[S any] interface {
	// Entry is the abstract state at function entry.
	Entry() S
	// Clone returns an independent copy of s.
	Clone(s S) S
	// Join returns the least upper bound of two states reaching the
	// same block. It must not mutate either argument.
	Join(a, b S) S
	// Equal reports whether two states are equal (fixpoint test).
	Equal(a, b S) bool
	// Transfer applies the effect of one CFG node. n is a statement or
	// expression as stored in cfg.Block.Nodes; implementations must not
	// descend into *ast.FuncLit subtrees (closures have their own CFG).
	Transfer(s S, n ast.Node) S
}

// Result holds the fixpoint of one Forward run. In and Out are only
// populated for blocks reachable from the entry block.
type Result[S any] struct {
	G   *cfg.CFG
	In  map[*cfg.Block]S
	Out map[*cfg.Block]S
	lat Lattice[S]
}

// Forward runs a forward worklist over g's blocks to fixpoint.
func Forward[S any](g *cfg.CFG, lat Lattice[S]) *Result[S] {
	r := &Result[S]{
		G:   g,
		In:  make(map[*cfg.Block]S),
		Out: make(map[*cfg.Block]S),
		lat: lat,
	}
	if g == nil || len(g.Blocks) == 0 {
		return r
	}
	entry := g.Blocks[0]
	r.In[entry] = lat.Entry()
	work := []*cfg.Block{entry}
	queued := map[*cfg.Block]bool{entry: true}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		queued[b] = false
		s := lat.Clone(r.In[b])
		for _, n := range b.Nodes {
			s = lat.Transfer(s, n)
		}
		r.Out[b] = s
		for _, succ := range b.Succs {
			old, seen := r.In[succ]
			var next S
			if !seen {
				next = lat.Clone(s)
			} else {
				next = lat.Join(old, s)
			}
			if !seen || !lat.Equal(old, next) {
				r.In[succ] = next
				if !queued[succ] {
					queued[succ] = true
					work = append(work, succ)
				}
			}
		}
	}
	return r
}

// Walk replays the transfer function over every reachable block in CFG
// order, invoking visit with the abstract state in force immediately
// before each node. visit must not retain or mutate before; Transfer
// runs on a fresh clone per block, so reporting passes see exactly the
// states the fixpoint computed.
func (r *Result[S]) Walk(visit func(b *cfg.Block, n ast.Node, before S)) {
	for _, b := range r.G.Blocks {
		in, ok := r.In[b]
		if !ok {
			continue // unreachable
		}
		s := r.lat.Clone(in)
		for _, n := range b.Nodes {
			visit(b, n, s)
			s = r.lat.Transfer(s, n)
		}
	}
}

// ExitStates returns the Out state of every reachable block with no
// successors (returns and falls-off-the-end), the states a caller
// observes.
func (r *Result[S]) ExitStates() map[*cfg.Block]S {
	exits := make(map[*cfg.Block]S)
	for _, b := range r.G.Blocks {
		out, ok := r.Out[b]
		if !ok {
			continue
		}
		if len(b.Succs) == 0 {
			exits[b] = out
		}
	}
	return exits
}
