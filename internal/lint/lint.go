// Package lint is reprolint: a go/analysis suite that machine-checks
// the repo's prose invariants — the rules that have historically been
// enforced only by package comments and reviewer memory, and that have
// twice shipped silent bugs (the PR 6 synthetic midpoint chain that
// undercharged pointerless search ~1000x, and the PR 5
// mutation-under-RLock and DAM-accounting races).
//
// The suite has five invariant analyzers plus a directive checker.
// Four are flow-sensitive, built on the internal/lint/flow dataflow
// engine (forward worklist over go/cfg plus bottom-up call summaries
// over the package call graph); durerr is syntactic:
//
//   - damcharge: slices marked //repro:accounted — and the parameters
//     of same-package functions they are handed to — may only be
//     indexed, ranged over, copied, or appended to inside functions
//     declared as charged accessors with //repro:charges <space>. A
//     charged accessor must itself contain a charge call unless its
//     directive argument starts with "caller:", and the value each of
//     its charge calls is passed must derive from what it actually
//     probed: a charge amount conjured from arithmetic that never
//     touched the probed cells (the synthetic midpoint-chain shape) is a
//     finding.
//   - rlockpure: wherever the read side of a lock (RLock) or a
//     shared-read epoch (BeginSharedReads) may be held, and throughout
//     methods marked //repro:readonly, receiver fields must not be
//     written non-atomically and same-package methods that mutate the
//     receiver must not be called on it. Regions are bracketflow's
//     balance dataflow, with deferred releases held to the exit.
//   - bracketflow: every RLock/Lock/Begin* acquire is released on every
//     path to a return (a deferred release covers all paths, panics
//     included), a loop back edge never re-acquires a held bracket, and
//     same-package helpers whose net bracket effect is nonzero are
//     summarized into their callers.
//   - scratchescape: values derived from sync.Pool.Get or from fields
//     marked //repro:scratch must not outlive the call — not returned,
//     stored into non-scratch locations, sent on channels, captured by
//     goroutines, or passed to same-package callees whose summaries
//     say they leak their argument (DESIGN.md scratch ownership rules
//     1-5).
//   - durerr: in the durability packages (internal/wal, internal/snap,
//     internal/durable, internal/extmem, and the facade's
//     durability*.go files), a discarded error from
//     Write/Sync/Close/Truncate/Rename is a finding, whether dropped
//     in an expression statement or assigned to blank.
//
// Intentional exceptions are waived in place with
//
//	//repro:allow <analyzer> <reason>
//
// on the finding's line, the line above it, or the doc comment of the
// enclosing function. A waiver must carry a reason: reprodirective
// (the directive checker) rejects reason-less waivers, unknown
// analyzer names, and malformed directives, and — because every
// invariant analyzer reports which waivers it actually consulted —
// flags stale waivers whose analyzer no longer fires at that site, so
// every suppression in the tree is both explained and live.
package lint

import "golang.org/x/tools/go/analysis"

// invariants are the suite's invariant analyzers. Their names are the
// vocabulary //repro:allow may waive, and reprodirective requires them
// all to find stale waivers. A retired analyzer (bracketbalance,
// chargeamount and scratchalias folded into their successors) is simply
// an unknown name, so its old waivers must be renamed.
var invariants = []*analysis.Analyzer{
	DamchargeAnalyzer,
	RlockpureAnalyzer,
	BracketflowAnalyzer,
	ScratchescapeAnalyzer,
	DurerrAnalyzer,
}

// Suite returns the repo's custom invariant analyzers, including the
// directive checker.
func Suite() []*analysis.Analyzer {
	return append([]*analysis.Analyzer{DirectiveAnalyzer}, invariants...)
}
