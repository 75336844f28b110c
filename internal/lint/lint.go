// Package lint is reprolint: a go/analysis suite that machine-checks
// the repo's prose invariants — the rules that have historically been
// enforced only by package comments and reviewer memory, and that have
// twice shipped silent bugs (the PR 6 synthetic midpoint chain that
// undercharged pointerless search ~1000x, and the PR 5
// mutation-under-RLock and DAM-accounting races).
//
// The suite has seven invariant analyzers plus a directive checker.
// Four are syntactic (v1, per-statement AST matching):
//
//   - damcharge: slices marked //repro:accounted may only be indexed,
//     sliced, or ranged over inside functions declared as charged
//     accessors with //repro:charges <space>. A charged accessor must
//     itself contain a charge call (a Read/Write on a dam space or a
//     call to another charged accessor) unless its directive argument
//     starts with "caller:", which documents that its callers charge.
//     Accounted storage passed to a same-package function stays
//     accounted in the parameter that receives it.
//   - rlockpure: between mu.RLock() and mu.RUnlock() (and between
//     BeginSharedReads/EndSharedReads, and throughout methods marked
//     //repro:readonly), receiver fields must not be written
//     non-atomically and known-mutating methods of the same package
//     must not be called on the receiver.
//   - bracketbalance: every RLock/Lock/Begin* acquire must have a
//     matching release on every control-flow path to a return; a
//     deferred release satisfies all paths including panics.
//   - durerr: in the durability packages (internal/wal, internal/snap,
//     internal/durable, internal/extmem, and the facade's
//     durability*.go files), a discarded error from
//     Write/Sync/Close/Truncate/Rename is a finding, whether dropped
//     in an expression statement or assigned to blank.
//
// Three are flow-sensitive (v2), built on the internal/lint/flow
// dataflow engine (forward worklist over go/cfg plus bottom-up
// call summaries over the package call graph):
//
//   - chargeamount: the value passed to a DAM charge call inside a
//     charged accessor must be derived from something that was
//     actually probed — an index or slice bound used on an accounted
//     slice, a length of one, or the result of a probing callee. A
//     charge amount conjured from arithmetic that never touched the
//     probed cells (the PR 6 midpoint-chain shape) is a finding.
//   - bracketflow: bracket balance (RLock/Lock/Begin*) tracked as
//     dataflow facts, catching what bracketbalance's per-acquire path
//     walk cannot: releases skipped on loop back edges (balance
//     accumulates) and same-package helpers whose net bracket effect
//     is nonzero (summaries debit/credit the caller's state).
//   - scratchescape: values derived from sync.Pool.Get or from fields
//     marked //repro:scratch must not outlive the call — not returned,
//     stored into non-scratch locations, sent on channels, captured by
//     goroutines, or passed to same-package callees whose summaries
//     say they leak their argument. Subsumes and replaces v1's
//     scratchalias (DESIGN.md scratch ownership rules 1-5).
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

// Suite returns the repo's custom invariant analyzers, including the
// directive checker.
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		DirectiveAnalyzer,
		DamchargeAnalyzer,
		ChargeamountAnalyzer,
		RlockpureAnalyzer,
		BracketAnalyzer,
		BracketflowAnalyzer,
		ScratchescapeAnalyzer,
		DurerrAnalyzer,
	}
}
