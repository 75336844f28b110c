package lint

import (
	"slices"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// DirectiveAnalyzer is the gate for the //repro: directive vocabulary.
// It rejects unknown verbs, //repro:allow waivers that name an unknown
// analyzer or omit the reason (a waiver without a reason is itself a
// finding — the whole point of the waiver policy is that every
// suppression is explained), and //repro:charges declarations without
// an argument (the argument documents which space, or "caller:<who>",
// so the accessor set stays reviewable).
//
// It also reports stale waivers: it requires every invariant analyzer,
// unions the WaiverUsage each returns (the set of //repro:allow
// positions that actually suppressed a finding), and flags any
// well-formed waiver nothing used. A stale waiver means the finding it
// suppressed has been fixed or was never real — leaving it in place
// would silently mask the next genuine finding at that line.
var DirectiveAnalyzer = &analysis.Analyzer{
	Name:     "reprodirective",
	Doc:      "//repro: directives must be well-formed; waivers must name a known analyzer, carry a reason, and still suppress something",
	Requires: invariants,
	Run:      runDirectiveCheck,
}

func runDirectiveCheck(pass *analysis.Pass) (interface{}, error) {
	idx := collectDirectives(pass)
	known := make([]string, len(invariants))
	for i, a := range invariants {
		known[i] = a.Name
	}
	slices.Sort(known)

	// Union the waiver positions every invariant analyzer reported
	// using. A reasoned waiver none of them used is stale.
	used := make(map[string]bool) // position strings, robust across passes
	for _, result := range pass.ResultOf {
		if usage, ok := result.(*WaiverUsage); ok && usage != nil {
			for p := range usage.Used {
				used[pass.Fset.Position(p).String()] = true
			}
		}
	}

	for _, d := range idx.all {
		switch d.verb {
		case verbAccounted, verbReadonly, verbScratch:
			// Marker verbs; arguments (free-form notes) are permitted.
		case verbCharges:
			if d.args == "" {
				pass.Reportf(d.pos, "//repro:charges needs an argument naming the charged space (or caller:<who>)")
			}
		case verbAllow:
			name, reason, _ := strings.Cut(d.args, " ")
			if name == "" {
				pass.Reportf(d.pos, "//repro:allow needs an analyzer name and a reason")
				continue
			}
			if !slices.Contains(known, name) {
				pass.Reportf(d.pos, "//repro:allow names unknown analyzer %q (known: %s)", name, strings.Join(known, ", "))
				continue
			}
			if strings.TrimSpace(reason) == "" {
				pass.Reportf(d.pos, "//repro:allow %s has no reason — every waiver must be explained", name)
				continue
			}
			if !used[pass.Fset.Position(d.pos).String()] {
				pass.Reportf(d.pos, "stale waiver: %s no longer reports anything this //repro:allow suppresses — delete it so it cannot mask a future finding", name)
			}
		default:
			pass.Reportf(d.pos, "unknown //repro: directive verb %q", d.verb)
		}
	}
	return nil, nil
}
