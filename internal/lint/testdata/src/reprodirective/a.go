// Package reprodirective exercises the directive syntax checker.
// Findings land on the directive comments themselves, so the
// expectations use the harness's want-above form from the next line.
package reprodirective

type level struct {
	//repro:accounted
	data []uint64
	//repro:frozen
	gen uint64 // want-above `unknown //repro: directive verb "frozen"`
}

//repro:charges level.spc
func (l *level) ok(i int) uint64 { return l.data[i] }

//repro:charges
func (l *level) bad(i int) uint64 { return l.data[i] } // want-above `//repro:charges needs an argument naming the charged space`

// The three allow shapes: well-formed, unknown analyzer, missing
// reason.
func (l *level) waivers(i int) uint64 {
	//repro:allow damcharge recovery path, spaces not constructed yet
	a := l.data[i]
	//repro:allow speling this analyzer does not exist
	b := l.data[i+1] // want-above `names unknown analyzer "speling"`
	//repro:allow durerr
	c := l.data[i+2] // want-above `//repro:allow durerr has no reason`
	return a + b + c
}

// staleWaiver carries a well-formed waiver for a finding that no
// longer exists: nothing in this function trips bracketflow, so the
// waiver is dead weight that could mask a future finding.
func (l *level) staleWaiver(i int) uint64 {
	//repro:allow bracketflow locking order fixed in the epoch rewrite
	return l.data[i] // want-above `stale waiver: bracketflow no longer reports anything`
}

// retired names analyzers folded into their successors (bracketflow,
// damcharge): they are unknown now, so their old waivers must be
// renamed.
func (l *level) retired(i int) uint64 {
	//repro:allow bracketbalance ownership transfers to the drain goroutine
	a := l.data[i] // want-above `names unknown analyzer "bracketbalance"`
	//repro:allow chargeamount amortized debit settled by the rebuild
	b := l.data[i+1] // want-above `names unknown analyzer "chargeamount"`
	return a + b
}
