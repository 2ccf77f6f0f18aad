package simtime

import "time"

// Backoff carries a line-scoped directive: the sleep on the next line
// is sanctioned.
func Backoff() {
	//moc:allow walltime fixture: deliberate raw sleep with a documented reason
	time.Sleep(time.Millisecond)
}

// Stamp is clock-bound on purpose; the doc-comment directive covers
// the whole body.
//
//moc:allow walltime fixture: the whole helper is clock-bound by design
func Stamp() int64 {
	return time.Now().UnixNano()
}
