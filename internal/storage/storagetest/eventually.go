package storagetest

import "time"

// Eventually polls cond every step of real time until it returns true
// or timeout elapses, reporting whether the condition was met. It is
// the module's one blessed busy-wait: tests and examples that wait for
// a background daemon (scrub passes, cache fills, goroutine exits) use
// it instead of hand-rolled deadline loops, so polling cadence and
// deadline handling live in one audited place.
//
// cond is always evaluated at least once, and once more after the
// final sleep, so a condition that becomes true exactly at the
// deadline is not missed.
func Eventually(timeout, step time.Duration, cond func() bool) bool {
	if cond() {
		return true
	}
	if step <= 0 {
		step = time.Millisecond
	}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		time.Sleep(step)
		if cond() {
			return true
		}
	}
	return false
}
