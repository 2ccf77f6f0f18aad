package simtime

import "time"

// Expired only calls methods on time.Time values — the ban covers
// package-level clock functions, not arithmetic on times the caller
// already holds.
func Expired(deadline, now time.Time, grace time.Duration) bool {
	return now.After(deadline.Add(grace))
}
