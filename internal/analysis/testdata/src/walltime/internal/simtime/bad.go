// Package simtime stands in for a deterministic package: its path ends
// in internal/simtime, so the walltime analyzer checks it, and every
// clock call here is a true positive.
package simtime

import "time"

// Delay reads and sleeps on the raw wall clock — three violations.
func Delay() time.Duration {
	start := time.Now()          // want:walltime
	time.Sleep(time.Millisecond) // want:walltime
	return time.Since(start)     // want:walltime
}
