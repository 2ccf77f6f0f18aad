// Package walltime is outside the walltime analyzer's scope: it stands
// for the storage stack, the agent and the CLIs, which measure and sleep
// on the real clock. The calls that fire in internal/simtime stay silent
// here.
package walltime

import "time"

// Delay reads and sleeps on the wall clock, as internal/simtime's Delay
// does.
func Delay() time.Duration {
	start := time.Now()
	time.Sleep(time.Millisecond)
	return time.Since(start)
}
