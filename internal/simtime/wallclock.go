package simtime

import "time"

// WallNow reads the real clock.
//
// Deprecated: call time.Now. Only bench/ still calls it; the benchmark's
// next revision (ROADMAP item 1) switches it to time and deletes this.
//
//moc:allow walltime identity shim kept for bench/ until ROADMAP item 1 deletes it
func WallNow() time.Time { return time.Now() }

// WallSince reports real elapsed time since t.
//
// Deprecated: call time.Since. Only bench/ still calls it; the
// benchmark's next revision (ROADMAP item 1) switches it to time and
// deletes this.
//
//moc:allow walltime identity shim kept for bench/ until ROADMAP item 1 deletes it
func WallSince(t time.Time) time.Duration { return time.Since(t) }
