package cas

// Content-defined chunking (CDC). The fixed-size chunker in cas.go keeps
// boundaries at multiples of the chunk size, so an insert or removal of
// a single byte shifts every downstream boundary and destroys dedup for
// the rest of the payload. The content-defined chunker instead places
// boundaries where a rolling hash of the recent bytes hits a mask — a
// decision that depends only on local content — so after a shift edit
// the boundaries resynchronize within about one chunk and everything
// downstream dedups against the previous round (Gear/FastCDC-style
// construction).

import "fmt"

// Chunking selects how module payloads are cut into chunks.
type Chunking int

const (
	// ChunkingFixed cuts payloads at fixed ChunkSize boundaries, a
	// remainder under ChunkSize/4 riding in the last chunk (the default).
	// Cheapest, and optimal for pure in-place updates.
	ChunkingFixed Chunking = iota
	// ChunkingCDC cuts payloads where a gear rolling hash hits a mask,
	// bounded by MinChunkSize/MaxChunkSize around the ChunkSize target.
	// Boundaries stay stable under insert/shift edits.
	ChunkingCDC
)

// String names the mode ("fixed", "cdc").
func (c Chunking) String() string {
	switch c {
	case ChunkingFixed:
		return "fixed"
	case ChunkingCDC:
		return "cdc"
	default:
		return fmt.Sprintf("chunking(%d)", int(c))
	}
}

func (c Chunking) valid() bool { return c == ChunkingFixed || c == ChunkingCDC }

// gearTable drives the rolling hash: one pseudo-random 64-bit word per
// byte value, generated by SplitMix64 from a fixed seed so every build
// (and every stored manifest ever written) agrees on chunk boundaries.
var gearTable = func() (t [256]uint64) {
	state := uint64(0x4d6f43434443) // "MoCCDC"
	for i := range t {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		t[i] = z ^ (z >> 31)
	}
	return t
}()

// splitCDC cuts a payload at content-defined boundaries. Chunks are at
// least min and at most max bytes (the final chunk may be shorter than
// min); an empty payload yields no chunks. Like splitChunks, the
// returned chunks alias blob.
//
// A boundary fires where the gear hash drops below a threshold chosen
// so the cut probability per position past min is exactly 1/(avg-min):
// chunk lengths are min plus a geometric with mean avg-min, i.e. the
// mean chunk size is avg by construction (the max cap trims the tail by
// ~e^-(max-min)/(avg-min), under 1% at the default 4x bound). A
// power-of-two boundary mask — the common construction — could only
// realize cut probabilities of 2^-k and would miss the configured
// average by up to ±25% with the test window starting at min.
func splitCDC(blob []byte, min, avg, max int) [][]byte {
	if len(blob) == 0 {
		return nil
	}
	span := avg - min
	if span < 1 {
		span = 1 // min == avg: degenerate but legal; cut as soon as allowed
	}
	threshold := ^uint64(0) / uint64(span)
	out := make([][]byte, 0, len(blob)/avg+1)
	for len(blob) > 0 {
		n := cdcCut(blob, min, max, threshold)
		out = append(out, blob[:n])
		blob = blob[n:]
	}
	return out
}

// cdcCut returns the length of the next chunk: the first position past
// min where the gear hash of the bytes so far drops below the
// threshold, or max. Only the last 64 bytes influence the hash (each
// step shifts older bytes one bit further out), so the boundary
// decision is local — the property that makes boundaries shift-stable.
//
// The loop is split at min: positions before it can never cut, so the
// warm-up rolls the hash without the threshold test and the boundary
// test runs only where a boundary is legal. This skips one compare per
// byte over the min prefix — the tightening matters because splitCDC
// runs over every changed module of every round — and is purely a
// restructuring: boundary placement is byte-identical to the fused
// loop, locked by the golden-boundary tests (TestSplitCDCGoldenBoundaries),
// so every v2 manifest ever written still matches.
func cdcCut(b []byte, min, max int, threshold uint64) int {
	n := len(b)
	if n <= min {
		return n
	}
	if n > max {
		n = max
	}
	var h uint64
	// Bytes more than 64 positions before the first boundary test cannot
	// affect it; start warming the hash there.
	start := min - 64
	if start < 0 {
		start = 0
	}
	_ = b[n-1] // hoist the bounds check out of both loops
	// Warm-up: roll the hash up to (but excluding) the first position
	// where a boundary may fire.
	for i := start; i < min; i++ {
		h = h<<1 + gearTable[b[i]]
	}
	// Cut search: first position at or past min where the hash drops
	// below the threshold.
	for i := min; i < n; i++ {
		h = h<<1 + gearTable[b[i]]
		if h < threshold {
			return i + 1
		}
	}
	return n
}
