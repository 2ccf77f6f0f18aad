package storage

import (
	"math/bits"
	"sync"
)

// Size-classed buffer pool. Checkpoint traffic is dominated by
// fixed-shape module payloads written once per round (the capture
// buffers the snapshot level adopts, SnapshotStore.Put's copies), so the
// same handful of sizes recycle round after round —
// exactly the shape sync.Pool amortizes well. Buffers are grouped by
// power-of-two capacity class so a returned buffer can serve any later
// request that fits its class.

// bufPoolClasses spans 1 B .. 1 GiB capacity classes; larger requests
// fall through to plain allocation.
const bufPoolClasses = 31

var bufPools [bufPoolClasses]sync.Pool

// bufClass is the pool index whose buffers have capacity 1<<class ≥ n.
func bufClass(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// GetBuf returns a length-n buffer, recycled when the pool holds one of
// n's capacity class. Contents are arbitrary — callers overwrite.
func GetBuf(n int) []byte {
	if n >= 0 {
		if c := bufClass(n); c < bufPoolClasses {
			if v := bufPools[c].Get(); v != nil {
				return v.([]byte)[:n]
			}
			return make([]byte, n, 1<<c)
		}
	}
	return make([]byte, n)
}

// PutBuf recycles a buffer previously sized by GetBuf (or any buffer
// whose capacity is an exact power of two; others are dropped, since a
// misfiled capacity would leak short buffers into larger classes). The
// caller must not retain any reference to b — a later GetBuf may hand
// the same memory to an unrelated caller.
func PutBuf(b []byte) {
	c := cap(b)
	if c == 0 || c&(c-1) != 0 {
		return
	}
	if class := bits.Len(uint(c)) - 1; class < bufPoolClasses {
		bufPools[class].Put(b[:0:c]) //nolint:staticcheck // slice header allocation is amortized by the pool hit
	}
}

// CopyBuf returns a pooled private copy of data.
func CopyBuf(data []byte) []byte {
	b := GetBuf(len(data))
	copy(b, data)
	return b
}
