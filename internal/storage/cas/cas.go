// Package cas is a content-addressed, deduplicating checkpoint store
// layered on any storage.PersistStore backend. Checkpoint payloads are
// split into chunks addressed by their SHA-256 digest — either at fixed
// boundaries (the default) or at content-defined boundaries found by a
// gear rolling hash (Options.Chunking = ChunkingCDC), which stay stable
// under insert/shift edits — so a module whose bytes did not change
// between rounds persists zero new bytes: its manifest entry simply
// references the chunks already in the store. Per-round manifests
// (round → module → chunk list) are the commit points — a round is
// complete exactly when its manifest is readable — and every chunk read
// is verified against its address, so corruption anywhere in the
// backend is detected before state is trusted.
//
// Layout under the backend key space:
//
//	cas/chunks/<sha256 hex>         chunk payload
//	cas/manifests/<round>.<writer>  binary manifest (see manifest.go)
//
// Manifests are keyed by (round, writer) because several agents — one per
// simulated node — may share one backend and persist disjoint module sets
// for the same round; their manifests must not collide.
package cas

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
)

// Hash is a chunk address: the SHA-256 digest of its payload.
type Hash [sha256.Size]byte

// HashBytes addresses a payload.
func HashBytes(b []byte) Hash { return sha256.Sum256(b) }

// String returns the lowercase hex form.
func (h Hash) String() string { return hex.EncodeToString(h[:]) }

// ParseHash parses the hex form produced by String.
func ParseHash(s string) (Hash, error) {
	var h Hash
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != sha256.Size {
		return h, fmt.Errorf("cas: bad hash %q", s)
	}
	copy(h[:], b)
	return h, nil
}

// ChunkPrefix and ManifestPrefix are the backend key prefixes of the
// two object kinds. They are exported for coordination layers above the
// store — the fleet service fences manifest commits by key, and scrub
// tooling enumerates chunks directly — which must agree with the store
// on the layout without re-deriving it.
const (
	ChunkPrefix    = "cas/chunks/"
	ManifestPrefix = "cas/manifests/"
)

const (
	chunkPrefix    = ChunkPrefix
	manifestPrefix = ManifestPrefix
)

// ChunkKey returns the backend key holding the chunk with the given
// address.
func ChunkKey(h Hash) string {
	var key [len(chunkPrefix) + 2*len(h)]byte
	copy(key[:], chunkPrefix)
	hex.Encode(key[len(chunkPrefix):], h[:])
	return string(key[:])
}

func manifestKey(round int, writer string) string {
	return fmt.Sprintf("%s%06d.%s", manifestPrefix, round, writer)
}

// parseManifestKey inverts manifestKey. The writer component must be
// non-empty: no writer id may be "" (fillDefaults never produces one),
// so a key like "cas/manifests/000001." is malformed — accepting it
// would let a stray object shadow real manifests.
func parseManifestKey(key string) (round int, writer string, ok bool) {
	rest, found := strings.CutPrefix(key, manifestPrefix)
	if !found {
		return 0, "", false
	}
	dot := strings.IndexByte(rest, '.')
	if dot < 0 || dot == len(rest)-1 {
		return 0, "", false
	}
	r, err := strconv.Atoi(rest[:dot])
	if err != nil || r < 0 {
		return 0, "", false
	}
	return r, rest[dot+1:], true
}

// splitChunks cuts a payload into fixed-size chunks. Every chunk but the
// last is exactly size bytes. A remainder of at least size/4 becomes a
// short last chunk; a shorter one rides in the last full chunk, which is
// then under 1.25 × size. Each chunk costs a backend request, and a tail
// of a few hundred bytes would pay a whole round trip for almost nothing;
// this way no chunk is shorter than CDC's default minimum unless the
// whole payload is. An empty payload yields no chunks. The chunks alias
// blob; WriteRound hands them to the backend as they are (Put does not
// retain).
//
// Manifests record every chunk's size, so stores whose tails were cut as
// chunks of their own read as they are.
func splitChunks(blob []byte, size int) [][]byte {
	n := fixedChunkCount(len(blob), size)
	if n == 0 {
		return nil
	}
	out := make([][]byte, 0, n)
	for i := 1; i < n; i++ {
		out = append(out, blob[:size])
		blob = blob[size:]
	}
	return append(out, blob)
}

// fixedChunkCount is the number of chunks splitChunks cuts a payload of
// n bytes into: ⌊n/size⌋ when the remainder is under size/4, otherwise
// ⌈n/size⌉, and at least 1 when n > 0.
func fixedChunkCount(n, size int) int {
	if n == 0 {
		return 0
	}
	k := n / size
	if tail := n % size; k == 0 || tail > 0 && tail >= size/4 {
		k++
	}
	return k
}
