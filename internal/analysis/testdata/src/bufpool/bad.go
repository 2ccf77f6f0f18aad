// Package bufpool holds golden fixtures for the GetBuf/PutBuf
// lifetime analyzer: dropped buffers, drop-on-error paths, and
// use-after-recycle are true positives.
package bufpool

import (
	"errors"

	"moc/internal/storage"
)

var errBroken = errors.New("broken")

// Leaky mints a pooled buffer and drops it on the floor.
func Leaky() int {
	b := storage.GetBuf(64) // want:bufpool
	return len(b)
}

// DropOnError leaks the buffer on the early-error return.
func DropOnError(fail bool) error {
	b := storage.GetBuf(64)
	if fail {
		return errBroken // want:bufpool
	}
	storage.PutBuf(b)
	return nil
}

// UseAfterPut touches the buffer after the pool took it back.
func UseAfterPut() byte {
	b := storage.GetBuf(64)
	b[0] = 1
	storage.PutBuf(b)
	return b[0] // want:bufpool
}

type slots struct {
	blobs map[string][]byte
}

// Adopt keeps buf and hands back what it replaced.
func (s *slots) Adopt(key string, buf []byte) []byte {
	old := s.blobs[key]
	s.blobs[key] = buf
	return old
}

// DropReplaced adopts a buffer and forgets the one that comes back —
// which is the caller's to recycle.
func DropReplaced(s *slots, data []byte) int {
	b := storage.CopyBuf(data)
	old := s.Adopt("k", b) // want:bufpool
	return len(old)
}
