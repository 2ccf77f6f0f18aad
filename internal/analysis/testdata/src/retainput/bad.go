// Package retainput holds golden fixtures for the slice-ownership
// analyzer: Put implementations that retain their input and callers
// that reuse a buffer after Adopt are true positives.
package retainput

import "moc/internal/storage"

type leakyStore struct {
	blobs map[string][]byte
	last  []byte
}

// Put stores the caller's slice (and a subslice of it) without
// copying — what storage.PersistStore's contract forbids.
func (s *leakyStore) Put(key string, data []byte) error {
	s.blobs[key] = data // want:retainput
	s.last = data[1:]   // want:retainput
	return nil
}

type slotStore struct {
	blobs map[string][]byte
}

// Adopt is the named zero-copy hand-off: keeping buf is its contract,
// so only the callers below are at fault.
func (s *slotStore) Adopt(key string, buf []byte) []byte {
	old := s.blobs[key]
	s.blobs[key] = buf
	return old
}

// WriteAfterAdopt scribbles on a buffer the store now serves.
func WriteAfterAdopt(s *slotStore, buf []byte) {
	s.Adopt("k", buf)
	buf[0] = 0 // want:retainput
}

// RecycleAfterAdopt returns to the pool a buffer the store still holds:
// a use-after-free.
func RecycleAfterAdopt(s *slotStore, data []byte) {
	buf := storage.CopyBuf(data)
	s.Adopt("k", buf)
	storage.PutBuf(buf) // want:retainput
}
