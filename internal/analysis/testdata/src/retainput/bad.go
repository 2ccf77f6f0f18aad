// Package retainput holds golden fixtures for the slice-ownership
// analyzer: Put implementations that retain their input and callers
// that reuse a buffer after PutOwned are true positives.
package retainput

import "moc/internal/storage"

type leakyStore struct {
	blobs map[string][]byte
	last  []byte
}

// Put stores the caller's slice (and a subslice of it) without
// copying — the copy-on-put contract violation.
func (s *leakyStore) Put(key string, data []byte) error {
	s.blobs[key] = data // want:retainput
	s.last = data[1:]   // want:retainput
	return nil
}

type ownedStore struct {
	blobs map[string][]byte
}

// PutOwned takes ownership; this implementation copies, so only the
// caller below is at fault.
func (o *ownedStore) PutOwned(key string, data []byte) error {
	o.blobs[key] = append([]byte(nil), data...)
	return nil
}

// Reuse keeps reading the buffer after ownership transferred.
func Reuse(o *ownedStore, buf []byte) byte {
	if err := o.PutOwned("k", buf); err != nil {
		return 0
	}
	return buf[0] // want:retainput
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
// the PutBuf that is blessed after PutOwned is a use-after-free here.
func RecycleAfterAdopt(s *slotStore, data []byte) {
	buf := storage.CopyBuf(data)
	s.Adopt("k", buf)
	storage.PutBuf(buf) // want:retainput
}
