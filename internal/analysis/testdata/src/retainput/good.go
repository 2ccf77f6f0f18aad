package retainput

import "moc/internal/storage"

type copyStore struct {
	blobs map[string][]byte
}

// Put stores a private copy, as the contract requires.
func (s *copyStore) Put(key string, data []byte) error {
	s.blobs[key] = append([]byte(nil), data...)
	return nil
}

type sink struct {
	blobs map[string][]byte
}

// PutOwned copies here too; the fixture keeps implementations honest
// so only caller-side shapes are under test.
func (s *sink) PutOwned(key string, data []byte) error {
	s.blobs[key] = append([]byte(nil), data...)
	return nil
}

// ForwardOwnership hands the buffer off as the function's final act —
// the transfer-and-exit idiom is not reuse.
func ForwardOwnership(s *sink, buf []byte) error {
	return s.PutOwned("k", buf)
}

// RecycleAfterHandoff returns the buffer to the pool after the
// transfer: PutOwned backends must not retain, so the hand-back is
// the blessed final touch.
func RecycleAfterHandoff(s *sink, n int) error {
	buf := storage.GetBuf(n)
	err := s.PutOwned("k", buf)
	storage.PutBuf(buf)
	return err
}

// AdoptFresh hands over a private copy and never looks at it again;
// the replaced buffer is its to recycle.
func AdoptFresh(s *slotStore, data []byte) {
	buf := storage.CopyBuf(data)
	storage.PutBuf(s.Adopt("k", buf))
}
