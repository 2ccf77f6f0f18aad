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
	inner *copyStore
}

// Put forwards the caller's slice to another Put as it is: the inner
// store is held to the same contract, so a wrapper does not copy.
func (s *sink) Put(key string, data []byte) error {
	return s.inner.Put(key, data)
}

// RecycleAfterPut reuses and then pools its buffer after a Put: Put
// did not retain it, so the buffer is the caller's again.
func RecycleAfterPut(s *sink, n int) error {
	buf := storage.GetBuf(n)
	err := s.Put("k", buf)
	buf[0] = 0
	storage.PutBuf(buf)
	return err
}

// AdoptAndExit hands the buffer over as the function's final act — the
// transfer-and-exit idiom is not reuse.
func AdoptAndExit(s *slotStore, buf []byte) []byte {
	return s.Adopt("k", buf)
}

// AdoptFresh hands over a private copy and never looks at it again;
// the replaced buffer is its to recycle.
func AdoptFresh(s *slotStore, data []byte) {
	buf := storage.CopyBuf(data)
	storage.PutBuf(s.Adopt("k", buf))
}
