package bufpool

import "moc/internal/storage"

// Pooled pairs the acquisition with a deferred release.
func Pooled() int {
	b := storage.GetBuf(64)
	defer storage.PutBuf(b)
	for i := range b {
		b[i] = byte(i)
	}
	return len(b)
}

// Handoff transfers ownership to the caller.
func Handoff(data []byte) []byte {
	b := storage.CopyBuf(data)
	return b
}

type holder struct {
	buf []byte
}

// Stash hands the buffer to a longer-lived owner.
func Stash(h *holder) {
	b := storage.GetBuf(16)
	h.buf = b
}

// Swap hands a fresh buffer to its owner and recycles the one the owner
// gave back.
func Swap(s *slots, data []byte) {
	b := storage.CopyBuf(data)
	old := s.Adopt("k", b)
	storage.PutBuf(old)
}
