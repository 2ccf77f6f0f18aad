package storagetest

import (
	"strings"
	"sync"

	"moc/internal/storage"
)

// PutHold wraps a backend whose writes under one key prefix can be held
// back: between Hold and Release every such Put blocks before it reaches
// the backend. A pipelined writer hands it slices aliasing its caller's
// buffers, and a held write reads them only after Release — a buffer
// recycled while its round was still being written shows up as wrong
// bytes in the store.
type PutHold struct {
	storage.PersistStore
	prefix string

	mu      sync.Mutex
	open    *sync.Cond
	held    bool
	waiting int
	peak    int
}

// NewPutHold wraps inner, holding writes of keys under prefix on demand.
func NewPutHold(inner storage.PersistStore, prefix string) *PutHold {
	h := &PutHold{PersistStore: inner, prefix: prefix}
	h.open = sync.NewCond(&h.mu)
	return h
}

// Hold makes writes under the prefix block from now on.
func (h *PutHold) Hold() {
	h.mu.Lock()
	h.held = true
	h.mu.Unlock()
}

// Release lets every held write, and all later ones, through.
func (h *PutHold) Release() {
	h.mu.Lock()
	h.held = false
	h.mu.Unlock()
	h.open.Broadcast()
}

// AwaitHeld blocks until at least n writes are being held.
func (h *PutHold) AwaitHeld(n int) {
	h.mu.Lock()
	for h.waiting < n {
		h.open.Wait()
	}
	h.mu.Unlock()
}

// Peak returns the most writes under the prefix ever inside Put at once —
// with the hold on, the width of the writer feeding it.
func (h *PutHold) Peak() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.peak
}

func (h *PutHold) pass(key string) {
	if !strings.HasPrefix(key, h.prefix) {
		return
	}
	h.mu.Lock()
	h.waiting++
	if h.waiting > h.peak {
		h.peak = h.waiting
	}
	h.open.Broadcast()
	for h.held {
		h.open.Wait()
	}
	h.waiting--
	h.mu.Unlock()
}

// Put implements storage.PersistStore.
func (h *PutHold) Put(key string, data []byte) error {
	h.pass(key)
	return h.PersistStore.Put(key, data)
}
