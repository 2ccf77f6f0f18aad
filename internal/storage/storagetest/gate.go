// Package storagetest holds backend doubles shared by the storage
// stack's tests.
package storagetest

import (
	"strings"
	"sync"

	"moc/internal/storage"
)

// Gate wraps a backend and meters the concurrency of its Gets under one
// key prefix without a clock. Once armed, it holds every such Get until
// a full wave — min(width, gets still expected) — of them is in flight,
// then lets the wave through. A reader that overlaps fewer than width
// requests therefore never completes (the test hangs into its timeout),
// and one that overlaps more shows in Peak; a reader that returns with
// Peak() == width has been proven to reach its width and never exceed
// it. Gets outside the prefix, and gated Gets beyond the armed total,
// pass straight through.
//
// Gate deliberately does not implement storage.Viewer, so every read
// goes through Get.
type Gate struct {
	storage.PersistStore
	prefix string

	mu        sync.Mutex
	wave      *sync.Cond
	width     int
	remaining int // armed Gets not yet let through
	waiting   int // Gets held in the current wave
	gen       int // wave number; bumps on every release
	inflight  int
	peak      int
	gets      int
}

// NewGate wraps inner, metering Gets of keys under prefix.
func NewGate(inner storage.PersistStore, prefix string) *Gate {
	g := &Gate{PersistStore: inner, prefix: prefix}
	g.wave = sync.NewCond(&g.mu)
	return g
}

// Arm resets the counters and holds the next total metered Gets in waves
// of width; Arm(0, 0) holds nothing and leaves a plain counter.
func (g *Gate) Arm(width, total int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.width, g.remaining = width, total
	g.waiting, g.inflight, g.peak, g.gets = 0, 0, 0, 0
}

// Peak returns the most metered Gets ever in flight since Arm.
func (g *Gate) Peak() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.peak
}

// Gets returns the number of metered Gets since Arm.
func (g *Gate) Gets() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.gets
}

// Get implements storage.PersistStore.
func (g *Gate) Get(key string) ([]byte, error) {
	if !strings.HasPrefix(key, g.prefix) {
		return g.PersistStore.Get(key)
	}
	g.enter()
	data, err := g.PersistStore.Get(key)
	g.mu.Lock()
	g.inflight--
	g.mu.Unlock()
	return data, err
}

// enter counts one metered Get in and holds it until its wave is full.
func (g *Gate) enter() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.gets++
	g.inflight++
	if g.inflight > g.peak {
		g.peak = g.inflight
	}
	if g.remaining == 0 {
		return
	}
	need := g.width
	if g.remaining < need {
		need = g.remaining
	}
	g.waiting++
	if g.waiting == need {
		g.remaining -= need
		g.waiting = 0
		g.gen++
		g.wave.Broadcast()
		return
	}
	for gen := g.gen; gen == g.gen; {
		g.wave.Wait()
	}
}
