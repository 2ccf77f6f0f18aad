// Package cache is a size-bounded LRU chunk cache layered between the
// content-addressed store and any PersistStore backend. Reads are
// served from memory when hot (read-through on miss); writes go to the
// backend first and then populate the cache (write-through), so the
// cache never holds bytes the backend has not accepted. Against a
// remote backend this is the snapshot tier: recovery and
// re-verification of hot chunks never leave the node.
//
// Chunk keys are content-addressed upstream, so cached values never go
// stale — the only invalidation paths are Delete and capacity eviction.
package cache

import (
	"container/list"
	"fmt"
	"sync"

	"moc/internal/obs"
	"moc/internal/storage"
)

// Stats counts cache activity since construction.
type Stats struct {
	// Hits / Misses count Gets served from memory vs. the backend.
	Hits, Misses int64
	// Coalesced counts the subset of Misses served by attaching to
	// another reader's in-flight backend fetch instead of issuing their
	// own (singleflight), so backend gets = Misses − Coalesced.
	Coalesced int64
	// HitBytes / MissBytes are the corresponding payload volumes.
	// MissBytes counts backend transfer volume, so a coalesced miss
	// contributes nothing — its bytes moved once, on the leader's fetch.
	HitBytes, MissBytes int64
	// Insertions counts entries admitted; Evictions entries pushed out
	// by the capacity bound (Delete removals are not evictions).
	Insertions, Evictions int64
	// Entries / Bytes are the current residency; Capacity the bound.
	Entries  int
	Bytes    int64
	Capacity int64
}

// HitRatio is Hits / (Hits + Misses), 0 when the cache is untouched.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

type entry struct {
	key  string
	data []byte
}

// Store is the caching PersistStore. It is safe for concurrent use.
type Store struct {
	inner storage.PersistStore
	// fetch is the miss fill's read of inner: Get, or GetView for a
	// store built with NewOverViews.
	fetch    func(key string) ([]byte, error)
	capacity int64

	mu    sync.Mutex
	ll    *list.List // front = most recently used
	index map[string]*list.Element
	bytes int64
	stats Stats
	// delGen increments on every Delete/Drop. A read-through miss fill
	// captures it before the backend fetch and is not admitted if it
	// moved — otherwise a Delete interleaving with the fetch would leave
	// the cache serving a key the backend no longer holds. Deletes are
	// rare (the GC sweep), so skipping the occasional unrelated fill is
	// the cheap conservative side.
	delGen uint64
	// flights tracks the in-flight backend fetch per missing key, so
	// concurrent misses of one key coalesce into a single inner Get
	// (singleflight) instead of a thundering herd of identical fetches.
	flights map[string]*flight
}

// flight is one in-flight backend fetch that concurrent misses of the
// same key attach to. Once done is closed, data and err are immutable:
// view readers may hand data out directly, Get readers copy from it.
type flight struct {
	done chan struct{}
	data []byte
	err  error
}

// New wraps a backend with an LRU cache bounded at capacityBytes.
func New(inner storage.PersistStore, capacityBytes int64) (*Store, error) {
	if inner == nil {
		return nil, fmt.Errorf("cache: nil backend")
	}
	if capacityBytes <= 0 {
		return nil, fmt.Errorf("cache: capacity must be positive, got %d", capacityBytes)
	}
	c := &Store{
		inner:    inner,
		fetch:    inner.Get,
		capacity: capacityBytes,
		ll:       list.New(),
		index:    make(map[string]*list.Element),
		flights:  make(map[string]*flight),
	}
	if obs.Enabled() {
		c.registerObs()
	}
	return c, nil
}

// ViewStore is a backend that also serves zero-copy views.
type ViewStore interface {
	storage.PersistStore
	storage.Viewer
}

// NewOverViews is New for a backend whose views are as good as its copies
// — another cache level: a miss fill reads inner.GetView and shares that
// immutable slice instead of holding a copy of it. (It is not the default
// for every Viewer because a view read may skip work a Get does, such as a
// replica's read-repair.)
func NewOverViews(inner ViewStore, capacityBytes int64) (*Store, error) {
	c, err := New(inner, capacityBytes)
	if err == nil {
		c.fetch = inner.GetView
	}
	return c, err
}

// Stats returns a copy of the counters plus current residency.
func (c *Store) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Entries = len(c.index)
	st.Bytes = c.bytes
	st.Capacity = c.capacity
	return st
}

// insert admits a value, evicting from the LRU tail until it fits. It
// adopts data: the slice becomes the cache's immutable copy, so the caller
// passes one nothing else will write (a private copy, or an immutable
// view). Values larger than the whole cache are not admitted — they
// would evict everything for a single entry that can never be resident
// alongside anything else.
func (c *Store) insert(key string, data []byte) {
	if int64(len(data)) > c.capacity {
		return
	}
	if el, ok := c.index[key]; ok {
		e := el.Value.(*entry)
		c.bytes += int64(len(data)) - int64(len(e.data))
		e.data = data
		c.ll.MoveToFront(el)
	} else {
		e := &entry{key: key, data: data}
		c.index[key] = c.ll.PushFront(e)
		c.bytes += int64(len(data))
		c.stats.Insertions++
	}
	for c.bytes > c.capacity {
		tail := c.ll.Back()
		if tail == nil {
			break
		}
		c.removeElement(tail)
		c.stats.Evictions++
	}
}

// admit is the write-through admission: a private copy of the caller's
// slice, unless a Delete raced the backend write (see delGen).
func (c *Store) admit(key string, data []byte, gen uint64) {
	if int64(len(data)) > c.capacity {
		return
	}
	cp := append([]byte(nil), data...)
	c.mu.Lock()
	if gen == c.delGen {
		c.insert(key, cp)
	}
	c.mu.Unlock()
}

func (c *Store) removeElement(el *list.Element) {
	e := el.Value.(*entry)
	c.ll.Remove(el)
	delete(c.index, e.key)
	c.bytes -= int64(len(e.data))
}

// Put implements storage.PersistStore: write-through. The backend write
// happens first; the cache is populated only on its success, and — like
// the Get miss fill — not when a Delete raced the backend write, so the
// cache never outlives the backend copy.
func (c *Store) Put(key string, data []byte) error {
	c.mu.Lock()
	gen := c.delGen
	c.mu.Unlock()
	if err := c.inner.Put(key, data); err != nil {
		return err
	}
	c.admit(key, data, gen)
	return nil
}

// GetView implements storage.Viewer: hits return the cached slice
// itself — no per-read copy, the win that makes warm recovery a pure
// verify-and-reassemble pass. Cached slices are replaced on update,
// never mutated (see insert), so outstanding views survive eviction and
// overwrite intact. Misses fall through to the backend and admit and
// return the one slice it produced. Concurrent misses of one key
// coalesce into a single backend fetch (see read).
func (c *Store) GetView(key string) ([]byte, error) {
	return c.read(key, true)
}

// Get implements storage.PersistStore: read-through. Hits are served
// from memory; misses fetch from the backend and admit the value.
// Concurrent misses of one key coalesce into a single backend fetch.
func (c *Store) Get(key string) ([]byte, error) {
	return c.read(key, false)
}

// read is the shared Get/GetView path. Hits serve from memory. The
// first miss of a key becomes the flight leader and fetches from the
// backend; concurrent misses of the same key attach to that flight and
// share its result (singleflight), so N readers of one cold chunk cost
// one backend get. The fetched slice is private to the flight (or an
// immutable view, see NewOverViews), so the cache adopts it instead of
// copying it, and it is immutable from then on: view readers
// get it directly (the do-not-modify contract), Get readers each take a
// private copy.
func (c *Store) read(key string, view bool) ([]byte, error) {
	c.mu.Lock()
	if el, ok := c.index[key]; ok {
		e := el.Value.(*entry)
		c.ll.MoveToFront(el)
		c.stats.Hits++
		c.stats.HitBytes += int64(len(e.data))
		// Cached slices are immutable once stored (insert replaces
		// e.data, never mutates it), so the caller's copy can happen
		// outside the lock — hits from concurrent readers don't
		// serialize behind each other's memcpy.
		data := e.data
		c.mu.Unlock()
		return owned(data, view), nil
	}
	c.stats.Misses++
	if f := c.flights[key]; f != nil {
		c.stats.Coalesced++
		c.mu.Unlock()
		<-f.done
		if f.err != nil {
			return nil, f.err
		}
		return owned(f.data, view), nil
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	gen := c.delGen
	c.mu.Unlock()

	data, err := c.fetch(key)

	c.mu.Lock()
	delete(c.flights, key)
	if err == nil {
		c.stats.MissBytes += int64(len(data))
		if gen == c.delGen {
			c.insert(key, data)
		}
	}
	c.mu.Unlock()
	// Publish to the waiters; the channel close is the memory barrier.
	f.data, f.err = data, err
	close(f.done)
	if err != nil {
		return nil, err
	}
	return owned(data, view), nil
}

// owned is what a reader receives of an immutable cached slice: the slice
// itself as a view, a private copy otherwise.
func owned(data []byte, view bool) []byte {
	if view {
		return data
	}
	return append([]byte(nil), data...)
}

// GetCached returns the cached value as a view without consulting the
// backend: a hit counts (and refreshes recency) exactly like GetView; a
// miss counts nothing and reports false — the caller decides what a
// miss means. The read tier uses this to tell an L2 promotion apart
// from a cold backend fetch.
func (c *Store) GetCached(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.index[key]
	if !ok {
		return nil, false
	}
	e := el.Value.(*entry)
	c.ll.MoveToFront(el)
	c.stats.Hits++
	c.stats.HitBytes += int64(len(e.data))
	return e.data, true
}

// Delete implements storage.PersistStore, dropping the cached copy
// before the backend delete so a failed backend delete can never leave
// the cache serving a key the caller asked to remove.
func (c *Store) Delete(key string) error {
	c.mu.Lock()
	if el, ok := c.index[key]; ok {
		c.removeElement(el)
	}
	c.delGen++
	c.mu.Unlock()
	return c.inner.Delete(key)
}

// Invalidate drops the cached copy of key (if resident) without
// touching the backend, bumping the delete generation so an in-flight
// miss fill cannot resurrect it. The read tier uses it to propagate a
// chunk delete to every node's L1.
func (c *Store) Invalidate(key string) {
	c.mu.Lock()
	if el, ok := c.index[key]; ok {
		c.removeElement(el)
	}
	c.delGen++
	c.mu.Unlock()
}

// Keys implements storage.PersistStore, passing through to the backend
// (the cache holds a subset; only the backend knows the full key set).
func (c *Store) Keys(prefix string) ([]string, error) {
	return c.inner.Keys(prefix)
}

// RequestCost implements storage.Coster by forwarding the backend's
// report: the cache speeds up reads it already holds, not the requests
// a writer makes through it. A backend that reports no cost reads as
// memory speed.
func (c *Store) RequestCost() (latencySeconds, bytesPerSecond float64) {
	if cs, ok := c.inner.(storage.Coster); ok {
		return cs.RequestCost()
	}
	return 0, 0
}

// Drop empties the cache without touching the backend — the cold-cache
// state after a node restart. Counters survive; residency goes to zero.
func (c *Store) Drop() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.index = make(map[string]*list.Element)
	c.bytes = 0
	c.delGen++ // in-flight miss fills must not resurrect dropped entries
}

var (
	_ storage.PersistStore = (*Store)(nil)
	_ storage.Viewer       = (*Store)(nil)
	_ storage.Coster       = (*Store)(nil)
)
