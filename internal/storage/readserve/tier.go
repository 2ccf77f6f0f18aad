// Package readserve is the restore-at-scale read-serving tier: a
// two-level cache hierarchy with request coalescing, composed over any
// PersistStore backend (typically the remote object store, possibly
// behind replica or shard layers).
//
// The shape mirrors a serving fleet. Each reader node holds a small
// private L1 (a cache.Store); all nodes share one warm L2 over the
// backend. An L1 miss first consults the L2 — a hit there is a
// promotion, the chunk moves into the requesting node's L1 without
// touching the backend — and only an L2 miss reaches the backend, where
// concurrent fetches of one key coalesce into a single get at every
// level (the caches' internal singleflight). Every miss is admitted into
// the warm tier — right when readers hydrate whole models. Writes go
// through to the backend first and warm both levels.
//
// The tier caches whatever keys flow through it. That is safe for
// immutable content-addressed chunks; mutable keys (manifests, fleet
// records) should bypass it — the fleet integration routes only
// cas/chunks/ keys through a node.
package readserve

import (
	"fmt"
	"sync"
	"sync/atomic"

	"moc/internal/obs"
	"moc/internal/storage"
	"moc/internal/storage/cache"
)

// Config tunes a Tier.
type Config struct {
	// L1Bytes bounds each node's private cache (default 16 MiB).
	L1Bytes int64
	// L2Bytes bounds the shared warm tier (default 256 MiB).
	L2Bytes int64
}

// Stats counts tier activity since construction. Hits and misses are
// counted per level; BackendGets is the ground truth of what escaped
// both levels and every coalescing layer.
type Stats struct {
	// L1Hits / L1Misses / L1Coalesced aggregate every node's private
	// cache: reads served from node memory, reads that fell through to
	// the shared side, and node-local readers that attached to another
	// reader's in-flight fill.
	L1Hits, L1Misses, L1Coalesced int64
	// L2Hits / L2Misses count shared-tier residency checks after an L1
	// miss; L2Coalesced counts readers (across all nodes) that attached
	// to an in-flight backend fetch instead of issuing their own.
	L2Hits, L2Misses, L2Coalesced int64
	// BackendGets counts fetches that actually reached the backend.
	BackendGets int64
	// Promotions counts L1 misses served from the warm tier — the chunk
	// was promoted into the requesting node's L1 without a backend get.
	Promotions int64
	// Nodes is the number of attached node handles.
	Nodes int
}

// L1HitRatio is L1Hits / (L1Hits + L1Misses), 0 when untouched.
func (s Stats) L1HitRatio() float64 { return ratio(s.L1Hits, s.L1Misses) }

// L2HitRatio is L2Hits / (L2Hits + L2Misses), 0 when untouched.
func (s Stats) L2HitRatio() float64 { return ratio(s.L2Hits, s.L2Misses) }

func ratio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// Tier is the shared half of the hierarchy: the warm L2 and the
// backend. Reader handles attach via NewNode. Safe for
// concurrent use.
type Tier struct {
	backend storage.PersistStore
	cfg     Config
	l2      *cache.Store // warm tier, read-through over the counted backend

	backendGets atomic.Int64
	promotions  atomic.Int64
	l2Hits      atomic.Int64
	l2Misses    atomic.Int64

	mu    sync.Mutex
	nodes []*Node
}

// New builds a tier over the backend. Defaults: 16 MiB per-node L1,
// 256 MiB shared L2.
func New(backend storage.PersistStore, cfg Config) (*Tier, error) {
	if backend == nil {
		return nil, fmt.Errorf("readserve: nil backend")
	}
	if cfg.L1Bytes == 0 {
		cfg.L1Bytes = 16 << 20
	}
	if cfg.L2Bytes == 0 {
		cfg.L2Bytes = 256 << 20
	}
	if cfg.L1Bytes < 0 || cfg.L2Bytes < 0 {
		return nil, fmt.Errorf("readserve: negative cache capacity")
	}
	t := &Tier{backend: backend, cfg: cfg}
	l2, err := cache.New(&countedBackend{t: t}, cfg.L2Bytes)
	if err != nil {
		return nil, err
	}
	t.l2 = l2
	if obs.Enabled() {
		t.registerObs()
	}
	return t, nil
}

// NewNode attaches a reader handle with a private L1. Nodes implement
// the full store surface (PersistStore, Viewer, Sharder passthrough), so
// a cas.Store — or a whole System — opens directly over one.
func (t *Tier) NewNode() (*Node, error) {
	l1, err := cache.NewOverViews(&sharedLevel{t: t}, t.cfg.L1Bytes)
	if err != nil {
		return nil, err
	}
	n := &Node{t: t, l1: l1}
	t.mu.Lock()
	t.nodes = append(t.nodes, n)
	t.mu.Unlock()
	return n, nil
}

// Stats aggregates the tier's counters across both levels and every
// attached node.
func (t *Tier) Stats() Stats {
	st := Stats{
		L2Hits:      t.l2Hits.Load(),
		L2Misses:    t.l2Misses.Load(),
		BackendGets: t.backendGets.Load(),
		Promotions:  t.promotions.Load(),
		L2Coalesced: t.l2.Stats().Coalesced,
	}
	t.mu.Lock()
	nodes := append([]*Node(nil), t.nodes...)
	t.mu.Unlock()
	st.Nodes = len(nodes)
	for _, n := range nodes {
		ls := n.l1.Stats()
		st.L1Hits += ls.Hits
		st.L1Misses += ls.Misses
		st.L1Coalesced += ls.Coalesced
	}
	return st
}

// Drop empties both cache levels — every node's L1 and the shared warm
// tier — without touching the backend. The fleet calls it after a GC
// sweep: conservative (the next reads re-warm), but it guarantees the
// tier never serves a chunk the collector removed.
func (t *Tier) Drop() {
	t.mu.Lock()
	nodes := append([]*Node(nil), t.nodes...)
	t.mu.Unlock()
	t.l2.Drop()
	for _, n := range nodes {
		n.l1.Drop()
	}
}

// sharedGet serves one node's L1 miss from the shared side: a warm-tier
// hit is a promotion; a miss read-throughs (and admits) via the L2. The
// returned slice is a view — the L2's own slice, or a flight's shared
// among its coalesced waiters: immutable, and what the node's L1 keeps,
// so a chunk hot on several nodes is resident once.
func (t *Tier) sharedGet(key string) ([]byte, error) {
	if v, ok := t.l2.GetCached(key); ok {
		t.l2Hits.Add(1)
		t.promotions.Add(1)
		return v, nil
	}
	t.l2Misses.Add(1)
	return t.l2.GetView(key)
}

// sharedDelete removes the key everywhere: every node's L1 (cache-only
// invalidation), then the warm tier and the backend through the L2's
// write-through delete.
func (t *Tier) sharedDelete(key string) error {
	t.mu.Lock()
	nodes := append([]*Node(nil), t.nodes...)
	t.mu.Unlock()
	for _, n := range nodes {
		n.l1.Invalidate(key)
	}
	return t.l2.Delete(key)
}

// countedBackend fronts the tier's backend for the L2's read-through,
// counting every Get that actually escapes the hierarchy.
type countedBackend struct {
	t *Tier
}

func (cb *countedBackend) Get(key string) ([]byte, error) {
	cb.t.backendGets.Add(1)
	return cb.t.backend.Get(key)
}

func (cb *countedBackend) Put(key string, data []byte) error {
	return cb.t.backend.Put(key, data)
}

func (cb *countedBackend) Delete(key string) error {
	return cb.t.backend.Delete(key)
}

func (cb *countedBackend) Keys(prefix string) ([]string, error) {
	return cb.t.backend.Keys(prefix)
}

// sharedLevel adapts the tier's shared side to the store surface a
// node's L1 reads through: views for the L1 to keep (cache.NewOverViews),
// copies for anyone else.
type sharedLevel struct {
	t *Tier
}

func (s *sharedLevel) Get(key string) ([]byte, error) {
	v, err := s.t.sharedGet(key)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), v...), nil
}

func (s *sharedLevel) GetView(key string) ([]byte, error) { return s.t.sharedGet(key) }
func (s *sharedLevel) Put(key string, data []byte) error  { return s.t.l2.Put(key, data) }
func (s *sharedLevel) Delete(key string) error            { return s.t.sharedDelete(key) }
func (s *sharedLevel) Keys(p string) ([]string, error)    { return s.t.backend.Keys(p) }

// Node is one reader's handle on the tier: a private L1 over the shared
// warm tier. Safe for concurrent use.
type Node struct {
	t  *Tier
	l1 *cache.Store
}

// Get implements storage.PersistStore.
func (n *Node) Get(key string) ([]byte, error) { return n.l1.Get(key) }

// GetView implements storage.Viewer: L1 hits serve the cached slice
// without a copy.
func (n *Node) GetView(key string) ([]byte, error) { return n.l1.GetView(key) }

// Put implements storage.PersistStore: write-through to the backend,
// warming this node's L1 and the shared tier.
func (n *Node) Put(key string, data []byte) error { return n.l1.Put(key, data) }

// Delete implements storage.PersistStore, invalidating every node's L1
// and the warm tier before the backend delete.
func (n *Node) Delete(key string) error { return n.l1.Delete(key) }

// Keys implements storage.PersistStore, passing through to the backend.
func (n *Node) Keys(prefix string) ([]string, error) { return n.t.backend.Keys(prefix) }

// Drop empties this node's L1 (a node restart), leaving the shared
// tier warm.
func (n *Node) Drop() { n.l1.Drop() }

// L1Stats exposes this node's private cache counters.
func (n *Node) L1Stats() cache.Stats { return n.l1.Stats() }

// ShardCount and Locate forward storage.Sharder when the backend is
// hash-partitioned, so a persist pipeline writing through a node still
// stripes its put fan-out per shard.
func (n *Node) ShardCount() int {
	if sh, ok := n.t.backend.(storage.Sharder); ok {
		return sh.ShardCount()
	}
	return 1
}

// Locate forwards storage.Sharder (see ShardCount).
func (n *Node) Locate(key string) int {
	if sh, ok := n.t.backend.(storage.Sharder); ok {
		return sh.Locate(key)
	}
	return 0
}

var (
	_ storage.PersistStore = (*Node)(nil)
	_ storage.Viewer       = (*Node)(nil)
	_ storage.Sharder      = (*Node)(nil)
	_ cache.ViewStore      = (*sharedLevel)(nil)
	_ storage.PersistStore = (*countedBackend)(nil)
)
