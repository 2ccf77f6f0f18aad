package shard

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"moc/internal/obs"
	"moc/internal/storage"
)

// Config describes a sharded store.
type Config struct {
	// Stores are the backend shards (at least one). Each may itself be
	// a replicated, cached, or remote store — the router composes with
	// the rest of the storage stack.
	Stores []storage.PersistStore
	// Names identify the shards on the hash ring; a shard's arcs are
	// derived from its name, so names must be stable across restarts
	// for keys to route to the same backends. Empty = shard-000,
	// shard-001, ...
	Names []string
	// VirtualNodes is the per-shard point count on the ring (0 =
	// DefaultVirtualNodes).
	VirtualNodes int
	// Guard, when set, is the GC guard Rebalance takes in write mode so
	// a migration never races checkpoint writers or the refcount GC
	// (both hold the same lock — writers shared, GC exclusive). The
	// fleet service wires its own guard in via SetGuard.
	Guard *sync.RWMutex
}

type entry struct {
	name  string
	store storage.PersistStore
}

// Router is a PersistStore spreading keys over N backend shards with a
// consistent-hash ring. Reads, writes, deletes, and listings implement
// the full store surface (Put/Get/GetView/Delete/Keys); Probe
// and Health track per-shard liveness; AddShard/RemoveShard change
// membership online, with Rebalance migrating the ~1/N of keys the ring
// remapped while concurrent readers are served from either location.
type Router struct {
	vnodes int

	mu      sync.RWMutex
	entries []entry
	ring    *Ring
	ringIdx []int // ring shard index -> entries index
	// prev is the pre-change ring while a membership change awaits
	// Rebalance; reads fall back to it so keys not yet migrated stay
	// reachable.
	prev    *Ring
	prevIdx []int
	lastErr []error
	guard   *sync.RWMutex
}

// New builds a router over cfg.Stores.
func New(cfg Config) (*Router, error) {
	if len(cfg.Stores) == 0 {
		return nil, fmt.Errorf("shard: need at least one shard")
	}
	names := cfg.Names
	if len(names) == 0 {
		names = make([]string, len(cfg.Stores))
		for i := range names {
			names[i] = fmt.Sprintf("shard-%03d", i)
		}
	}
	if len(names) != len(cfg.Stores) {
		return nil, fmt.Errorf("shard: %d names for %d stores", len(names), len(cfg.Stores))
	}
	for i, s := range cfg.Stores {
		if s == nil {
			return nil, fmt.Errorf("shard: shard %d is nil", i)
		}
	}
	ring, err := NewRing(names, cfg.VirtualNodes)
	if err != nil {
		return nil, err
	}
	r := &Router{
		vnodes:  ring.VirtualNodes(),
		ring:    ring,
		lastErr: make([]error, len(cfg.Stores)),
		guard:   cfg.Guard,
	}
	for i := range cfg.Stores {
		r.entries = append(r.entries, entry{name: names[i], store: cfg.Stores[i]})
	}
	r.ringIdx = r.indexRing(ring)
	if obs.Enabled() {
		m := obs.Metrics()
		m.GaugeFunc("shard.count", func() float64 { return float64(r.ShardCount()) })
		m.GaugeFunc("shard.migrating", func() float64 {
			if r.Migrating() {
				return 1
			}
			return 0
		})
	}
	return r, nil
}

// indexRing maps ring shard indices to entries indices. Callers hold
// r.mu.
func (r *Router) indexRing(ring *Ring) []int {
	byName := make(map[string]int, len(r.entries))
	for i, e := range r.entries {
		byName[e.name] = i
	}
	names := ring.Names()
	idx := make([]int, len(names))
	for i, n := range names {
		idx[i] = byName[n]
	}
	return idx
}

// routeView is a consistent snapshot of routing state, so one operation
// never observes a half-applied membership change.
type routeView struct {
	entries []entry
	ring    *Ring
	ringIdx []int
	prev    *Ring
	prevIdx []int
}

func (r *Router) view() routeView {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return routeView{
		entries: r.entries,
		ring:    r.ring, ringIdx: r.ringIdx,
		prev: r.prev, prevIdx: r.prevIdx,
	}
}

func (v routeView) locate(key string) int { return v.ringIdx[v.ring.Locate(key)] }

func (v routeView) locatePrev(key string) int {
	return v.prevIdx[v.prev.Locate(key)]
}

func (r *Router) note(i int, err error) {
	r.mu.Lock()
	if i < len(r.lastErr) {
		r.lastErr[i] = err
	}
	r.mu.Unlock()
}

// ShardCount implements storage.Sharder: the number of shards writes
// currently route over.
func (r *Router) ShardCount() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.ring.Names())
}

// Locate implements storage.Sharder, reporting the entry index a key
// routes to under the current ring.
func (r *Router) Locate(key string) int { return r.view().locate(key) }

// ShardName returns the name of shard i (entry order).
func (r *Router) ShardName(i int) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.entries[i].name
}

// Shard returns backend i (entry order), for per-shard inspection by
// scrub daemons and tooling.
func (r *Router) Shard(i int) storage.PersistStore {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.entries[i].store
}

// Shards returns the current backend count, including a shard pending
// removal until Rebalance drains it (ShardCount, by contrast, counts
// ring members only).
func (r *Router) Shards() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}

// VirtualNodes returns the per-shard ring point count.
func (r *Router) VirtualNodes() int { return r.vnodes }

// Migrating reports whether a membership change awaits Rebalance.
func (r *Router) Migrating() bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.prev != nil
}

// SetGuard wires the GC guard Rebalance serializes against (the fleet
// service calls this with its fleet-wide guard on Open).
func (r *Router) SetGuard(g *sync.RWMutex) {
	r.mu.Lock()
	r.guard = g
	r.mu.Unlock()
}

// Put routes the write to the key's shard under the current ring.
func (r *Router) Put(key string, data []byte) error {
	v := r.view()
	i := v.locate(key)
	err := v.entries[i].store.Put(key, data)
	r.note(i, err)
	return err
}

// Get reads from the key's shard. During a migration a miss falls back
// to the key's pre-change shard, and a miss there retries the new shard
// once: Rebalance copies before it deletes, so a key absent from its
// old home is already present in its new one. A miss is also re-run
// under a fresh routing view when membership changed since the lookup's
// snapshot — a reader that snapshotted the pre-change ring has no
// fallback of its own, and the key may have migrated mid-lookup —
// so concurrent readers never observe a failed Get for a key that
// exists.
func (r *Router) Get(key string) ([]byte, error) {
	return r.get(key, storage.PersistStore.Get)
}

// GetView implements storage.Viewer with Get's migration fallback,
// taking each shard's zero-copy path when it has one.
func (r *Router) GetView(key string) ([]byte, error) {
	return r.get(key, viewOrGet)
}

func (r *Router) get(key string, fetch func(storage.PersistStore, string) ([]byte, error)) ([]byte, error) {
	v := r.view()
	for {
		data, err := r.lookup(v, key, fetch)
		if err == nil || !errors.Is(err, storage.ErrNotFound) {
			return data, err
		}
		// Not found — but only authoritative if routing is still the
		// one we looked under. A membership change or Rebalance
		// completing mid-lookup can move the key out from under a stale
		// view; re-run under the fresh view (each retry requires
		// another membership transition, so this terminates).
		fresh := r.view()
		if fresh.ring == v.ring && fresh.prev == v.prev {
			return data, err
		}
		v = fresh
	}
}

// lookup runs one read attempt under a fixed routing snapshot: the
// key's current shard, then (mid-migration) its pre-change shard, then
// the current shard once more to close the copy/delete window.
func (r *Router) lookup(v routeView, key string, fetch func(storage.PersistStore, string) ([]byte, error)) ([]byte, error) {
	i := v.locate(key)
	data, err := fetch(v.entries[i].store, key)
	r.note(i, err)
	if err == nil || !errors.Is(err, storage.ErrNotFound) || v.prev == nil {
		return data, err
	}
	if j := v.locatePrev(key); j != i {
		// No `:=` for the retry below: shadowing data here would make
		// the close-the-window fetch assign a block-local copy and the
		// function return the first attempt's nil payload with a nil
		// error — an empty read surfacing only under concurrency.
		prevData, perr := fetch(v.entries[j].store, key)
		r.note(j, perr)
		if perr == nil || !errors.Is(perr, storage.ErrNotFound) {
			return prevData, perr
		}
		data, err = fetch(v.entries[i].store, key)
		r.note(i, err)
	}
	return data, err
}

func viewOrGet(s storage.PersistStore, key string) ([]byte, error) {
	if vw, ok := s.(storage.Viewer); ok {
		return vw.GetView(key)
	}
	return s.Get(key)
}

// Delete removes the key from its shard — and, during a migration, from
// its pre-change shard too, so a not-yet-migrated copy cannot
// resurrect.
func (r *Router) Delete(key string) error {
	v := r.view()
	i := v.locate(key)
	err := v.entries[i].store.Delete(key)
	r.note(i, err)
	if v.prev != nil {
		if j := v.locatePrev(key); j != i {
			perr := v.entries[j].store.Delete(key)
			if perr != nil && !errors.Is(perr, storage.ErrNotFound) {
				r.note(j, perr)
				if err == nil {
					err = perr
				}
			}
		}
	}
	return err
}

// Keys returns the union of keys across every shard, sorted. Unlike a
// replica set, shards hold disjoint data, so one unresponsive shard
// means an incomplete listing — the call fails rather than silently
// dropping that shard's keys (a GC fed a partial listing would sweep
// live chunks).
func (r *Router) Keys(prefix string) ([]string, error) {
	v := r.view()
	union := map[string]bool{}
	for i, e := range v.entries {
		keys, err := e.store.Keys(prefix)
		r.note(i, err)
		if err != nil {
			return nil, fmt.Errorf("shard: keys %q on %s: %w", prefix, e.name, err)
		}
		for _, k := range keys {
			union[k] = true
		}
	}
	out := make([]string, 0, len(union))
	for k := range union {
		out = append(out, k)
	}
	sort.Strings(out)
	return out, nil
}

// Probe actively checks every shard with storage.Probe and returns
// the refreshed Health — the scrub daemon's per-shard liveness source.
func (r *Router) Probe() []error {
	v := r.view()
	for i, e := range v.entries {
		r.note(i, storage.Probe(e.store))
	}
	return r.Health()
}

// Health reports, per shard (entry order), the error of its most
// recent operation (nil = healthy).
func (r *Router) Health() []error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]error(nil), r.lastErr...)
}

// Sync runs anti-entropy on every shard that supports it (replicated
// shards), returning total copies. Shards without a Sync are skipped.
func (r *Router) Sync() (int, error) {
	v := r.view()
	total := 0
	for _, e := range v.entries {
		if s, ok := e.store.(interface{ Sync() (int, error) }); ok {
			n, err := s.Sync()
			total += n
			if err != nil {
				return total, err
			}
		}
	}
	return total, nil
}

// Repairs sums read-repair counts across shards that report them.
func (r *Router) Repairs() int64 {
	v := r.view()
	var total int64
	for _, e := range v.entries {
		if s, ok := e.store.(interface{ Repairs() int64 }); ok {
			total += s.Repairs()
		}
	}
	return total
}

// AddShard adds a backend to the ring. The change is a two-step
// protocol: after AddShard, writes route by the new ring while reads
// fall back to the old placement, and Rebalance then migrates the ~1/N
// of keys the ring remapped. One membership change may be in flight at
// a time.
func (r *Router) AddShard(name string, store storage.PersistStore) error {
	if store == nil {
		return fmt.Errorf("shard: nil store for %q", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.prev != nil {
		return fmt.Errorf("shard: membership change already pending; run Rebalance first")
	}
	newRing, err := r.ring.WithShard(name)
	if err != nil {
		return err
	}
	r.entries = append(r.entries, entry{name: name, store: store})
	r.lastErr = append(r.lastErr, nil)
	r.prev, r.prevIdx = r.ring, r.ringIdx
	r.ring = newRing
	r.ringIdx = r.indexRing(newRing)
	obs.Instant("shard", "add", "shard", name)
	return nil
}

// RemoveShard takes a shard off the ring. Its backend keeps serving
// reads (and Rebalance drains it) until the migration completes, at
// which point it is dropped from the router.
func (r *Router) RemoveShard(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.prev != nil {
		return fmt.Errorf("shard: membership change already pending; run Rebalance first")
	}
	newRing, err := r.ring.WithoutShard(name)
	if err != nil {
		return err
	}
	r.prev, r.prevIdx = r.ring, r.ringIdx
	r.ring = newRing
	r.ringIdx = r.indexRing(newRing)
	obs.Instant("shard", "remove", "shard", name)
	return nil
}

// RebalanceStats describes one migration.
type RebalanceStats struct {
	// KeysExamined counts key locations listed across all shards
	// (a key present in two locations counts twice).
	KeysExamined int
	// KeysMoved were copied to their new shard and removed from the
	// old; BytesMoved is their payload volume.
	KeysMoved  int
	BytesMoved int64
	// KeysDeduped already existed at their new location (e.g. written
	// there after the membership change) and only had the stale source
	// copy deleted.
	KeysDeduped int
}

// MovedFraction is KeysMoved / KeysExamined (0 when nothing listed) —
// with consistent hashing it stays near 1/N after growing to N shards.
func (s RebalanceStats) MovedFraction() float64 {
	if s.KeysExamined == 0 {
		return 0
	}
	return float64(s.KeysMoved) / float64(s.KeysExamined)
}

// Rebalance migrates every key whose shard changed in the pending
// membership change, copy-then-delete, then retires the old ring (and
// any removed shard's backend). Concurrent readers are safe throughout:
// Get falls back across both locations and the copy lands before the
// delete. Writers and the refcount GC are excluded for the duration via
// the configured guard — chunk keys are immutable, but manifests are
// rewritten in place, and copying a stale manifest over a fresh one
// would undo a commit. Without a guard wired, the caller must quiesce
// writers and GC itself.
//
// A mid-migration crash loses only the in-memory old ring: both copies
// of already-moved keys are gone from the old location, unmoved keys
// are still at it. Reopen the router with the OLD membership, replay
// the membership change, and Rebalance again to finish (idempotent —
// already-moved keys are skipped as already placed).
func (r *Router) Rebalance() (RebalanceStats, error) {
	r.mu.RLock()
	guard := r.guard
	r.mu.RUnlock()
	if guard != nil {
		guard.Lock()
		defer guard.Unlock()
	}
	v := r.view()
	var st RebalanceStats
	sp := obs.Start("shard", "Rebalance")
	defer func() {
		sp.AttrInt("keys_moved", int64(st.KeysMoved)).AttrInt("bytes_moved", st.BytesMoved)
		sp.End()
	}()
	if v.prev == nil {
		return st, nil
	}

	// One listing pass up front: per-shard key sets double as the
	// "does the destination already hold it" check, so each key costs
	// at most one Get and one Put.
	have := make([]map[string]bool, len(v.entries))
	for i, e := range v.entries {
		keys, err := e.store.Keys("")
		r.note(i, err)
		if err != nil {
			return st, fmt.Errorf("shard: rebalance: list %s: %w", e.name, err)
		}
		have[i] = make(map[string]bool, len(keys))
		for _, k := range keys {
			have[i][k] = true
		}
	}

	// Snapshot every shard's key list before moving anything: moves
	// mutate have[dest], and a moved key must not be re-examined when
	// its destination shard's turn comes.
	listed := make([][]string, len(have))
	for i, set := range have {
		keys := make([]string, 0, len(set))
		for k := range set {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		listed[i] = keys
	}
	for i, keys := range listed {
		for _, k := range keys {
			st.KeysExamined++
			dest := v.locate(k)
			if dest == i {
				continue
			}
			src := v.entries[i].store
			if !have[dest][k] {
				data, err := viewOrGet(src, k)
				if err != nil {
					r.note(i, err)
					return st, fmt.Errorf("shard: rebalance: read %s from %s: %w", k, v.entries[i].name, err)
				}
				if err := v.entries[dest].store.Put(k, data); err != nil {
					r.note(dest, err)
					return st, fmt.Errorf("shard: rebalance: copy %s to %s: %w", k, v.entries[dest].name, err)
				}
				have[dest][k] = true
				st.KeysMoved++
				st.BytesMoved += int64(len(data))
			} else {
				st.KeysDeduped++
			}
			if err := src.Delete(k); err != nil && !errors.Is(err, storage.ErrNotFound) {
				r.note(i, err)
				return st, fmt.Errorf("shard: rebalance: delete %s from %s: %w", k, v.entries[i].name, err)
			}
		}
	}

	// Migration complete: retire the old ring and drop drained
	// backends that left the ring.
	r.mu.Lock()
	inRing := make(map[string]bool)
	for _, n := range r.ring.Names() {
		inRing[n] = true
	}
	var entries []entry
	var lastErr []error
	for i, e := range r.entries {
		if inRing[e.name] {
			entries = append(entries, e)
			lastErr = append(lastErr, r.lastErr[i])
		}
	}
	r.entries, r.lastErr = entries, lastErr
	r.prev, r.prevIdx = nil, nil
	r.ringIdx = r.indexRing(r.ring)
	r.mu.Unlock()
	return st, nil
}

var (
	_ storage.PersistStore = (*Router)(nil)
	_ storage.Viewer       = (*Router)(nil)
	_ storage.Sharder      = (*Router)(nil)
)
