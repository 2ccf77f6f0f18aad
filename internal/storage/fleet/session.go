package fleet

import (
	"strings"
	"sync"
	"sync/atomic"

	"moc/internal/storage"
	"moc/internal/storage/cas"
	"moc/internal/storage/readserve"
)

// Session is one job's write handle on the fleet: the lease epoch it is
// fenced on, the backend wrapper enforcing the fence, and the cas
// options that scope a store to the job's writer while sharing the
// fleet's presence index and write guard.
type Session struct {
	svc      *Service
	id       string
	writer   string
	epoch    int64
	node     *readserve.Node // job's read-tier L1 (nil without a tier)
	released atomic.Bool

	mu     sync.Mutex
	stores []*cas.Store
}

// JobID returns the job this session writes for.
func (se *Session) JobID() string { return se.id }

// Writer returns the cas writer id the session persists under.
func (se *Session) Writer() string { return se.writer }

// Epoch returns the lease epoch the session is fenced on.
func (se *Session) Epoch() int64 { return se.epoch }

func (se *Session) isReleased() bool { return se.released.Load() }
func (se *Session) markReleased()    { se.released.Store(true) }

// Release gives the lease back (idempotent). The session must not be
// used afterwards; its stores keep reading but can no longer commit.
func (se *Session) Release() error {
	if se.released.Swap(true) {
		return nil
	}
	return se.svc.release(se)
}

// Backend returns the shared backend wrapped with the session's fence:
// manifest commits are refused once the lease epoch is superseded, so
// an adopted job's previous writer fails cleanly instead of splitting
// the lineage. When the service runs a read tier, immutable chunk keys
// additionally route through the job's L1 node — caching and
// coalescing — while every other key passes through untouched.
func (se *Session) Backend() storage.PersistStore {
	return &fencedStore{sess: se, inner: se.svc.backend, node: se.node}
}

// Options injects the session's fleet wiring into a base cas.Options:
// the job's writer id, manifest scoping to it, the fleet-shared
// presence index, and the fleet-wide write guard.
func (se *Session) Options(base cas.Options) cas.Options {
	base.Writer = se.writer
	base.ScopeToWriter = true
	base.Shared = se.svc.shared
	base.Guard = &se.svc.guard
	return base
}

// Open opens the job's checkpoint store: cas.Open over the fenced
// backend with the session's options, tracked so a fleet-wide GC can
// refresh its caches.
func (se *Session) Open(base cas.Options) (*cas.Store, error) {
	st, err := cas.Open(se.Backend(), se.Options(base))
	if err != nil {
		return nil, err
	}
	se.Track(st)
	return st, nil
}

// Track registers a store opened elsewhere (the checkpoint agent opens
// its own) for cache refresh after fleet-wide GC.
func (se *Session) Track(st *cas.Store) {
	se.mu.Lock()
	se.stores = append(se.stores, st)
	se.mu.Unlock()
}

func (se *Session) trackedStores() []*cas.Store {
	se.mu.Lock()
	defer se.mu.Unlock()
	return append([]*cas.Store(nil), se.stores...)
}

// fencedStore wraps the shared backend for one session. Manifest puts
// carry the fence check (and renew the lease on success); everything
// else forwards. Chunk puts need no fence: content-addressed writes are
// idempotent, and an unreferenced chunk from a fenced writer is swept
// by the next Retain. With a read tier attached, chunk keys — immutable
// by content addressing, so always safe to cache — route through the
// job's L1 node instead of the raw backend.
type fencedStore struct {
	sess  *Session
	inner storage.PersistStore
	node  *readserve.Node // nil without a read tier
}

func (f *fencedStore) isManifest(key string) bool {
	return strings.HasPrefix(key, cas.ManifestPrefix)
}

// isChunk reports whether the key should route through the read tier:
// only content-addressed chunks, and only when a tier node is attached.
// Mutable keys (manifests, fleet records) must see the backend's
// current value, never a cache's.
func (f *fencedStore) isChunk(key string) bool {
	return f.node != nil && strings.HasPrefix(key, cas.ChunkPrefix)
}

// commitManifest runs the fence check, the manifest write, and the
// lease renewal under the job's lock, so an in-process Acquire/Adopt
// can never slip its epoch bump between the check and the write.
func (f *fencedStore) commitManifest(put func() error) error {
	svc := f.sess.svc
	l := svc.jobLock(f.sess.id)
	l.Lock()
	defer l.Unlock()
	j, err := svc.commitCheck(f.sess)
	if err != nil {
		return err
	}
	if err := put(); err != nil {
		return err
	}
	svc.renewLease(f.sess, j)
	return nil
}

// Put implements storage.PersistStore. Chunk puts write through the
// read tier when one is attached, warming the caches with exactly the
// bytes forks hydrate next.
func (f *fencedStore) Put(key string, data []byte) error {
	if f.isManifest(key) {
		return f.commitManifest(func() error { return f.inner.Put(key, data) })
	}
	if f.isChunk(key) {
		return f.node.Put(key, data)
	}
	return f.inner.Put(key, data)
}

// Get implements storage.PersistStore.
func (f *fencedStore) Get(key string) ([]byte, error) {
	if f.isChunk(key) {
		return f.node.Get(key)
	}
	return f.inner.Get(key)
}

// GetView implements storage.Viewer, delegating when the inner backend
// supports zero-copy reads and falling back to Get (whose private copy
// trivially satisfies the do-not-modify contract) otherwise.
func (f *fencedStore) GetView(key string) ([]byte, error) {
	if f.isChunk(key) {
		return f.node.GetView(key)
	}
	if v, ok := f.inner.(storage.Viewer); ok {
		return v.GetView(key)
	}
	return f.inner.Get(key)
}

// Delete implements storage.PersistStore. Chunk deletes go through the
// tier so every node's cached copy is invalidated with the backend's.
func (f *fencedStore) Delete(key string) error {
	if f.isChunk(key) {
		return f.node.Delete(key)
	}
	return f.inner.Delete(key)
}

// Keys implements storage.PersistStore.
func (f *fencedStore) Keys(prefix string) ([]string, error) { return f.inner.Keys(prefix) }

// ShardCount and Locate forward storage.Sharder when the shared backend
// is hash-partitioned, so a session's WriteRound still partitions its
// put fan-out per shard through the fence. An unsharded backend reports
// a single shard, which writers treat as the unpartitioned path.
func (f *fencedStore) ShardCount() int {
	if sh, ok := f.inner.(storage.Sharder); ok {
		return sh.ShardCount()
	}
	return 1
}

func (f *fencedStore) Locate(key string) int {
	if sh, ok := f.inner.(storage.Sharder); ok {
		return sh.Locate(key)
	}
	return 0
}

var (
	_ storage.PersistStore = (*fencedStore)(nil)
	_ storage.Viewer       = (*fencedStore)(nil)
	_ storage.Sharder      = (*fencedStore)(nil)
)
