package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrNotFound is returned when a key is absent from a store.
var ErrNotFound = fmt.Errorf("storage: key not found")

// PersistStore is the persistent-checkpoint interface: a durable key-value
// blob store standing in for the cluster's distributed filesystem.
//
// Put has the io.Writer contract: it must not retain data after it
// returns — it consumes the bytes during the call or copies what it keeps
// — and the caller may reuse the buffer at once. The checkpoint path
// relies on it: one pooled buffer goes from capture through every tier
// without a copy, and a wrapper forwards data to its inner store's Put
// as-is. The one hand-off that does retain is named differently
// (SnapshotStore.Adopt). mocvet's retainput analyzer enforces both.
type PersistStore interface {
	Put(key string, data []byte) error
	Get(key string) ([]byte, error)
	Delete(key string) error
	// Keys returns the stored keys with the given prefix, sorted.
	Keys(prefix string) ([]string, error)
}

// Probe is a liveness round trip: a Keys call under a prefix nothing is
// stored under, so only the backend's answer matters, not its data. The
// replica set's and the shard router's health probes and the fleet
// scrub's probe of a plain shard all use it.
func Probe(s PersistStore) error {
	_, err := s.Keys("zz/probe/")
	return err
}

// OwnedPutter named a second write method from before Put promised not to
// retain. Nothing in the tree implements or probes for it.
//
// Deprecated: use PersistStore; bench/span.go still names this type.
type OwnedPutter interface {
	PutOwned(key string, data []byte) error
}

// PutNoRetain is s.Put.
//
// Deprecated: call Put; bench/span.go still calls this function.
func PutNoRetain(s PersistStore, key string, data []byte) error { return s.Put(key, data) }

// Viewer is an optional PersistStore extension for zero-copy reads.
// GetView returns the stored bytes without the defensive copy Get makes.
// The returned slice is owned by the store: callers must not modify it.
// It remains valid after the key is overwritten, deleted, or evicted
// (implementations replace stored slices, never mutate them in place),
// so a reader holding a view cannot be corrupted by concurrent writes.
type Viewer interface {
	GetView(key string) ([]byte, error)
}

// Sharder is an optional PersistStore extension implemented by
// hash-partitioned stores. ShardCount reports how many backend shards
// the store routes over and Locate which of them (0-based) a key maps
// to. Pipelined writers probe for it to partition their put fan-out per
// shard — a queue per shard keeps one slow backend from stalling the
// whole round — and observability surfaces use it to attribute keys to
// shards without re-hashing.
type Sharder interface {
	ShardCount() int
	Locate(key string) int
}

// Coster is an optional PersistStore extension implemented by backends
// whose requests are round trips, not memory accesses. RequestCost
// reports the configured healthy per-request latency in seconds and the
// per-stream bandwidth in bytes per second. A writer sizes its fixed
// chunks from the product (cas.ChunkSizeFor), so a request moves enough
// bytes to stop being latency-bound. The report is configuration, not a
// measurement: a brownout does not change it, so the chunk size never
// moves mid-run. A store that does not implement it, or a wrapper that
// does not forward it, reads as memory speed.
type Coster interface {
	RequestCost() (latencySeconds, bytesPerSecond float64)
}

// SnapshotStore is a CPU-memory key-value store holding in-memory
// checkpoint snapshots on one node.
type SnapshotStore struct {
	mu    sync.RWMutex
	blobs map[string][]byte
	bytes int64
	// lent holds the keys whose current buffer Lend has handed out since
	// the last EndLoans. Such a buffer is never returned by Adopt
	// nor recycled by Put or Delete: a slot that lets go of it leaves it to
	// the garbage collector, its borrower may still be reading it.
	lent map[string]bool
}

// NewSnapshotStore creates an empty snapshot store.
func NewSnapshotStore() *SnapshotStore {
	return &SnapshotStore{blobs: make(map[string][]byte), lent: make(map[string]bool)}
}

// Adopt stores blob without copying it: ownership passes to the store and
// the caller must not touch blob afterwards. It returns the buffer the key
// held before (nil if none, or if that buffer is on loan), which now
// belongs to the caller — to recycle with PutBuf once nothing else reads
// it. The checkpoint agent captures module state straight into pooled
// buffers and adopts them here, so the snapshot level costs no copy. Get
// returns copies and Lend is remembered, which is what lets a replaced
// buffer go back to the pool at all.
func (s *SnapshotStore) Adopt(key string, blob []byte) (old []byte) {
	s.mu.Lock()
	old = s.blobs[key]
	s.blobs[key] = blob
	s.bytes += int64(len(blob)) - int64(len(old))
	if s.lent[key] {
		delete(s.lent, key)
		old = nil
	}
	s.mu.Unlock()
	return old
}

// Put stores a copy of data (as a DMA into host memory would). The copy
// lives in a pooled buffer: slots are rewritten with same-shaped payloads
// round after round, so the buffer retired here is almost always the one
// the next copy reuses.
func (s *SnapshotStore) Put(key string, data []byte) error {
	PutBuf(s.Adopt(key, CopyBuf(data)))
	return nil
}

// Get retrieves a blob or ErrNotFound.
func (s *SnapshotStore) Get(key string) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.blobs[key]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	return append([]byte(nil), b...), nil
}

// Lend returns the stored buffer itself, no copy, or ErrNotFound. The
// slice is read-only and stays intact for as long as the borrower holds
// it, whatever happens to its slot: the store remembers the loan and never
// lets a lent buffer reach the pool (see Adopt). The price is one pool miss
// per lent buffer that is replaced while the loan is open; EndLoans stops
// it.
func (s *SnapshotStore) Lend(key string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.blobs[key]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	s.lent[key] = true
	return b, nil
}

// EndLoans declares every buffer Lend has handed out unread from now on:
// the ones still stored are recycled as usual when their slots are next
// replaced. Borrowers must not touch them afterwards.
func (s *SnapshotStore) EndLoans() {
	s.mu.Lock()
	clear(s.lent)
	s.mu.Unlock()
}

// Delete removes a key (no error if absent).
func (s *SnapshotStore) Delete(key string) error {
	s.mu.Lock()
	old := s.blobs[key]
	if old != nil {
		s.bytes -= int64(len(old))
		delete(s.blobs, key)
	}
	if s.lent[key] {
		delete(s.lent, key)
		old = nil
	}
	s.mu.Unlock()
	PutBuf(old)
	return nil
}

// Keys lists keys with the prefix, sorted.
func (s *SnapshotStore) Keys(prefix string) ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []string
	for k := range s.blobs {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out, nil
}

// Bytes returns the resident snapshot volume.
func (s *SnapshotStore) Bytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.bytes
}

// MemStore is an in-memory PersistStore with optional simulated write
// bandwidth, used to model the distributed filesystem in tests and
// examples without touching disk.
type MemStore struct {
	mu    sync.RWMutex
	blobs map[string][]byte
	// BandwidthBps, when positive, charges every Put
	// len(data)/BandwidthBps seconds of transfer time to emulate the
	// persist channel. Charges accumulate in a debt that Put sleeps off
	// in quanta of at least a millisecond: time.Sleep cannot resolve
	// shorter waits (on coarse-timer hosts a 16 µs request actually
	// sleeps ~1 ms, inflating chunk-sized transfers >20x), so
	// sub-quantum transfers are charged accurately on average instead
	// of each being rounded up to timer granularity.
	BandwidthBps  float64
	bandwidthDebt atomic.Int64 // nanoseconds of unslept transfer time
	puts          int
	putBytes      int64
}

// bandwidthSleepQuantum is the smallest transfer-time debt worth
// handing to time.Sleep; below it, timer granularity dominates the
// request and the model would overcharge.
const bandwidthSleepQuantum = time.Millisecond

// chargeBandwidth accrues a transfer's modeled duration and sleeps off
// the store's accumulated debt once it reaches a schedulable quantum.
func (m *MemStore) chargeBandwidth(n int) {
	if m.BandwidthBps <= 0 {
		return
	}
	d := int64(float64(n) / m.BandwidthBps * float64(time.Second))
	m.bandwidthDebt.Add(d)
	for {
		debt := m.bandwidthDebt.Load()
		if debt < int64(bandwidthSleepQuantum) {
			return
		}
		if m.bandwidthDebt.CompareAndSwap(debt, 0) {
			//moc:allow walltime bandwidth cost model; storage sits below simtime in the import graph (simtime imports core imports storage)
			time.Sleep(time.Duration(debt))
			return
		}
	}
}

// NewMemStore creates an empty memory-backed persist store.
func NewMemStore() *MemStore {
	return &MemStore{blobs: make(map[string][]byte)}
}

// Put implements PersistStore.
func (m *MemStore) Put(key string, data []byte) error {
	m.chargeBandwidth(len(data))
	cp := append([]byte(nil), data...)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.blobs[key] = cp
	m.puts++
	m.putBytes += int64(len(cp))
	return nil
}

// Get implements PersistStore.
func (m *MemStore) Get(key string) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	b, ok := m.blobs[key]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	return append([]byte(nil), b...), nil
}

// GetView implements Viewer: the stored slice itself, no copy. Stored
// slices are replaced on overwrite, never mutated, so outstanding views
// stay intact.
func (m *MemStore) GetView(key string) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	b, ok := m.blobs[key]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	return b, nil
}

// Delete implements PersistStore.
func (m *MemStore) Delete(key string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.blobs, key)
	return nil
}

// Keys implements PersistStore.
func (m *MemStore) Keys(prefix string) ([]string, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []string
	for k := range m.blobs {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out, nil
}

// Stats returns the number of Put calls and total bytes written.
func (m *MemStore) Stats() (puts int, bytes int64) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.puts, m.putBytes
}

// FSStore is a PersistStore on the local filesystem: each key becomes a
// file under the root directory (path separators in keys map to
// directories). Writes go through a temporary file and rename so a crash
// never leaves a torn blob behind.
type FSStore struct {
	root string
}

// NewFSStore creates (if needed) and opens a filesystem store rooted at
// dir.
func NewFSStore(dir string) (*FSStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: create root: %w", err)
	}
	return &FSStore{root: dir}, nil
}

func (f *FSStore) path(key string) (string, error) {
	clean := filepath.Clean(key)
	if strings.HasPrefix(clean, "..") || filepath.IsAbs(clean) {
		return "", fmt.Errorf("storage: invalid key %q", key)
	}
	return filepath.Join(f.root, clean), nil
}

// Put implements PersistStore with atomic rename semantics. Each write
// goes through its own unique temporary file, so concurrent Puts to the
// same key cannot interleave on a shared temp path: the key ends up as
// one writer's complete blob, never a torn mix.
func (f *FSStore) Put(key string, data []byte) error {
	p, err := f.path(key)
	if err != nil {
		return err
	}
	dir := filepath.Dir(p)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(p)+".*.tmp")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// Get implements PersistStore.
func (f *FSStore) Get(key string) ([]byte, error) {
	p, err := f.path(key)
	if err != nil {
		return nil, err
	}
	b, err := os.ReadFile(p)
	if os.IsNotExist(err) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	return b, err
}

// Delete implements PersistStore.
func (f *FSStore) Delete(key string) error {
	p, err := f.path(key)
	if err != nil {
		return err
	}
	err = os.Remove(p)
	if os.IsNotExist(err) {
		return nil
	}
	return err
}

// Keys implements PersistStore. It may run beside Puts and Deletes:
// Walk lstat-s each entry after reading its directory, so a Put's
// temporary file renamed away (or a key deleted) in between reaches the
// callback as a not-exist error — such entries are simply not keys (a
// missing root is still an error).
func (f *FSStore) Keys(prefix string) ([]string, error) {
	var out []string
	err := filepath.Walk(f.root, func(path string, info os.FileInfo, err error) error {
		if strings.HasSuffix(path, ".tmp") || (os.IsNotExist(err) && path != f.root) {
			return nil
		}
		if err != nil || info.IsDir() {
			return err
		}
		rel, err := filepath.Rel(f.root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if strings.HasPrefix(rel, prefix) {
			out = append(out, rel)
		}
		return nil
	})
	sort.Strings(out)
	return out, err
}

var (
	_ PersistStore = (*MemStore)(nil)
	_ PersistStore = (*FSStore)(nil)
	_ Viewer       = (*MemStore)(nil)
)
