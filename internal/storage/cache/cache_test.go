package cache

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"moc/internal/simtime"
	"moc/internal/storage"
	"moc/internal/storage/storagetest"
)

func mustNew(t *testing.T, inner storage.PersistStore, capacity int64) *Store {
	t.Helper()
	c, err := New(inner, capacity)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestReadThroughAndHitAccounting(t *testing.T) {
	inner := storage.NewMemStore()
	if err := inner.Put("k", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	c := mustNew(t, inner, 1<<20)
	for i := 0; i < 3; i++ {
		got, err := c.Get("k")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, []byte("hello")) {
			t.Fatal("payload mismatch")
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("hits/misses %d/%d, want 2/1", st.Hits, st.Misses)
	}
	if st.HitBytes != 10 || st.MissBytes != 5 {
		t.Fatalf("hit/miss bytes %d/%d", st.HitBytes, st.MissBytes)
	}
	if r := st.HitRatio(); r < 0.66 || r > 0.67 {
		t.Fatalf("hit ratio %v, want 2/3", r)
	}
}

func TestWriteThroughPopulatesCacheAndBackend(t *testing.T) {
	inner := storage.NewMemStore()
	c := mustNew(t, inner, 1<<20)
	if err := c.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := inner.Get("k"); err != nil {
		t.Fatal("write did not reach the backend")
	}
	if _, err := c.Get("k"); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("read after write missed: %+v", st)
	}
}

func TestFailedBackendPutIsNotCached(t *testing.T) {
	inner := &failingStore{err: errors.New("backend refused")}
	c := mustNew(t, inner, 1<<20)
	if err := c.Put("k", []byte("v")); err == nil {
		t.Fatal("put succeeded against a failing backend")
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatal("cache holds bytes the backend never accepted")
	}
}

func TestLRUEvictionOrderAndSizeBound(t *testing.T) {
	inner := storage.NewMemStore()
	c := mustNew(t, inner, 30) // room for 3 × 10-byte values
	blob := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 10) }
	for i := 0; i < 3; i++ {
		if err := c.Put(fmt.Sprintf("k%d", i), blob(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch k0 so k1 becomes the LRU victim.
	if _, err := c.Get("k0"); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("k3", blob(3)); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Bytes != 30 || st.Entries != 3 {
		t.Fatalf("stats %+v", st)
	}
	// k1 evicted (miss), k0 still resident (hit).
	base := c.Stats()
	if _, err := c.Get("k1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("k0"); err != nil {
		t.Fatal(err)
	}
	st = c.Stats()
	if st.Misses-base.Misses != 1 || st.Hits-base.Hits != 1 {
		t.Fatalf("LRU victim wrong: %+v vs %+v", st, base)
	}
}

func TestOversizedValueBypassesCache(t *testing.T) {
	inner := storage.NewMemStore()
	c := mustNew(t, inner, 10)
	if err := c.Put("big", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Entries != 0 || st.Evictions != 0 {
		t.Fatalf("oversized value admitted: %+v", st)
	}
	if got, err := c.Get("big"); err != nil || len(got) != 100 {
		t.Fatalf("oversized value unreadable: %v", err)
	}
}

func TestDeleteDropsCachedCopy(t *testing.T) {
	inner := storage.NewMemStore()
	c := mustNew(t, inner, 1<<20)
	if err := c.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("k"); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("deleted key served: err = %v", err)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("residency after delete: %+v", st)
	}
}

func TestDropColdStartsTheCache(t *testing.T) {
	inner := storage.NewMemStore()
	c := mustNew(t, inner, 1<<20)
	if err := c.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	c.Drop()
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("Drop left residency: %+v", st)
	}
	if _, err := c.Get("k"); err != nil {
		t.Fatal(err) // still in the backend
	}
	if st := c.Stats(); st.Misses != 1 {
		t.Fatalf("cold read did not miss: %+v", st)
	}
}

func TestKeysPassThrough(t *testing.T) {
	inner := storage.NewMemStore()
	c := mustNew(t, inner, 1<<20)
	for _, k := range []string{"a/1", "a/2", "b/3"} {
		if err := c.Put(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	keys, err := c.Keys("a/")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 {
		t.Fatalf("keys %v", keys)
	}
}

func TestConcurrentAccess(t *testing.T) {
	inner := storage.NewMemStore()
	c := mustNew(t, inner, 1<<12)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				key := fmt.Sprintf("k%d", (g+i)%32)
				if err := c.Put(key, bytes.Repeat([]byte{byte(i)}, 64)); err != nil {
					t.Error(err)
					return
				}
				if _, err := c.Get(key); err != nil && !errors.Is(err, storage.ErrNotFound) {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Bytes > st.Capacity {
		t.Fatalf("size bound violated: %+v", st)
	}
}

// failingStore errors every operation.
type failingStore struct{ err error }

func (f *failingStore) Put(string, []byte) error      { return f.err }
func (f *failingStore) Get(string) ([]byte, error)    { return nil, f.err }
func (f *failingStore) Delete(string) error           { return f.err }
func (f *failingStore) Keys(string) ([]string, error) { return nil, f.err }

// hookStore runs a callback after the inner Get completes but before
// the value is returned to the cache — the window in which a concurrent
// Delete can land between the miss's backend fetch and its admission.
type hookStore struct {
	storage.PersistStore
	onGet func(key string)
	onPut func(key string)
}

func (h *hookStore) Get(key string) ([]byte, error) {
	b, err := h.PersistStore.Get(key)
	if h.onGet != nil {
		h.onGet(key)
	}
	return b, err
}

func (h *hookStore) Put(key string, data []byte) error {
	err := h.PersistStore.Put(key, data)
	if h.onPut != nil {
		h.onPut(key)
	}
	return err
}

func TestDeleteDuringMissFillIsNotResurrected(t *testing.T) {
	// A Delete that lands between a miss's backend fetch and its cache
	// admission must win: the fetched value is stale the moment the
	// delete happens, and admitting it would serve a key the backend no
	// longer holds.
	inner := storage.NewMemStore()
	if err := inner.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	hooked := &hookStore{PersistStore: inner}
	c := mustNew(t, hooked, 1<<20)
	fired := false
	hooked.onGet = func(string) {
		if !fired {
			fired = true // only for the miss fetch below, not re-reads
			if err := c.Delete("k"); err != nil {
				t.Error(err)
			}
		}
	}
	// The miss fetch still returns the pre-delete value (it won the
	// backend read), but the cache must NOT admit it.
	if _, err := c.Get("k"); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("deleted key resurrected into the cache: %+v", st)
	}
	if _, err := c.Get("k"); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("cache served a key the backend deleted: err = %v", err)
	}
}

func TestDeleteDuringPutIsNotResurrected(t *testing.T) {
	// The write-path twin of the miss-fill race: a Delete landing
	// between the backend write and the cache admission must win.
	inner := storage.NewMemStore()
	hooked := &hookStore{PersistStore: inner}
	c := mustNew(t, hooked, 1<<20)
	fired := false
	hooked.onPut = func(string) {
		if !fired {
			fired = true
			if err := c.Delete("k"); err != nil {
				t.Error(err)
			}
		}
	}
	if err := c.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("deleted key resurrected into the cache by Put: %+v", st)
	}
	if _, err := c.Get("k"); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("cache served a key the backend deleted: err = %v", err)
	}
}

// Write-through keeps two copies, neither of them the caller's buffer: a
// roomy cache serves the read-backs itself, a cache too small to admit
// the payload serves them from the backend.
func TestPutDoesNotRetain(t *testing.T) {
	roomy := mustNew(t, storage.NewMemStore(), 1<<20)
	storagetest.CheckPutDoesNotRetain(t, roomy)
	if st := roomy.Stats(); st.Insertions != 2 || st.Hits != 4 || st.Misses != 0 {
		t.Errorf("write-through did not serve the read-backs from the cache: %+v", st)
	}
	tiny := mustNew(t, storage.NewMemStore(), 1)
	storagetest.CheckPutDoesNotRetain(t, tiny)
	if st := tiny.Stats(); st.Hits != 0 {
		t.Errorf("a 1-byte cache served hits: %+v", st)
	}
}

func TestGetViewHitServesWithoutCopy(t *testing.T) {
	inner := storage.NewMemStore()
	c := mustNew(t, inner, 1<<20)
	if err := c.Put("k", []byte("view-me")); err != nil {
		t.Fatal(err)
	}
	v1, err := c.GetView("k")
	if err != nil || string(v1) != "view-me" {
		t.Fatalf("view: %q %v", v1, err)
	}
	// Overwriting the key replaces the cached slice; the outstanding
	// view must stay intact (entries are replaced, never mutated).
	if err := c.Put("k", []byte("new-val")); err != nil {
		t.Fatal(err)
	}
	if string(v1) != "view-me" {
		t.Fatalf("outstanding view mutated: %q", v1)
	}
	st := c.Stats()
	if st.Hits != 1 {
		t.Fatalf("view hit not counted: %+v", st)
	}
}

func TestGetViewMissFillsAndAdmits(t *testing.T) {
	inner := storage.NewMemStore()
	if err := inner.Put("k", []byte("backend-only")); err != nil {
		t.Fatal(err)
	}
	c := mustNew(t, inner, 1<<20)
	v, err := c.GetView("k")
	if err != nil || string(v) != "backend-only" {
		t.Fatalf("miss view: %q %v", v, err)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Insertions != 1 {
		t.Fatalf("miss fill stats: %+v", st)
	}
	// Second read is a hit.
	if _, err := c.GetView("k"); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 1 {
		t.Fatalf("hit after fill: %+v", st)
	}
	if _, err := c.GetView("absent"); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("GetView(absent) = %v", err)
	}
}

// blockingStore parks every Get until release is closed, counting how
// many backend fetches actually ran — the ground truth a coalescing
// test asserts against.
type blockingStore struct {
	storage.PersistStore
	release chan struct{}
	gets    atomic.Int64
}

func (b *blockingStore) Get(key string) ([]byte, error) {
	b.gets.Add(1)
	<-b.release
	return b.PersistStore.Get(key)
}

// waitFor polls cond until it holds or the test deadline is blown.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	if !simtime.Eventually(10*time.Second, time.Millisecond, cond) {
		t.Fatal("condition not reached in time")
	}
}

func TestConcurrentMissesCoalesceIntoOneBackendGet(t *testing.T) {
	// N concurrent readers of one cold key must cost the backend exactly
	// one Get: the first miss leads the flight, the rest attach to it.
	inner := storage.NewMemStore()
	payload := []byte("cold chunk payload")
	if err := inner.Put("k", payload); err != nil {
		t.Fatal(err)
	}
	b := &blockingStore{PersistStore: inner, release: make(chan struct{})}
	c := mustNew(t, b, 1<<20)

	const readers = 64
	results := make(chan []byte, readers)
	errs := make(chan error, readers)
	for i := 0; i < readers; i++ {
		view := i%2 == 0 // both read paths share the flight
		go func() {
			var got []byte
			var err error
			if view {
				got, err = c.GetView("k")
			} else {
				got, err = c.Get("k")
			}
			if err != nil {
				errs <- err
				return
			}
			results <- got
		}()
	}
	// The leader registers its flight before releasing the lock, so by
	// the time all N misses are counted the other N−1 readers have
	// attached to it. Only then does the backend fetch complete.
	waitFor(t, func() bool { return c.Stats().Misses == readers })
	close(b.release)
	for i := 0; i < readers; i++ {
		select {
		case got := <-results:
			if !bytes.Equal(got, payload) {
				t.Fatal("payload mismatch")
			}
		case err := <-errs:
			t.Fatal(err)
		}
	}
	if n := b.gets.Load(); n != 1 {
		t.Fatalf("backend gets = %d, want 1", n)
	}
	st := c.Stats()
	if st.Misses != readers || st.Coalesced != readers-1 {
		t.Fatalf("misses/coalesced = %d/%d, want %d/%d", st.Misses, st.Coalesced, readers, readers-1)
	}
	// MissBytes counts backend transfer volume: one fetch, one payload.
	if st.MissBytes != int64(len(payload)) {
		t.Fatalf("MissBytes = %d, want %d (leader only)", st.MissBytes, len(payload))
	}
	if st.Insertions != 1 {
		t.Fatalf("insertions = %d, want 1", st.Insertions)
	}
}

func TestCoalescedMissesShareTheLeaderError(t *testing.T) {
	// Waiters attached to a failed flight all see the leader's error and
	// nothing is admitted; the next read retries the backend fresh.
	inner := storage.NewMemStore() // "missing" never written
	b := &blockingStore{PersistStore: inner, release: make(chan struct{})}
	c := mustNew(t, b, 1<<20)

	const readers = 8
	errs := make(chan error, readers)
	for i := 0; i < readers; i++ {
		go func() {
			_, err := c.Get("missing")
			errs <- err
		}()
	}
	waitFor(t, func() bool { return c.Stats().Misses == readers })
	close(b.release)
	for i := 0; i < readers; i++ {
		if err := <-errs; !errors.Is(err, storage.ErrNotFound) {
			t.Fatalf("coalesced miss error = %v, want ErrNotFound", err)
		}
	}
	if n := b.gets.Load(); n != 1 {
		t.Fatalf("backend gets = %d, want 1", n)
	}
	if st := c.Stats(); st.Entries != 0 || st.Insertions != 0 {
		t.Fatalf("failed flight admitted an entry: %+v", st)
	}
	// The flight is gone: a later read issues its own fetch.
	if _, err := c.Get("missing"); !errors.Is(err, storage.ErrNotFound) {
		t.Fatal(err)
	}
	if n := b.gets.Load(); n != 2 {
		t.Fatalf("post-flight read did not reach the backend: gets = %d", n)
	}
}

func TestGetCachedPeeksWithoutBackend(t *testing.T) {
	inner := storage.NewMemStore()
	if err := inner.Put("k", []byte("vv")); err != nil {
		t.Fatal(err)
	}
	c := mustNew(t, inner, 1<<20)
	// A cold GetCached reports false and counts nothing — the caller
	// decides what a miss means, so it must not skew the hit ratio.
	if _, ok := c.GetCached("k"); ok {
		t.Fatal("cold cache reported a hit")
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("GetCached miss counted: %+v", st)
	}
	if _, err := c.Get("k"); err != nil {
		t.Fatal(err)
	}
	v, ok := c.GetCached("k")
	if !ok || !bytes.Equal(v, []byte("vv")) {
		t.Fatalf("GetCached after fill = %q, %v", v, ok)
	}
	if st := c.Stats(); st.Hits != 1 || st.HitBytes != 2 {
		t.Fatalf("GetCached hit not counted like a view hit: %+v", st)
	}
}

func TestInvalidateDropsWithoutBackendDelete(t *testing.T) {
	inner := storage.NewMemStore()
	if err := inner.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	c := mustNew(t, inner, 1<<20)
	if _, err := c.Get("k"); err != nil {
		t.Fatal(err)
	}
	c.Invalidate("k")
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("Invalidate left residency: %+v", st)
	}
	if _, err := inner.Get("k"); err != nil {
		t.Fatal("Invalidate must not touch the backend")
	}
	// The key refills from the still-live backend copy.
	got, err := c.Get("k")
	if err != nil || string(got) != "v" {
		t.Fatalf("refill after Invalidate: %q %v", got, err)
	}
}

func TestInvalidateDuringMissFillIsNotResurrected(t *testing.T) {
	// The cache-only twin of the delete-during-fill race: an Invalidate
	// landing between the backend fetch and the admission must win.
	inner := storage.NewMemStore()
	if err := inner.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	hooked := &hookStore{PersistStore: inner}
	c := mustNew(t, hooked, 1<<20)
	fired := false
	hooked.onGet = func(string) {
		if !fired {
			fired = true
			c.Invalidate("k")
		}
	}
	if _, err := c.Get("k"); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("invalidated key resurrected into the cache: %+v", st)
	}
}

func TestConcurrentReadersDeletersUnderEvictionPressure(t *testing.T) {
	// Hammers every public entry point over a cache that can hold only a
	// quarter of the working set, so each fill races evictions, deletes,
	// and coalesced flights. Run under -race this locks in the delGen
	// guard and flight accounting; without it, the residency invariants
	// at the bottom do.
	inner := storage.NewMemStore()
	const (
		keys    = 32
		valSize = 64
		workers = 8
		iters   = 400
	)
	key := func(i int) string { return fmt.Sprintf("k%02d", i) }
	val := func(i int) []byte { return bytes.Repeat([]byte{byte('a' + i%26)}, valSize) }
	for i := 0; i < keys; i++ {
		if err := inner.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	c := mustNew(t, inner, keys/4*valSize)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				n := (w*7 + i*13) % keys
				k := key(n)
				switch i % 5 {
				case 0:
					if err := c.Put(k, val(n)); err != nil {
						t.Error(err)
					}
				case 1:
					if err := c.Delete(k); err != nil && !errors.Is(err, storage.ErrNotFound) {
						t.Error(err)
					}
				case 2:
					c.Invalidate(k)
				case 3:
					if v, err := c.GetView(k); err == nil && !bytes.Equal(v, val(n)) {
						t.Errorf("GetView(%s) corrupt", k)
					} else if err != nil && !errors.Is(err, storage.ErrNotFound) {
						t.Error(err)
					}
				default:
					if v, err := c.Get(k); err == nil && !bytes.Equal(v, val(n)) {
						t.Errorf("Get(%s) corrupt", k)
					} else if err != nil && !errors.Is(err, storage.ErrNotFound) {
						t.Error(err)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	st := c.Stats()
	if st.Bytes > st.Capacity {
		t.Fatalf("residency %d exceeds capacity %d", st.Bytes, st.Capacity)
	}
	if st.Misses-st.Coalesced < 0 {
		t.Fatalf("more coalesced than misses: %+v", st)
	}
	// The storm deleted arbitrary keys; restore and verify every payload
	// round-trips through the post-storm cache.
	for i := 0; i < keys; i++ {
		if err := c.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
		got, err := c.Get(key(i))
		if err != nil || !bytes.Equal(got, val(i)) {
			t.Fatalf("post-storm read of %s: %v", key(i), err)
		}
	}
}

// costed reports a fixed request cost.
type costed struct{ storage.PersistStore }

func (costed) RequestCost() (float64, float64) { return 0.004, 1 << 30 }

// The cache forwards its backend's request cost, so a writer above it
// sizes chunks for the backend; over a store that reports none it reads
// as memory speed.
func TestRequestCostForwardsTheBackends(t *testing.T) {
	if lat, bps := mustNew(t, costed{storage.NewMemStore()}, 1<<20).RequestCost(); lat != 0.004 || bps != 1<<30 {
		t.Fatalf("over a 4 ms × 1 GiB/s backend: %v, %v", lat, bps)
	}
	if lat, bps := mustNew(t, storage.NewMemStore(), 1<<20).RequestCost(); lat != 0 || bps != 0 {
		t.Fatalf("over a MemStore: %v, %v, want 0, 0", lat, bps)
	}
}
