package readserve

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"moc/internal/storage"
	"moc/internal/storage/cas"
	"moc/internal/storage/storagetest"
)

// countingStore counts backend Gets — the ground truth every hierarchy
// test asserts against.
type countingStore struct {
	storage.PersistStore
	gets atomic.Int64
}

func (s *countingStore) Get(key string) ([]byte, error) {
	s.gets.Add(1)
	return s.PersistStore.Get(key)
}

// gateStore parks chunk Gets until release is closed (other keys —
// manifests, round records — pass straight through so stores can open),
// counting the fetches that actually ran.
type gateStore struct {
	storage.PersistStore
	release   chan struct{}
	chunkGets atomic.Int64
}

func (s *gateStore) Get(key string) ([]byte, error) {
	if strings.HasPrefix(key, cas.ChunkPrefix) {
		s.chunkGets.Add(1)
		<-s.release
	}
	return s.PersistStore.Get(key)
}

// waitFor polls cond until it holds or the test deadline is blown.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	if !storagetest.Eventually(10*time.Second, time.Millisecond, cond) {
		t.Fatal("condition not reached in time")
	}
}

func mustTier(t *testing.T, backend storage.PersistStore, cfg Config) *Tier {
	t.Helper()
	tier, err := New(backend, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tier
}

func mustNode(t *testing.T, tier *Tier) *Node {
	t.Helper()
	n, err := tier.NewNode()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestGroupCoalescesConcurrentCalls(t *testing.T) {
	var g Group[int]
	release := make(chan struct{})
	started := make(chan struct{})
	var calls atomic.Int64
	leaderFn := func() (int, error) {
		calls.Add(1)
		close(started)
		<-release
		return 7, nil
	}

	const waiters = 15
	type result struct {
		v      int
		shared bool
		err    error
	}
	results := make(chan result, waiters+1)
	go func() {
		v, shared, err := g.Do("k", leaderFn)
		results <- result{v, shared, err}
	}()
	<-started // the flight is registered; everyone below must attach
	for i := 0; i < waiters; i++ {
		go func() {
			v, shared, err := g.Do("k", func() (int, error) {
				calls.Add(1)
				return -1, nil
			})
			results <- result{v, shared, err}
		}()
	}
	waitFor(t, func() bool { return g.Coalesced() == waiters })
	close(release)

	leaders := 0
	for i := 0; i < waiters+1; i++ {
		r := <-results
		if r.err != nil || r.v != 7 {
			t.Fatalf("Do = %d, %v; want the leader's 7", r.v, r.err)
		}
		if !r.shared {
			leaders++
		}
	}
	if leaders != 1 || calls.Load() != 1 {
		t.Fatalf("leaders/calls = %d/%d, want 1/1", leaders, calls.Load())
	}
	if g.PeakWaiters() != waiters {
		t.Fatalf("PeakWaiters = %d, want %d", g.PeakWaiters(), waiters)
	}
	// The flight is gone: a later call runs its own fn.
	v, shared, err := g.Do("k", func() (int, error) { return 42, nil })
	if v != 42 || shared || err != nil {
		t.Fatalf("post-flight Do = %d, %v, %v", v, shared, err)
	}
}

func TestGroupSharesTheLeaderError(t *testing.T) {
	var g Group[int]
	release := make(chan struct{})
	started := make(chan struct{})
	boom := errors.New("backend down")
	errs := make(chan error, 2)
	go func() {
		_, _, err := g.Do("k", func() (int, error) {
			close(started)
			<-release
			return 0, boom
		})
		errs <- err
	}()
	<-started
	go func() {
		_, _, err := g.Do("k", func() (int, error) { return 1, nil })
		errs <- err
	}()
	waitFor(t, func() bool { return g.Coalesced() == 1 })
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, boom) {
			t.Fatalf("flight error = %v, want the leader's", err)
		}
	}
}

func TestGroupLeaderPanicFailsWaitersAndRepanics(t *testing.T) {
	var g Group[int]
	release := make(chan struct{})
	started := make(chan struct{})
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		g.Do("k", func() (int, error) {
			close(started)
			<-release
			panic("boom")
		})
	}()
	<-started
	waiterErr := make(chan error, 1)
	go func() {
		_, _, err := g.Do("k", func() (int, error) { return 1, nil })
		waiterErr <- err
	}()
	waitFor(t, func() bool { return g.Coalesced() == 1 })
	close(release)
	if p := <-panicked; p != "boom" {
		t.Fatalf("leader panic swallowed: recovered %v", p)
	}
	if err := <-waiterErr; err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("waiter error = %v, want the panic surfaced", err)
	}
	// The group is not wedged: the abandoned flight was completed.
	v, shared, err := g.Do("k", func() (int, error) { return 9, nil })
	if v != 9 || shared || err != nil {
		t.Fatalf("post-panic Do = %d, %v, %v", v, shared, err)
	}
}

func TestTierPromotionServesSecondNodeFromWarmTier(t *testing.T) {
	inner := storage.NewMemStore()
	payload := []byte("chunk payload")
	if err := inner.Put("k", payload); err != nil {
		t.Fatal(err)
	}
	cb := &countingStore{PersistStore: inner}
	tier := mustTier(t, cb, Config{L1Bytes: 1 << 20, L2Bytes: 1 << 20})
	n1, n2 := mustNode(t, tier), mustNode(t, tier)

	// Node 1's cold read fetches the backend once and warms the L2.
	got, err := n1.Get("k")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("cold read: %q %v", got, err)
	}
	if cb.gets.Load() != 1 {
		t.Fatalf("backend gets = %d, want 1", cb.gets.Load())
	}
	// Node 2's read is an L1 miss but an L2 hit: a promotion, no
	// backend traffic.
	if _, err := n2.Get("k"); err != nil {
		t.Fatal(err)
	}
	if cb.gets.Load() != 1 {
		t.Fatalf("promotion reached the backend: gets = %d", cb.gets.Load())
	}
	st := tier.Stats()
	if st.BackendGets != 1 || st.Promotions != 1 || st.L2Hits != 1 || st.L2Misses != 1 {
		t.Fatalf("stats after promotion: %+v", st)
	}
	if st.Nodes != 2 {
		t.Fatalf("Nodes = %d, want 2", st.Nodes)
	}
	// Both L1s are now resident; repeat reads never leave the nodes.
	n1.Get("k")
	n2.Get("k")
	if st := tier.Stats(); st.L1Hits != 2 || st.BackendGets != 1 {
		t.Fatalf("stats after warm reads: %+v", st)
	}
	// Get results are private copies: mutating one must not poison the
	// caches.
	got[0] ^= 0xff
	again, err := n1.Get("k")
	if err != nil || !bytes.Equal(again, payload) {
		t.Fatal("cached payload shares a caller's buffer")
	}
}

func TestTierWriteThroughWarmsBothLevels(t *testing.T) {
	inner := storage.NewMemStore()
	cb := &countingStore{PersistStore: inner}
	tier := mustTier(t, cb, Config{L1Bytes: 1 << 20, L2Bytes: 1 << 20})
	n1, n2 := mustNode(t, tier), mustNode(t, tier)

	payload := []byte("fresh checkpoint chunk")
	if err := n1.Put("k", payload); err != nil {
		t.Fatal(err)
	}
	// The write reached the backend (write-through, not write-back).
	if got, err := inner.Get("k"); err != nil || !bytes.Equal(got, payload) {
		t.Fatal("write did not reach the backend")
	}
	// A freshly persisted chunk is warm for the whole fleet: the writer
	// reads its own L1, other nodes promote from L2 — zero backend gets.
	if _, err := n1.Get("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := n2.Get("k"); err != nil {
		t.Fatal(err)
	}
	if cb.gets.Load() != 0 {
		t.Fatalf("reads after write-through reached the backend: %d", cb.gets.Load())
	}
}

func TestTierDeleteInvalidatesEveryNode(t *testing.T) {
	inner := storage.NewMemStore()
	if err := inner.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	tier := mustTier(t, inner, Config{L1Bytes: 1 << 20, L2Bytes: 1 << 20})
	n1, n2 := mustNode(t, tier), mustNode(t, tier)
	// Warm both nodes, then delete through one of them.
	n1.Get("k")
	n2.Get("k")
	if err := n1.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := inner.Get("k"); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("backend still holds deleted key: %v", err)
	}
	// No level may keep serving the deleted chunk — not even the other
	// node's L1.
	if _, err := n2.Get("k"); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("tier served a deleted chunk: %v", err)
	}
}

func TestTierDropColdStartsEveryLevel(t *testing.T) {
	inner := storage.NewMemStore()
	if err := inner.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	cb := &countingStore{PersistStore: inner}
	tier := mustTier(t, cb, Config{})
	n := mustNode(t, tier)
	n.Get("k")
	if cb.gets.Load() != 1 {
		t.Fatal("seed read missing")
	}
	tier.Drop()
	// Both levels are empty: the next read pays the backend again.
	n.Get("k")
	if cb.gets.Load() != 2 {
		t.Fatalf("Drop left a level warm: gets = %d", cb.gets.Load())
	}
}

func TestTierCrossNodeReadersCoalesceOneColdChunk(t *testing.T) {
	// The acceptance shape at tier level: 64 nodes race one cold chunk;
	// the L2's singleflight collapses them into a single backend get.
	inner := storage.NewMemStore()
	payload := []byte("one cold chunk")
	if err := inner.Put(cas.ChunkPrefix+"deadbeef", payload); err != nil {
		t.Fatal(err)
	}
	gate := &gateStore{PersistStore: inner, release: make(chan struct{})}
	tier := mustTier(t, gate, Config{})

	const readers = 64
	nodes := make([]*Node, readers)
	for i := range nodes {
		nodes[i] = mustNode(t, tier)
	}
	errs := make(chan error, readers)
	for i := 0; i < readers; i++ {
		go func(i int) {
			got, err := nodes[i].Get(cas.ChunkPrefix + "deadbeef")
			if err == nil && !bytes.Equal(got, payload) {
				err = errors.New("payload mismatch")
			}
			errs <- err
		}(i)
	}
	// The L2 cache counts a miss under its lock before attaching to the
	// in-flight fetch, so 64 L2-level misses means the leader is parked
	// in the backend and all 63 others are on its flight.
	waitFor(t, func() bool { return tier.l2.Stats().Misses == readers })
	close(gate.release)
	for i := 0; i < readers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if n := gate.chunkGets.Load(); n != 1 {
		t.Fatalf("backend gets = %d, want exactly 1", n)
	}
	st := tier.Stats()
	if st.BackendGets != 1 || st.L2Coalesced != readers-1 {
		t.Fatalf("coalescing stats: %+v", st)
	}
}

// seedRound writes a round of named modules into a cas store over mem
// and returns the per-module payloads.
func seedRound(t *testing.T, mem storage.PersistStore, round int, names ...string) map[string][]byte {
	t.Helper()
	st, err := cas.Open(mem, cas.Options{ChunkSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	modules := make(map[string][]byte, len(names))
	for i, name := range names {
		modules[name] = bytes.Repeat([]byte{byte('a' + i)}, 2048+i*512)
	}
	if _, err := st.WriteRound(round, modules); err != nil {
		t.Fatal(err)
	}
	return modules
}

func TestPoolCoalescesConcurrentReadRound(t *testing.T) {
	mem := storage.NewMemStore()
	want := seedRound(t, mem, 1, "w0/a", "w0/b")
	gate := &gateStore{PersistStore: mem, release: make(chan struct{})}
	st, err := cas.Open(gate, cas.Options{ChunkSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewPool(st)
	if err != nil {
		t.Fatal(err)
	}

	const readers = 8
	results := make(chan map[string][]byte, readers)
	errs := make(chan error, readers)
	for i := 0; i < readers; i++ {
		go func() {
			got, err := pool.ReadRound(1)
			if err != nil {
				errs <- err
				return
			}
			results <- got
		}()
	}
	// The leader is parked in the gated chunk fetch; wait until the
	// other seven have attached to its flight, then let it finish.
	waitFor(t, func() bool { return gate.chunkGets.Load() >= 1 && pool.g.Coalesced() == readers-1 })
	close(gate.release)
	concurrentGets := int64(0)
	for i := 0; i < readers; i++ {
		select {
		case got := <-results:
			for name, data := range want {
				if !bytes.Equal(got[name], data) {
					t.Fatalf("module %s corrupt in coalesced restore", name)
				}
			}
		case err := <-errs:
			t.Fatal(err)
		}
	}
	concurrentGets = gate.chunkGets.Load()
	ps := pool.Stats()
	if ps.Restores != readers || ps.Coalesced != readers-1 {
		t.Fatalf("pool stats = %+v, want %d restores / %d coalesced", ps, readers, readers-1)
	}
	// Eight concurrent restores cost exactly one recovery fan-out: the
	// chunk traffic equals a single serial restore's.
	if _, err := pool.ReadRound(1); err != nil {
		t.Fatal(err)
	}
	serialGets := gate.chunkGets.Load() - concurrentGets
	if concurrentGets != serialGets {
		t.Fatalf("concurrent cohort fetched %d chunks, one restore fetches %d", concurrentGets, serialGets)
	}
}

func TestPoolCoalescesSameSubsetOnly(t *testing.T) {
	mem := storage.NewMemStore()
	want := seedRound(t, mem, 2, "w0/a", "w0/b")
	gate := &gateStore{PersistStore: mem, release: make(chan struct{})}
	st, err := cas.Open(gate, cas.Options{ChunkSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewPool(st)
	if err != nil {
		t.Fatal(err)
	}

	type res struct {
		got map[string][]byte
		err error
	}
	both := make(chan res, 2)
	only := make(chan res, 1)
	go func() {
		got, err := pool.ReadModules(2, []string{"w0/a", "w0/b"})
		both <- res{got, err}
	}()
	waitFor(t, func() bool { return gate.chunkGets.Load() >= 1 })
	// Same subset in a different order attaches to the flight (the key
	// is order-insensitive); a different subset runs its own restore.
	go func() {
		got, err := pool.ReadModules(2, []string{"w0/b", "w0/a"})
		both <- res{got, err}
	}()
	waitFor(t, func() bool { return pool.g.Coalesced() == 1 })
	go func() {
		got, err := pool.ReadModules(2, []string{"w0/a"})
		only <- res{got, err}
	}()
	waitFor(t, func() bool {
		pool.g.mu.Lock()
		defer pool.g.mu.Unlock()
		return len(pool.g.flights) == 2
	})
	close(gate.release)
	for i := 0; i < 2; i++ {
		r := <-both
		if r.err != nil || len(r.got) != 2 {
			t.Fatalf("subset restore: %d modules, %v", len(r.got), r.err)
		}
		for name, data := range want {
			if !bytes.Equal(r.got[name], data) {
				t.Fatalf("module %s corrupt", name)
			}
		}
	}
	r := <-only
	if r.err != nil || len(r.got) != 1 || !bytes.Equal(r.got["w0/a"], want["w0/a"]) {
		t.Fatalf("single-module restore: %d modules, %v", len(r.got), r.err)
	}
	ps := pool.Stats()
	if ps.Restores != 3 || ps.Coalesced != 1 {
		t.Fatalf("pool stats = %+v, want 3 restores / 1 coalesced", ps)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("nil backend accepted")
	}
	if _, err := New(storage.NewMemStore(), Config{L1Bytes: -1}); err == nil {
		t.Fatal("negative capacity accepted")
	}
	if _, err := NewPool(nil); err == nil {
		t.Fatal("nil store accepted")
	}
}

func TestNodeShardPassthroughDefaults(t *testing.T) {
	tier := mustTier(t, storage.NewMemStore(), Config{})
	n := mustNode(t, tier)
	if n.ShardCount() != 1 || n.Locate("k") != 0 {
		t.Fatalf("unsharded backend passthrough: %d/%d", n.ShardCount(), n.Locate("k"))
	}
}

// TestPoolSharesPayloadsStillInMemory: a subset read finds the modules a
// caller still holds and reads only the rest; the shared payload is the
// same buffer, not a copy; a payload no caller holds any more is gone once
// the collector has run, so the next read fetches it again; and a payload
// can never outlive what it was read from — rewriting the round, a store
// Refresh, or Forget makes the next read go back to the store.
func TestPoolSharesPayloadsStillInMemory(t *testing.T) {
	mem := storage.NewMemStore()
	want := seedRound(t, mem, 3, "w0/a", "w0/b", "w0/c")
	gate := &gateStore{PersistStore: mem, release: make(chan struct{})}
	close(gate.release) // count chunk gets, hold nothing
	st, err := cas.Open(gate, cas.Options{ChunkSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewPool(st)
	if err != nil {
		t.Fatal(err)
	}
	read := func(names ...string) map[string][]byte {
		t.Helper()
		got, err := pool.ReadModules(3, names)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range names {
			if !bytes.Equal(got[n], want[n]) {
				t.Fatalf("module %s: wrong bytes", n)
			}
		}
		return got
	}
	chunks := func(names ...string) (n int64) {
		for _, name := range names {
			n += int64((len(want[name]) + 511) / 512)
		}
		return n
	}
	fetched := func(since int64, wantGets int64, what string) int64 {
		t.Helper()
		now := gate.chunkGets.Load()
		if now-since != wantGets {
			t.Fatalf("%s fetched %d chunks, want %d", what, now-since, wantGets)
		}
		return now
	}

	// Shared while held.
	first := read("w0/a", "w0/b")
	gets := gate.chunkGets.Load()
	again := read("w0/b", "w0/a", "w0/a")
	gets = fetched(gets, 0, "a repeated subset")
	if &again["w0/a"][0] != &first["w0/a"][0] {
		t.Fatal("the repeated read copied the payload instead of sharing it")
	}
	// One module held, one not: only the other one is read.
	read("w0/a", "w0/c")
	gets = fetched(gets, chunks("w0/c"), "a mixed subset")
	if ps := pool.Stats(); ps.Restores != 3 || ps.Shared != 1 || ps.Coalesced != 0 {
		t.Fatalf("pool stats = %+v, want 3 restores / 1 shared", ps)
	}
	if _, err := pool.ReadModules(3, []string{"w0/a", "nope"}); !errors.Is(err, cas.ErrModuleNotFound) {
		t.Fatalf("absent module beside a shared one: %v", err)
	}
	runtime.KeepAlive(first)
	runtime.KeepAlive(again)

	// Fetched again once dropped: no caller holds a or b, and the pool's
	// reference does not keep them.
	first, again = nil, nil
	runtime.GC()
	held := read("w0/a", "w0/b")
	gets = fetched(gets, chunks("w0/a", "w0/b"), "a subset dropped and collected")

	// Never served across a store Refresh: the held payload belongs to a
	// manifest entry the store no longer resolves.
	if err := st.Refresh(); err != nil {
		t.Fatal(err)
	}
	refreshed := read("w0/a")
	gets = fetched(gets, chunks("w0/a"), "a read after Refresh")
	if &refreshed["w0/a"][0] == &held["w0/a"][0] {
		t.Fatal("a payload read before Refresh was served after it")
	}
	read("w0/a")
	gets = fetched(gets, 0, "a repeated read after Refresh")

	// Nor across a rewrite of the round, nor across Forget.
	rewritten := bytes.Repeat([]byte{'z'}, 1024)
	if _, err := st.WriteRound(3, map[string][]byte{"w0/a": rewritten}); err != nil {
		t.Fatal(err)
	}
	if got, err := pool.ReadModules(3, []string{"w0/a"}); err != nil || !bytes.Equal(got["w0/a"], rewritten) {
		t.Fatalf("read after rewrite returned the old payload (%v)", err)
	}
	gets = gate.chunkGets.Load()
	pool.Forget()
	if got, err := pool.ReadModules(3, []string{"w0/a"}); err != nil || !bytes.Equal(got["w0/a"], rewritten) || gate.chunkGets.Load() == gets {
		t.Fatalf("read after Forget did not go back to the store (%v)", err)
	}
	runtime.KeepAlive(held)
	runtime.KeepAlive(refreshed)
}

func TestPoolSharingIsSafeUnderConcurrentReaders(t *testing.T) {
	mem := storage.NewMemStore()
	want := seedRound(t, mem, 5, "w0/a", "w0/b", "w0/c", "w0/d")
	st, err := cas.Open(mem, cas.Options{ChunkSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewPool(st)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"w0/a", "w0/b", "w0/c", "w0/d"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sub := []string{names[(g+i)%4], names[(g+2*i+1)%4]}
				got, err := pool.ReadModules(5, sub)
				if err != nil {
					t.Error(err)
					return
				}
				for _, n := range sub {
					if !bytes.Equal(got[n], want[n]) {
						t.Errorf("module %s: wrong bytes", n)
						return
					}
				}
				if i%50 == 49 {
					pool.Forget()
				}
			}
		}(g)
	}
	wg.Wait()
}

// A node's write-through warms its L1 and the shared tier (which admits
// on every miss) with copies.
func TestPutDoesNotRetain(t *testing.T) {
	t.Run("admit-on-miss", func(t *testing.T) {
		storagetest.CheckPutDoesNotRetain(t, mustNode(t, mustTier(t, storage.NewMemStore(), Config{})))
	})
}
