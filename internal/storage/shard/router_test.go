package shard

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"moc/internal/storage"
	"moc/internal/storage/replica"
	"moc/internal/storage/storagetest"
)

func newTestRouter(t *testing.T, n int) (*Router, []*storage.MemStore) {
	t.Helper()
	stores := make([]*storage.MemStore, n)
	cfg := Config{}
	for i := range stores {
		stores[i] = storage.NewMemStore()
		cfg.Stores = append(cfg.Stores, stores[i])
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r, stores
}

func TestRouterBasicOps(t *testing.T) {
	r, stores := newTestRouter(t, 4)
	const n = 200
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("k/%04d", i)
		if err := r.Put(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	// Every key readable through the router, stored on exactly the
	// shard Locate names, and spread over more than one backend.
	used := map[int]bool{}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("k/%04d", i)
		got, err := r.Get(k)
		if err != nil || string(got) != k {
			t.Fatalf("get %s: %v %q", k, err, got)
		}
		view, err := r.GetView(k)
		if err != nil || string(view) != k {
			t.Fatalf("getview %s: %v %q", k, err, view)
		}
		home := r.Locate(k)
		used[home] = true
		if _, err := stores[home].Get(k); err != nil {
			t.Fatalf("key %s not on its home shard %d", k, home)
		}
		for j := range stores {
			if j == home {
				continue
			}
			if _, err := stores[j].Get(k); err == nil {
				t.Fatalf("key %s duplicated on shard %d", k, j)
			}
		}
	}
	if len(used) < 2 {
		t.Fatalf("all keys on one shard: %v", used)
	}
	keys, err := r.Keys("k/")
	if err != nil || len(keys) != n {
		t.Fatalf("keys: %v, %d entries", err, len(keys))
	}
	if err := r.Delete(keys[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get(keys[0]); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("deleted key still readable: %v", err)
	}
}

// A shard that fails makes Keys fail loudly (shards are disjoint — a
// partial listing would look like data loss to a GC), and Probe/Health
// report which shard is down.
func TestRouterKeysFailsOnDownShard(t *testing.T) {
	mems := []*storage.MemStore{storage.NewMemStore(), storage.NewMemStore()}
	flaky := replica.NewFlaky(mems[1])
	r, err := New(Config{Stores: []storage.PersistStore{mems[0], flaky}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := r.Put(fmt.Sprintf("k/%03d", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	flaky.Fail()
	if _, err := r.Keys(""); err == nil {
		t.Fatal("Keys succeeded with a shard down")
	}
	health := r.Probe()
	if health[0] != nil || health[1] == nil {
		t.Fatalf("probe health = %v, want shard 1 down only", health)
	}
	flaky.Heal()
	if _, err := r.Keys(""); err != nil {
		t.Fatalf("Keys after heal: %v", err)
	}
}

func TestRouterRebalanceGrow(t *testing.T) {
	r, stores := newTestRouter(t, 3)
	const n = 600
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("k/%04d", i)
		if err := r.Put(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	added := storage.NewMemStore()
	if err := r.AddShard("shard-003", added); err != nil {
		t.Fatal(err)
	}
	if err := r.AddShard("shard-004", storage.NewMemStore()); err == nil {
		t.Fatal("second membership change accepted while one pending")
	}
	if !r.Migrating() {
		t.Fatal("not migrating after AddShard")
	}
	// Mid-migration, before Rebalance: every key still readable.
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("k/%04d", i)
		if _, err := r.Get(k); err != nil {
			t.Fatalf("mid-migration get %s: %v", k, err)
		}
	}
	st, err := r.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if r.Migrating() {
		t.Fatal("still migrating after Rebalance")
	}
	if st.KeysExamined != n {
		t.Fatalf("examined %d keys, want %d", st.KeysExamined, n)
	}
	if st.KeysMoved == 0 || st.BytesMoved == 0 {
		t.Fatalf("nothing moved: %+v", st)
	}
	// ~1/4 of keys move when growing 3->4; allow generous tolerance.
	frac := st.MovedFraction()
	if frac < 0.10 || frac > 0.40 {
		t.Fatalf("moved fraction %.3f outside [0.10, 0.40]", frac)
	}
	// Every key now lives on exactly its ring home.
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("k/%04d", i)
		got, err := r.Get(k)
		if err != nil || string(got) != k {
			t.Fatalf("post-rebalance get %s: %v", k, err)
		}
		home := r.Locate(k)
		all := append(append([]*storage.MemStore(nil), stores...), added)
		for j, s := range all {
			_, err := s.Get(k)
			if (err == nil) != (j == home) {
				t.Fatalf("key %s: shard %d presence wrong (home %d)", k, j, home)
			}
		}
	}
	// Idempotent: a second Rebalance with no pending change is a no-op.
	st2, err := r.Rebalance()
	if err != nil || st2.KeysMoved != 0 {
		t.Fatalf("no-op rebalance: %v %+v", err, st2)
	}
}

func TestRouterRebalanceShrink(t *testing.T) {
	r, stores := newTestRouter(t, 4)
	const n = 400
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("k/%04d", i)
		if err := r.Put(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.RemoveShard("shard-002"); err != nil {
		t.Fatal(err)
	}
	// Keys on the leaving shard still readable before the migration.
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("k/%04d", i)
		if _, err := r.Get(k); err != nil {
			t.Fatalf("mid-migration get %s: %v", k, err)
		}
	}
	if _, err := r.Rebalance(); err != nil {
		t.Fatal(err)
	}
	if got := r.Shards(); got != 3 {
		t.Fatalf("backends after shrink = %d, want 3", got)
	}
	keys, err := stores[2].Keys("")
	if err != nil || len(keys) != 0 {
		t.Fatalf("leaving shard not drained: %d keys (%v)", len(keys), err)
	}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("k/%04d", i)
		got, err := r.Get(k)
		if err != nil || string(got) != k {
			t.Fatalf("post-shrink get %s: %v", k, err)
		}
	}
}

// Acceptance: during a live 3->4 migration, concurrent readers
// hammering known keys observe ZERO failed Gets, and the moved-key
// fraction lands near 1/4.
func TestRouterOnlineRebalanceZeroFailedReads(t *testing.T) {
	r, _ := newTestRouter(t, 3)
	const n = 2000
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("cas/chunks/%064x", i*2654435761)
		if err := r.Put(keys[i], []byte(keys[i])); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var failures atomic.Int64
	var reads atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			i := seed
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := keys[i%n]
				i += 7
				got, err := r.Get(k)
				reads.Add(1)
				if err != nil || string(got) != k {
					failures.Add(1)
				}
			}
		}(w * 131)
	}
	if err := r.AddShard("shard-003", storage.NewMemStore()); err != nil {
		t.Fatal(err)
	}
	st, err := r.Rebalance()
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if f := failures.Load(); f != 0 {
		t.Fatalf("%d failed Gets during online rebalance (%d reads)", f, reads.Load())
	}
	frac := st.MovedFraction()
	if frac < 0.12 || frac > 0.40 {
		t.Fatalf("moved fraction %.3f, want ~0.25 within [0.12, 0.40]", frac)
	}
	t.Logf("online rebalance: %d concurrent reads, 0 failures; moved %d/%d keys (%.1f%%), %d bytes",
		reads.Load(), st.KeysMoved, st.KeysExamined, 100*frac, st.BytesMoved)
}

// Rebalance must not clobber a key rewritten at its new home after the
// membership change (manifests are mutable): the stale source copy is
// deleted, the fresh destination copy survives.
func TestRouterRebalanceKeepsNewerDestinationCopy(t *testing.T) {
	r, _ := newTestRouter(t, 3)
	const n = 300
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("m/%04d", i)
		if err := r.Put(k, []byte("old")); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.AddShard("shard-003", storage.NewMemStore()); err != nil {
		t.Fatal(err)
	}
	// Rewrite every key post-change: writes route by the new ring, so
	// remapped keys now have a fresh copy at their new home AND a stale
	// one at the old.
	rewritten := 0
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("m/%04d", i)
		if err := r.Put(k, []byte("new")); err != nil {
			t.Fatal(err)
		}
		rewritten++
	}
	st, err := r.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if st.KeysDeduped == 0 {
		t.Fatalf("expected deduped keys (stale source copies), got %+v", st)
	}
	for i := 0; i < rewritten; i++ {
		k := fmt.Sprintf("m/%04d", i)
		got, err := r.Get(k)
		if err != nil || string(got) != "new" {
			t.Fatalf("key %s = %q, %v — stale copy clobbered the rewrite", k, got, err)
		}
	}
}

// The guard serializes Rebalance against a writer/GC holding it.
func TestRouterRebalanceTakesGuard(t *testing.T) {
	r, _ := newTestRouter(t, 2)
	var guard sync.RWMutex
	r.SetGuard(&guard)
	for i := 0; i < 50; i++ {
		if err := r.Put(fmt.Sprintf("k/%03d", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.AddShard("shard-002", storage.NewMemStore()); err != nil {
		t.Fatal(err)
	}
	guard.Lock() // a GC in progress
	done := make(chan RebalanceStats, 1)
	go func() {
		st, err := r.Rebalance()
		if err != nil {
			t.Error(err)
		}
		done <- st
	}()
	time.Sleep(20 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("rebalance ran while the guard was held")
	default:
	}
	guard.Unlock()
	st := <-done
	if st.KeysExamined != 50 {
		t.Fatalf("examined %d, want 50", st.KeysExamined)
	}
}

func TestPutDoesNotRetain(t *testing.T) {
	r, _ := newTestRouter(t, 3)
	storagetest.CheckPutDoesNotRetain(t, r)
}
