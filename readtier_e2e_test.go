package moc_test

// End-to-end acceptance for the read-serving tier: a thundering herd
// of concurrent readers on one cold chunk must cost the backend exactly
// one get — whether the herd shares one node (L1-level coalescing) or
// is spread across one node each (L2-level coalescing) — and a fleet of
// replica Systems hydrating one checkpoint through the tier must cost
// at most one backend get per unique key.

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	moc "moc"
	"moc/internal/simtime"
)

// herdBackend is an in-memory PersistStore whose Gets park until
// release is closed, counting how many ever reach it.
type herdBackend struct {
	mu      sync.Mutex
	data    map[string][]byte
	release chan struct{}
	gets    atomic.Int64
}

func newHerdBackend() *herdBackend {
	return &herdBackend{data: make(map[string][]byte), release: make(chan struct{})}
}

func (h *herdBackend) Put(key string, data []byte) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.data[key] = append([]byte(nil), data...)
	return nil
}

func (h *herdBackend) Get(key string) ([]byte, error) {
	h.gets.Add(1)
	<-h.release
	h.mu.Lock()
	defer h.mu.Unlock()
	v, ok := h.data[key]
	if !ok {
		return nil, errors.New("herd backend: key not found")
	}
	return append([]byte(nil), v...), nil
}

func (h *herdBackend) Delete(key string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.data, key)
	return nil
}

func (h *herdBackend) Keys(prefix string) ([]string, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []string
	for k := range h.data {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			out = append(out, k)
		}
	}
	return out, nil
}

func waitForStats(t *testing.T, tier *moc.ReadTier, cond func(moc.ReadTierStats) bool) {
	t.Helper()
	if !simtime.Eventually(10*time.Second, time.Millisecond, func() bool { return cond(tier.Stats()) }) {
		t.Fatalf("tier never reached the expected state: %+v", tier.Stats())
	}
}

// TestColdChunkHerdCostsOneBackendGet is the acceptance bar: 64
// concurrent readers of one cold chunk perform exactly 1 backend get.
func TestColdChunkHerdCostsOneBackendGet(t *testing.T) {
	const key = "cas/chunks/deadbeef"
	payload := bytes.Repeat([]byte{0xcc}, 4096)

	for _, tc := range []struct {
		name  string
		nodes int
	}{
		{"one shared node", 1}, // herd coalesces in the node's L1
		{"one node each", 64},  // herd coalesces in the shared L2
	} {
		t.Run(tc.name, func(t *testing.T) {
			backend := newHerdBackend()
			backend.data[key] = payload
			tier, err := moc.NewReadTier(backend, moc.ReadTierConfig{})
			if err != nil {
				t.Fatal(err)
			}
			nodes := make([]moc.PersistStore, tc.nodes)
			for i := range nodes {
				if nodes[i], err = tier.NewNode(); err != nil {
					t.Fatal(err)
				}
			}

			const readers = 64
			errs := make(chan error, readers)
			for i := 0; i < readers; i++ {
				node := nodes[i%tc.nodes]
				go func() {
					got, err := node.Get(key)
					if err == nil && !bytes.Equal(got, payload) {
						err = errors.New("payload mismatch")
					}
					errs <- err
				}()
			}
			// Coalesced counters tick when a reader attaches to the
			// in-flight fetch, before it blocks — so this observes the
			// whole herd parked on one leader, then lets it finish.
			waitForStats(t, tier, func(st moc.ReadTierStats) bool {
				return st.BackendGets == 1 && st.L1Coalesced+st.L2Coalesced == readers-1
			})
			close(backend.release)
			for i := 0; i < readers; i++ {
				if err := <-errs; err != nil {
					t.Fatal(err)
				}
			}
			if n := backend.gets.Load(); n != 1 {
				t.Fatalf("%d concurrent cold readers cost %d backend gets, want exactly 1", readers, n)
			}
			// The chunk is now resident: a late reader on any node stays
			// inside the hierarchy.
			if _, err := nodes[0].Get(key); err != nil {
				t.Fatal(err)
			}
			if n := backend.gets.Load(); n != 1 {
				t.Fatalf("warm read reached the backend: %d gets", n)
			}
		})
	}
}

// TestReplicaFleetHydratesThroughTier drives the real restore path:
// replica Systems resuming one checkpoint through tier nodes perform at
// most one backend get per unique key, while the same fleet without the
// tier pays per replica.
func TestReplicaFleetHydratesThroughTier(t *testing.T) {
	remote, err := moc.NewRemoteStore(moc.RemoteConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := moc.Config{
		Layers: 2, Hidden: 16, Experts: 4, TopK: 2,
		Vocab: 32, Window: 4, BatchSize: 8,
		LR: 0.01, Seed: 3, Interval: 5,
	}
	sys, err := moc.NewSystem(cfg, remote)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunTo(10); err != nil {
		t.Fatal(err)
	}
	if err := sys.FlushCheckpoints(); err != nil {
		t.Fatal(err)
	}
	sys.Close()

	tier, err := moc.NewReadTier(remote, moc.ReadTierConfig{})
	if err != nil {
		t.Fatal(err)
	}
	resume := cfg
	resume.Resume = true

	// hydrate resumes the checkpoint on replicas concurrent Systems, each
	// over its own store from storeFor, and returns the remote's gets
	// and repeat gets the fleet cost.
	const replicas = 4
	hydrate := func(storeFor func() (moc.PersistStore, error)) (gets, repeats int64) {
		before := remote.Metrics()
		var wg sync.WaitGroup
		errs := make(chan error, replicas)
		for i := 0; i < replicas; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				store, err := storeFor()
				if err != nil {
					errs <- err
					return
				}
				replica, err := moc.NewSystem(resume, store)
				if err != nil {
					errs <- err
					return
				}
				replica.Close()
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		after := remote.Metrics()
		return after.GetOps - before.GetOps, after.RepeatGets - before.RepeatGets
	}
	fleetGets, repeats := hydrate(func() (moc.PersistStore, error) { return tier.NewNode() })
	rawGets, _ := hydrate(func() (moc.PersistStore, error) { return remote, nil })

	// Chunks are fetched at most once for the whole fleet; only the
	// uncacheable control plane (manifests) repeats. A solo replica's
	// hydration reads every chunk once, so the fleet's repeat gets must
	// stay below one extra replica's worth of chunk traffic.
	st := tier.Stats()
	if st.BackendGets == 0 || st.L1Hits+st.L2Hits == 0 {
		t.Fatalf("fleet hydration missed the tier: %+v", st)
	}
	if repeats >= fleetGets {
		t.Fatalf("every fleet get repeated: %d of %d", repeats, fleetGets)
	}
	// Without the tier every replica fetches every chunk itself.
	if rawGets-fleetGets < (replicas-1)*st.BackendGets {
		t.Fatalf("raw hydration cost %d gets, the tier %d: want every replica paying the %d chunks", rawGets, fleetGets, st.BackendGets)
	}
	if int64(replicas)*st.BackendGets <= fleetGets-st.BackendGets {
		// backendGets ≈ unique chunk count; the rest is per-replica
		// manifest traffic. If chunk fetches scaled with replicas the
		// inequality flips.
		t.Fatalf("chunk traffic scaled with replicas: %d backend gets of %d fleet gets", st.BackendGets, fleetGets)
	}
}
