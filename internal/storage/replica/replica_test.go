package replica

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"moc/internal/storage"
	"moc/internal/storage/storagetest"
)

func newPair(t *testing.T) (*Store, *storage.MemStore, *storage.MemStore) {
	t.Helper()
	a, b := storage.NewMemStore(), storage.NewMemStore()
	r, err := New(a, b)
	if err != nil {
		t.Fatal(err)
	}
	return r, a, b
}

func TestNewRejectsEmptyAndNil(t *testing.T) {
	if _, err := New(); err == nil {
		t.Fatal("zero backends accepted")
	}
	if _, err := New(storage.NewMemStore(), nil); err == nil {
		t.Fatal("nil backend accepted")
	}
}

func TestPutReplicatesToAll(t *testing.T) {
	r, a, b := newPair(t)
	if err := r.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	for i, m := range []*storage.MemStore{a, b} {
		got, err := m.Get("k")
		if err != nil || string(got) != "v" {
			t.Fatalf("backend %d: %q %v", i, got, err)
		}
	}
	got, err := r.Get("k")
	if err != nil || string(got) != "v" {
		t.Fatalf("replicated get: %q %v", got, err)
	}
}

func TestGetNotFoundIsErrNotFound(t *testing.T) {
	r, _, _ := newPair(t)
	if _, err := r.Get("absent"); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("error = %v, want ErrNotFound", err)
	}
}

func TestPutSurvivesOneBackendDown(t *testing.T) {
	a, b := storage.NewMemStore(), storage.NewMemStore()
	fb := NewFlaky(b)
	r, err := New(a, fb)
	if err != nil {
		t.Fatal(err)
	}
	fb.Fail()
	if err := r.Put("k", []byte("v")); err != nil {
		t.Fatalf("put with one live replica: %v", err)
	}
	if got, err := r.Get("k"); err != nil || string(got) != "v" {
		t.Fatalf("get with one live replica: %q %v", got, err)
	}
	health := r.Health()
	if health[0] != nil || health[1] == nil {
		t.Fatalf("health: %v", health)
	}
}

func TestGetFallsThroughToHealthyReplica(t *testing.T) {
	// First replica lost entirely (replaced by an empty store): reads
	// recover from the second.
	a, b := storage.NewMemStore(), storage.NewMemStore()
	fa := NewFlaky(a)
	r, err := New(fa, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	fa.Fail()
	got, err := r.Get("k")
	if err != nil || string(got) != "v" {
		t.Fatalf("get after replica loss: %q %v", got, err)
	}
	keys, err := r.Keys("")
	if err != nil || len(keys) != 1 {
		t.Fatalf("keys after replica loss: %v %v", keys, err)
	}
}

func TestAllBackendsDownFails(t *testing.T) {
	fa, fb := NewFlaky(storage.NewMemStore()), NewFlaky(storage.NewMemStore())
	r, err := New(fa, fb)
	if err != nil {
		t.Fatal(err)
	}
	fa.Fail()
	fb.Fail()
	if err := r.Put("k", []byte("v")); err == nil {
		t.Fatal("put succeeded with all backends down")
	}
	if _, err := r.Get("k"); err == nil || errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("get error = %v, want a backend failure", err)
	}
	if _, err := r.Keys(""); err == nil {
		t.Fatal("keys succeeded with all backends down")
	}
}

func TestSyncRepairsReplicaThatMissedWrites(t *testing.T) {
	a, b := storage.NewMemStore(), storage.NewMemStore()
	fb := NewFlaky(b)
	r, err := New(a, fb)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Put("k0", []byte("v0")); err != nil {
		t.Fatal(err)
	}
	fb.Fail()
	if err := r.Put("k1", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	fb.Heal()
	// b missed k1 while down.
	if _, err := b.Get("k1"); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("b should lack k1: %v", err)
	}
	copied, err := r.Sync()
	if err != nil || copied != 1 {
		t.Fatalf("sync: copied %d err %v", copied, err)
	}
	got, err := b.Get("k1")
	if err != nil || !bytes.Equal(got, []byte("v1")) {
		t.Fatalf("after sync: %q %v", got, err)
	}
	// Idempotent.
	copied, err = r.Sync()
	if err != nil || copied != 0 {
		t.Fatalf("second sync: copied %d err %v", copied, err)
	}
}

func TestSyncRebuildsEmptyReplacementReplica(t *testing.T) {
	// The total-loss scenario: a backend is replaced by a fresh empty
	// store; Sync rebuilds it from the survivor.
	a, b := storage.NewMemStore(), storage.NewMemStore()
	r, err := New(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for _, kv := range [][2]string{{"x", "1"}, {"y", "2"}, {"z", "3"}} {
		if err := r.Put(kv[0], []byte(kv[1])); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate total loss of b.
	keys, _ := b.Keys("")
	for _, k := range keys {
		b.Delete(k)
	}
	copied, err := r.Sync()
	if err != nil || copied != 3 {
		t.Fatalf("sync: copied %d err %v", copied, err)
	}
	for _, kv := range [][2]string{{"x", "1"}, {"y", "2"}, {"z", "3"}} {
		got, err := b.Get(kv[0])
		if err != nil || string(got) != kv[1] {
			t.Fatalf("rebuilt %s: %q %v", kv[0], got, err)
		}
	}
}

func TestSyncReconcilesDivergedValues(t *testing.T) {
	// Mutable keys (manifests under GC) can diverge while a replica is
	// down: Sync must overwrite the stale copy with the one reads serve
	// (the first readable replica's).
	a, b := storage.NewMemStore(), storage.NewMemStore()
	r, err := New(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Put("manifest", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	// b missed an in-place rewrite.
	if err := a.Put("manifest", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	copied, err := r.Sync()
	if err != nil || copied != 1 {
		t.Fatalf("sync: copied %d err %v", copied, err)
	}
	got, err := b.Get("manifest")
	if err != nil || !bytes.Equal(got, []byte("v2")) {
		t.Fatalf("diverged value not reconciled: %q %v", got, err)
	}
	copied, err = r.Sync()
	if err != nil || copied != 0 {
		t.Fatalf("second sync: copied %d err %v", copied, err)
	}
}

func TestDeleteAcrossReplicas(t *testing.T) {
	r, a, b := newPair(t)
	if err := r.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete("k"); err != nil {
		t.Fatal(err)
	}
	for i, m := range []*storage.MemStore{a, b} {
		if _, err := m.Get("k"); !errors.Is(err, storage.ErrNotFound) {
			t.Fatalf("backend %d still holds k: %v", i, err)
		}
	}
	// Deleting an absent key is a no-op, as for the base stores.
	if err := r.Delete("k"); err != nil {
		t.Fatal(err)
	}
}

func TestFlakyHealRestoresState(t *testing.T) {
	inner := storage.NewMemStore()
	f := NewFlaky(inner)
	if err := f.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	f.Fail()
	if !f.Down() {
		t.Fatal("Down() false after Fail")
	}
	if _, err := f.Get("k"); !errors.Is(err, ErrBackendDown) {
		t.Fatalf("down get error = %v", err)
	}
	if err := f.Put("k2", nil); !errors.Is(err, ErrBackendDown) {
		t.Fatalf("down put error = %v", err)
	}
	if err := f.Delete("k"); !errors.Is(err, ErrBackendDown) {
		t.Fatalf("down delete error = %v", err)
	}
	if _, err := f.Keys(""); !errors.Is(err, ErrBackendDown) {
		t.Fatalf("down keys error = %v", err)
	}
	f.Heal()
	got, err := f.Get("k")
	if err != nil || string(got) != "v" {
		t.Fatalf("healed get: %q %v", got, err)
	}
}

func TestGetReadRepairsEarlierHealthyReplica(t *testing.T) {
	// Backend A is down during the write, so only B holds the key. After
	// A heals, a Get falls through to B and must write the value back to
	// A — the next read is served by A directly.
	inner := storage.NewMemStore()
	a := NewFlaky(inner)
	b := storage.NewMemStore()
	r, err := New(a, b)
	if err != nil {
		t.Fatal(err)
	}
	a.Fail()
	if err := r.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	a.Heal()
	got, err := r.Get("k")
	if err != nil || !bytes.Equal(got, []byte("v")) {
		t.Fatalf("get after heal: %v %q", err, got)
	}
	if n := r.Repairs(); n != 1 {
		t.Fatalf("repairs %d, want 1", n)
	}
	if held, err := inner.Get("k"); err != nil || !bytes.Equal(held, []byte("v")) {
		t.Fatalf("read-repair did not reach backend A: %v %q", err, held)
	}
	// The repaired replica now serves reads; no further repairs happen.
	if _, err := r.Get("k"); err != nil {
		t.Fatal(err)
	}
	if n := r.Repairs(); n != 1 {
		t.Fatalf("repairs %d after repaired read, want 1", n)
	}
}

func TestGetDoesNotRepairDownReplica(t *testing.T) {
	// A is still down at read time: its failure is not a healthy miss,
	// so the fall-through read must not attempt a write-back.
	a := NewFlaky(storage.NewMemStore())
	b := storage.NewMemStore()
	r, err := New(a, b)
	if err != nil {
		t.Fatal(err)
	}
	a.Fail()
	if err := r.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get("k"); err != nil {
		t.Fatal(err)
	}
	if n := r.Repairs(); n != 0 {
		t.Fatalf("repaired a down replica: %d", n)
	}
}

func TestGetRepairCanResurrectDeleteMissedWhileDown(t *testing.T) {
	// Documented GC caveat: a replica down during Delete keeps the key,
	// and a later fall-through read repairs the stale value back onto
	// the replica that performed the delete. The value is never wrong —
	// only un-collected. This test pins the documented behavior so a
	// change to it is a conscious one.
	a := storage.NewMemStore()
	b := NewFlaky(storage.NewMemStore())
	r, err := New(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	b.Fail()
	if err := r.Delete("k"); err != nil {
		t.Fatal(err) // A deletes; B sleeps through it
	}
	b.Heal()
	got, err := r.Get("k")
	if err != nil || !bytes.Equal(got, []byte("v")) {
		t.Fatalf("stale copy unreadable: %v %q", err, got)
	}
	if n := r.Repairs(); n != 1 {
		t.Fatalf("repairs %d, want 1 (resurrection onto A)", n)
	}
	if _, err := a.Get("k"); err != nil {
		t.Fatal("deleted key not resurrected onto A — update Get's GC-caveat doc")
	}
}

func TestProbeObservesFailAndHealWithoutTraffic(t *testing.T) {
	// Health only reflects organic traffic; Probe actively refreshes it,
	// so a daemon polling Probe sees the down→healthy transition even
	// when no read or write ever touched the failed replica.
	flaky := NewFlaky(storage.NewMemStore())
	r, err := New(storage.NewMemStore(), flaky)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range r.Probe() {
		if e != nil {
			t.Fatalf("backend %d unhealthy at start: %v", i, e)
		}
	}
	flaky.Fail()
	health := r.Probe()
	if health[0] != nil || health[1] == nil {
		t.Fatalf("probe missed the outage: %v", health)
	}
	flaky.Heal()
	for i, e := range r.Probe() {
		if e != nil {
			t.Fatalf("backend %d still unhealthy after heal: %v", i, e)
		}
	}
}

// slowStore delays every operation by a fixed wall duration, simulating
// a straggling (slow, not dead) replica, and counts the Gets it serves.
type slowStore struct {
	inner storage.PersistStore
	delay time.Duration
	gets  atomic.Int64
}

func (s *slowStore) Put(key string, data []byte) error {
	time.Sleep(s.delay)
	return s.inner.Put(key, data)
}

func (s *slowStore) Get(key string) ([]byte, error) {
	time.Sleep(s.delay)
	s.gets.Add(1)
	return s.inner.Get(key)
}

func (s *slowStore) Delete(key string) error {
	time.Sleep(s.delay)
	return s.inner.Delete(key)
}

func (s *slowStore) Keys(prefix string) ([]string, error) {
	time.Sleep(s.delay)
	return s.inner.Keys(prefix)
}

func TestCutOffPartitionsBackendAndSyncHeals(t *testing.T) {
	r, a, b := newPair(t)
	if err := r.Put("k1", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := r.CutOff(1); err != nil {
		t.Fatal(err)
	}
	// Writes during the partition land on backend 0 only.
	if err := r.Put("k2", []byte("v2")); err != nil {
		t.Fatalf("put during partition: %v", err)
	}
	if _, err := b.Get("k2"); !errors.Is(err, storage.ErrNotFound) {
		t.Fatal("partitioned backend received the write")
	}
	if got, err := a.Get("k2"); err != nil || string(got) != "v2" {
		t.Fatalf("healthy backend: %q %v", got, err)
	}
	h := r.Health()
	if !errors.Is(h[1], ErrPartitioned) {
		t.Fatalf("health[1] = %v, want ErrPartitioned", h[1])
	}
	if p := r.Partitioned(); !p[1] || p[0] {
		t.Fatalf("Partitioned() = %v", p)
	}
	// Reads still work, served from the reachable side; the partitioned
	// replica's failure is never mistaken for absence.
	if got, err := r.Get("k1"); err != nil || string(got) != "v1" {
		t.Fatalf("get during partition: %q %v", got, err)
	}
	if _, err := r.Get("absent"); errors.Is(err, storage.ErrNotFound) {
		t.Fatal("miss with a partitioned replica reported as not-found")
	}
	// Heal, then anti-entropy converges the diverged replica.
	if err := r.Reconnect(1); err != nil {
		t.Fatal(err)
	}
	copied, err := r.Sync()
	if err != nil {
		t.Fatal(err)
	}
	if copied != 1 {
		t.Fatalf("sync copied %d keys, want 1", copied)
	}
	if got, err := b.Get("k2"); err != nil || string(got) != "v2" {
		t.Fatalf("healed backend after sync: %q %v", got, err)
	}
	if err := r.CutOff(7); err == nil {
		t.Fatal("out-of-range CutOff accepted")
	}
	if err := r.Reconnect(-1); err == nil {
		t.Fatal("out-of-range Reconnect accepted")
	}
}

func TestSlowRoutingDemotesStraggler(t *testing.T) {
	slow := &slowStore{inner: storage.NewMemStore(), delay: 2 * time.Millisecond}
	fast := storage.NewMemStore()
	r, err := NewWithOptions(Options{SlowFactor: 4}, slow, fast)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Warm the latency EWMAs past the sample floor.
	for i := 0; i < minLatencySamples; i++ {
		r.Probe()
	}
	lat := r.BackendLatencies()
	if lat[0] <= lat[1] || lat[0] < time.Millisecond.Seconds() {
		t.Fatalf("latencies %v: straggler not measured slower", lat)
	}
	base := slow.gets.Load()
	for i := 0; i < 5; i++ {
		if got, err := r.Get("k"); err != nil || string(got) != "v" {
			t.Fatalf("routed get: %q %v", got, err)
		}
	}
	if n := slow.gets.Load() - base; n != 0 {
		t.Fatalf("straggler served %d reads despite demotion", n)
	}
	if r.SlowSkips() < 5 {
		t.Fatalf("SlowSkips = %d, want >= 5", r.SlowSkips())
	}
}

func TestSlowRoutingStillFallsBackToStraggler(t *testing.T) {
	slow := &slowStore{inner: storage.NewMemStore(), delay: 2 * time.Millisecond}
	fast := storage.NewMemStore()
	r, err := NewWithOptions(Options{SlowFactor: 4}, slow, fast)
	if err != nil {
		t.Fatal(err)
	}
	// Only the straggler holds the key (it was written before the fast
	// replica joined, say); demotion must not make it unreadable.
	if err := slow.inner.Put("only", []byte("here")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < minLatencySamples; i++ {
		r.Probe()
	}
	got, err := r.Get("only")
	if err != nil || string(got) != "here" {
		t.Fatalf("fallback get: %q %v", got, err)
	}
	// The fall-through read-repaired the fast replica.
	if v, err := fast.Get("only"); err != nil || string(v) != "here" {
		t.Fatalf("read repair after fallback: %q %v", v, err)
	}
}

func TestRoutingDisabledKeepsDeclarationOrder(t *testing.T) {
	slow := &slowStore{inner: storage.NewMemStore(), delay: 2 * time.Millisecond}
	fast := storage.NewMemStore()
	r, err := New(slow, fast) // default options: routing off
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < minLatencySamples; i++ {
		r.Probe()
	}
	base := slow.gets.Load()
	if _, err := r.Get("k"); err != nil {
		t.Fatal(err)
	}
	if slow.gets.Load() != base+1 {
		t.Fatal("declaration-order read skipped backend 0 with routing disabled")
	}
	if r.SlowSkips() != 0 {
		t.Fatalf("SlowSkips = %d with routing disabled", r.SlowSkips())
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := NewWithOptions(Options{EWMAAlpha: 1.5}, storage.NewMemStore()); err == nil {
		t.Fatal("EWMAAlpha > 1 accepted")
	}
	if _, err := NewWithOptions(Options{SlowFactor: -1}, storage.NewMemStore()); err == nil {
		t.Fatal("negative SlowFactor accepted")
	}
}

// Every replica copies for itself, and a Flaky forwards like any wrapper.
func TestPutDoesNotRetain(t *testing.T) {
	r, _, _ := newPair(t)
	storagetest.CheckPutDoesNotRetain(t, r)
	storagetest.CheckPutDoesNotRetain(t, NewFlaky(storage.NewMemStore()))
}
