package fleet

import (
	"runtime"
	"testing"
	"time"

	"moc/internal/fault"
	"moc/internal/storage"
	"moc/internal/storage/cas"
	"moc/internal/storage/replica"
	"moc/internal/storage/storagetest"
)

// fleetOverFlaky builds the standard repair fixture: a replicated
// backend whose second replica can fail and heal.
func fleetOverFlaky(t *testing.T, cfg Config) (*Service, *replica.Flaky) {
	t.Helper()
	flaky := replica.NewFlaky(storage.NewMemStore())
	rep, err := replica.New(storage.NewMemStore(), flaky)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := Open(rep, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return svc, flaky
}

func TestScrubSchedulesSyncAfterBackendHeals(t *testing.T) {
	// The repair loop driven on a simulated timeline: the backend-loss
	// and heal iterations come from fault.Plan schedules, one scrub pass
	// per iteration, no manual Sync anywhere. The daemon must observe
	// the heal and converge the healed replica.
	svc, flaky := fleetOverFlaky(t, Config{})
	sess, err := svc.AcquireOrRegister("job", "")
	if err != nil {
		t.Fatal(err)
	}
	store, err := sess.Open(cas.Options{ChunkSize: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}

	failAt := fault.At(3)
	healAt := fault.At(7)
	const iters = 10
	var healedSeen, syncCopies int
	for it := 1; it <= iters; it++ {
		if failAt.IsFault(it) {
			flaky.Fail()
		}
		if healAt.IsFault(it) {
			flaky.Heal()
		}
		// One checkpoint round per iteration; while the replica is down
		// the writes land on the survivor only.
		if _, err := store.WriteRound(it, map[string][]byte{"w": blob(uint64(it), 4<<10)}); err != nil {
			t.Fatalf("iteration %d: %v", it, err)
		}
		rep, err := svc.Scrub()
		if err != nil {
			t.Fatalf("scrub at iteration %d: %v", it, err)
		}
		healedSeen += rep.Healed
		syncCopies += rep.SyncCopies
		if rep.Missing != 0 || rep.Corrupt != 0 {
			t.Fatalf("scrub findings at iteration %d: %+v", it, rep)
		}
	}
	if healedSeen == 0 {
		t.Fatal("scrub never observed the heal")
	}
	if syncCopies == 0 {
		t.Fatal("no anti-entropy copies despite a replica missing four rounds")
	}
	for i, err := range svc.backend.(repairable).Health() {
		if err != nil {
			t.Fatalf("backend %d unhealthy after repair: %v", i, err)
		}
	}
	// The healed replica must now hold everything: with the first
	// replica gone, recovery still reads every round bit-identically.
	stats, err := svc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.ScrubPasses != iters || stats.SyncCopies != int64(syncCopies) || stats.HealsDetected == 0 {
		t.Fatalf("daemon counters: %+v", stats)
	}
}

func TestScrubCountsCorruptChunks(t *testing.T) {
	backend := storage.NewMemStore()
	svc, err := Open(backend, Config{})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := svc.AcquireOrRegister("job", "")
	if err != nil {
		t.Fatal(err)
	}
	store, err := sess.Open(cas.Options{ChunkSize: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.WriteRound(0, map[string][]byte{"w": blob(3, 4<<10)}); err != nil {
		t.Fatal(err)
	}
	rep, err := svc.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.ChunksVerified == 0 || rep.Corrupt != 0 || rep.Missing != 0 {
		t.Fatalf("clean store scrub: %+v", rep)
	}

	// Flip a byte of one stored chunk behind the store's back.
	keys, err := backend.Keys(cas.ChunkPrefix)
	if err != nil {
		t.Fatal(err)
	}
	chunk, err := backend.Get(keys[0])
	if err != nil {
		t.Fatal(err)
	}
	chunk[0] ^= 0xff
	if err := backend.Put(keys[0], chunk); err != nil {
		t.Fatal(err)
	}
	rep, err = svc.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt != 1 {
		t.Fatalf("scrub missed the corrupted chunk: %+v", rep)
	}
	stats, err := svc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.ScrubFindings == 0 {
		t.Fatalf("findings counter idle: %+v", stats)
	}
}

func TestBackgroundDaemonRepairsWithoutManualSync(t *testing.T) {
	// The acceptance shape, in-package: fail → write → heal, then only
	// the background goroutine runs until the replica converges.
	svc, flaky := fleetOverFlaky(t, Config{})
	defer svc.Close()
	sess, err := svc.AcquireOrRegister("job", "")
	if err != nil {
		t.Fatal(err)
	}
	store, err := sess.Open(cas.Options{ChunkSize: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.WriteRound(0, map[string][]byte{"w": blob(1, 4<<10)}); err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	if err := svc.StartDaemon(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := svc.StartDaemon(time.Millisecond); err == nil {
		t.Fatal("double StartDaemon accepted")
	}
	flaky.Fail()
	if _, err := store.WriteRound(1, map[string][]byte{"w": blob(2, 4<<10)}); err != nil {
		t.Fatal(err)
	}
	// Let a probe observe the outage before healing — a blink shorter
	// than the probe interval is repaired too (the owed-sync flag), but
	// this test asserts the observed down→up transition specifically.
	waitStats := func(what string, pred func(Stats) bool) {
		t.Helper()
		var stats Stats
		ok := storagetest.Eventually(10*time.Second, 2*time.Millisecond, func() bool {
			var err error
			stats, err = svc.Stats()
			if err != nil {
				t.Fatal(err)
			}
			return pred(stats)
		})
		if !ok {
			t.Fatalf("daemon never %s: %+v", what, stats)
		}
	}
	waitStats("observed the outage", func(st Stats) bool { return st.BackendsDown == 1 })
	flaky.Heal()

	waitStats("repaired after heal", func(st Stats) bool {
		return st.HealsDetected > 0 && st.SyncCopies > 0 && st.BackendsDown == 0
	})
	svc.StopDaemon()
	// StopDaemon joins the scrub goroutine, so the goroutine count must
	// fall back to (at most) the pre-StartDaemon baseline. Runtime
	// helper goroutines can retire a little late; poll instead of
	// asserting a single instantaneous reading.
	if ok := storagetest.Eventually(10*time.Second, 2*time.Millisecond, func() bool {
		return runtime.NumGoroutine() <= baseline
	}); !ok {
		t.Fatalf("scrub goroutine leaked: %d goroutines, baseline %d", runtime.NumGoroutine(), baseline)
	}
	for i, err := range svc.backend.(repairable).Health() {
		if err != nil {
			t.Fatalf("backend %d unhealthy after daemon repair: %v", i, err)
		}
	}
}
