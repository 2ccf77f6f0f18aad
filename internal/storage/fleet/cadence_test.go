package fleet

import (
	"errors"
	"testing"
	"time"

	"moc/internal/storage"
	"moc/internal/storage/cas"
	"moc/internal/storage/replica"
)

func TestCadenceControllerStretchAndRelax(t *testing.T) {
	c := NewCadenceController()
	if got := c.Stretch(); got != 1 {
		t.Fatalf("initial stretch %v", got)
	}
	// Degradation is adopted instantly: one down backend with repair
	// debt → 2 × 1.5.
	if got := c.Observe(HealthSignal{BackendsDown: 1, SyncOwed: true}); got != 3 {
		t.Fatalf("degraded stretch %v, want 3", got)
	}
	// Two down backends compound.
	if got := c.Observe(HealthSignal{BackendsDown: 2, SyncOwed: true}); got != 6 {
		t.Fatalf("two-down stretch %v, want 6", got)
	}
	// Recovery is geometric: each healthy observation halves the gap.
	if got := c.Observe(HealthSignal{}); got != 3.5 {
		t.Fatalf("first relax %v, want 3.5", got)
	}
	if got := c.Observe(HealthSignal{}); got != 2.25 {
		t.Fatalf("second relax %v, want 2.25", got)
	}
	for i := 0; i < 40; i++ {
		c.Observe(HealthSignal{})
	}
	if got := c.Stretch(); got > 1.001 {
		t.Fatalf("stretch %v did not relax to ~1", got)
	}
	// A re-degradation mid-relax jumps straight back up.
	if got := c.Observe(HealthSignal{BackendsDown: 3}); got != 8 {
		t.Fatalf("clamped stretch %v, want MaxStretch 8", got)
	}
}

func TestCadenceControllerImbalanceSignal(t *testing.T) {
	c := NewCadenceController()
	if got := c.Observe(HealthSignal{ShardImbalance: 1.4}); got != 1 {
		t.Fatalf("balanced fleet stretched: %v", got)
	}
	if got := c.Observe(HealthSignal{ShardImbalance: 2.0}); got != 1.5 {
		t.Fatalf("imbalanced stretch %v, want 1.5", got)
	}
}

func TestCadenceControllerInterval(t *testing.T) {
	c := NewCadenceController()
	if got := c.Interval(10); got != 10 {
		t.Fatalf("healthy interval %d", got)
	}
	c.Observe(HealthSignal{BackendsDown: 1})
	if got := c.Interval(10); got != 20 {
		t.Fatalf("stretched interval %d, want 20", got)
	}
	// Disabled checkpointing stays disabled.
	if got := c.Interval(0); got != 0 {
		t.Fatalf("Interval(0) = %d", got)
	}
	if got := c.Interval(-1); got != -1 {
		t.Fatalf("Interval(-1) = %d", got)
	}
}

func TestScrubFeedsCadence(t *testing.T) {
	inner := storage.NewMemStore()
	flaky := replica.NewFlaky(storage.NewMemStore())
	rep, err := replica.New(inner, flaky)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := Open(rep, Config{})
	if err != nil {
		t.Fatal(err)
	}
	svc.SetCadence()
	sess, err := svc.AcquireOrRegister("job", "")
	if err != nil {
		t.Fatal(err)
	}
	st, err := sess.Open(cas.Options{ChunkSize: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.WriteRound(0, map[string][]byte{"m": blob(1, 4<<10)}); err != nil {
		t.Fatal(err)
	}
	// First pass: healthy (the startup reconciliation Sync runs and
	// clears), no stretch.
	if _, err := svc.Scrub(); err != nil {
		t.Fatal(err)
	}
	if got := svc.CadenceStretch(); got != 1 {
		t.Fatalf("healthy stretch %v", got)
	}
	if got := sess.CadenceInterval(5); got != 5 {
		t.Fatalf("healthy interval %d", got)
	}

	// A backend fails: the next pass stretches the cadence instantly
	// (one down backend, and a Sync owed) — 2 × 1.5.
	flaky.Fail()
	if _, err := svc.Scrub(); err != nil {
		t.Fatal(err)
	}
	if got := svc.CadenceStretch(); got != 3 {
		t.Fatalf("degraded stretch %v, want 3", got)
	}
	if got := sess.CadenceInterval(5); got != 15 {
		t.Fatalf("degraded interval %d, want 15", got)
	}

	// Heal: the same pass runs the owed Sync, so its observation is
	// already healthy and the stretch starts relaxing.
	flaky.Heal()
	if _, err := svc.Scrub(); err != nil {
		t.Fatal(err)
	}
	if got := svc.CadenceStretch(); got != 2 {
		t.Fatalf("post-heal stretch %v, want 2", got)
	}
	for i := 0; i < 20; i++ {
		if _, err := svc.Scrub(); err != nil {
			t.Fatal(err)
		}
	}
	if got := svc.CadenceStretch(); got > 1.01 {
		t.Fatalf("stretch %v did not recover", got)
	}

	stats, err := svc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.CadenceStretch != svc.CadenceStretch() {
		t.Fatalf("stats stretch %v != service %v", stats.CadenceStretch, svc.CadenceStretch())
	}
	if stats.SyncOwed {
		t.Fatal("healthy fleet reports SyncOwed")
	}
}

func TestCadenceDisabledIsIdentity(t *testing.T) {
	svc, err := Open(storage.NewMemStore(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := svc.CadenceInterval(7); got != 7 {
		t.Fatalf("interval %d without cadence", got)
	}
	if got := svc.CadenceStretch(); got != 1 {
		t.Fatalf("stretch %v without cadence", got)
	}
}

func TestMassLeaseExpiryAndAdoption(t *testing.T) {
	backend := storage.NewMemStore()
	clock := newTestClock()
	svc, err := Open(backend, Config{Now: clock.Now, LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	jobs := []string{"base", "ft-a", "ft-b"}
	stores := make(map[string]*cas.Store)
	sessions := make(map[string]*Session)
	for _, id := range jobs {
		parent := ""
		if id != "base" {
			parent = "base"
		}
		sess, err := svc.AcquireOrRegister(id, parent)
		if err != nil {
			t.Fatal(err)
		}
		st, err := sess.Open(cas.Options{ChunkSize: 1 << 10})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.WriteRound(0, map[string][]byte{"m": blob(1, 4<<10)}); err != nil {
			t.Fatal(err)
		}
		sessions[id], stores[id] = sess, st
	}
	if got := svc.ExpiredJobs(); len(got) != 0 {
		t.Fatalf("expired jobs before expiry: %v", got)
	}

	// The preemption wave: every writer dies (stops renewing) and the
	// whole fleet's leases run out together.
	clock.Advance(2 * time.Minute)
	expired := svc.ExpiredJobs()
	if len(expired) != len(jobs) {
		t.Fatalf("expired %d jobs, want %d: %+v", len(expired), len(jobs), expired)
	}

	// Replacement capacity adopts everything in one call; every job
	// resumes under a fresh epoch.
	adopted, err := svc.AdoptExpired()
	if err != nil {
		t.Fatal(err)
	}
	if len(adopted) != len(jobs) {
		t.Fatalf("adopted %d jobs, want %d", len(adopted), len(jobs))
	}
	for _, sess := range adopted {
		old := sessions[sess.JobID()]
		if sess.Epoch() != old.Epoch()+1 {
			t.Fatalf("job %s adopted at epoch %d, want %d", sess.JobID(), sess.Epoch(), old.Epoch()+1)
		}
		// No committed round was lost: the adopter reads round 0.
		st, err := sess.Open(cas.Options{ChunkSize: 1 << 10})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.ReadRound(0); err != nil {
			t.Fatalf("job %s lost round 0: %v", sess.JobID(), err)
		}
		if _, err := st.WriteRound(1, map[string][]byte{"m": blob(2, 4<<10)}); err != nil {
			t.Fatalf("adopter %s cannot commit: %v", sess.JobID(), err)
		}
	}
	// The preempted writers are fenced, not corrupting.
	for id, st := range stores {
		if _, err := st.WriteRound(1, map[string][]byte{"m": blob(3, 4<<10)}); !errors.Is(err, ErrFenced) {
			t.Fatalf("preempted writer %s: %v", id, err)
		}
	}
	if got := svc.ExpiredJobs(); len(got) != 0 {
		t.Fatalf("jobs still expired after adoption: %+v", got)
	}
}

// TestStopDaemonIdempotent pins StopDaemon's no-op contract: calling it
// before StartDaemon, twice in a row, or after Close must neither panic
// nor deadlock.
func TestStopDaemonIdempotent(t *testing.T) {
	svc, err := Open(storage.NewMemStore(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	svc.StopDaemon() // before any start
	svc.StopDaemon()
	if err := svc.StartDaemon(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	svc.StopDaemon()
	svc.StopDaemon() // double stop after a run
	// Restartable after a stop.
	if err := svc.StartDaemon(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil { // Close stops it again
		t.Fatal(err)
	}
	svc.StopDaemon() // and once more after Close
}
