package moc_test

// End-to-end acceptance tests for the elastic-fleet chaos layer: timed
// fault scenarios replayed against the live storage stack. Each test
// drives one ISSUE scenario through the public API — a spot preemption
// wave (every lease expires at once, jobs are re-adopted, zero
// committed rounds lost), a straggling backend (reads route around the
// slow replica), and a partition that heals (the scrub daemon repairs
// the divergence while the adaptive cadence stretches and recovers) —
// with the faults injected purely by a moc.Chaos schedule.

import (
	"errors"
	"testing"
	"time"

	moc "moc"
	"moc/internal/simtime"
)

// chaosBaseConfig is a small full-checkpoint config for chaos tests
// (manual checkpoints: the tests commit rounds at known iterations).
func chaosBaseConfig() moc.Config {
	return moc.Config{
		Layers: 3, Hidden: 24, Experts: 4, TopK: 2,
		Vocab: 32, Window: 6, BatchSize: 16,
		LR: 0.01, Seed: 9,
		Interval: 0,
	}
}

// TestChaosPreemptionWaveZeroLostRounds preempts every writer in the
// fleet at once — the spot-market wave. All leases expire, the jobs
// show up in ExpiredJobs, replacement capacity re-adopts each one from
// its last committed round (nothing lost), the epochs bump, and the
// dead writers are fenced out.
func TestChaosPreemptionWaveZeroLostRounds(t *testing.T) {
	clock := simtime.NewManualClock(time.Unix(1_700_000_000, 0))
	f, err := moc.NewFleet(moc.NewMemStore(), moc.FleetConfig{
		LeaseTTL: 30 * time.Second,
		Now:      clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	baseCfg := chaosBaseConfig()
	base, err := f.NewSystem(baseCfg, "base")
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	if _, err := base.RunTo(10); err != nil {
		t.Fatal(err)
	}
	if err := base.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	if err := base.FlushCheckpoints(); err != nil {
		t.Fatal(err)
	}

	corpora := map[string]*moc.Corpus{
		"ft-law": moc.NewCorpus("law", 32, 11),
		"ft-med": moc.NewCorpus("med", 32, 22),
	}
	names := []string{"base", "ft-law", "ft-med"}
	systems := map[string]*moc.System{"base": base}
	committedAt := map[string]int{"base": 10}
	for _, name := range []string{"ft-law", "ft-med"} {
		fk, err := base.ForkOnFleet(f, name, corpora[name], moc.Config{FreezeExperts: true})
		if err != nil {
			t.Fatal(err)
		}
		defer fk.Close()
		if _, err := fk.RunTo(15); err != nil {
			t.Fatal(err)
		}
		if err := fk.CheckpointNow(); err != nil {
			t.Fatal(err)
		}
		if err := fk.FlushCheckpoints(); err != nil {
			t.Fatal(err)
		}
		systems[name] = fk
		committedAt[name] = 15
	}

	// The wave: all three writers die at iteration 4, replacement
	// capacity arrives at 8. The driver advances the manual clock 10s
	// per iteration, so every 30s lease expires inside the window.
	chaos, err := moc.NewChaos(moc.ChaosConfig{
		Events: moc.PreemptionWaveEvents(4, 4, 0, 1, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	preempted := map[string]bool{}
	var restoreAt []string
	chaos.OnPreempt(func(target int) { preempted[names[target]] = true })
	chaos.OnRestore(func(target int) { restoreAt = append(restoreAt, names[target]) })

	adopted := map[string]*moc.System{}
	for it := 1; it <= chaos.Horizon(); it++ {
		clock.Advance(10 * time.Second)
		chaos.Advance(it)
		if len(restoreAt) == 0 {
			continue
		}
		// Replacement capacity arrived. Every job must be visible as
		// expired-but-unadopted before adoption.
		expired := f.ExpiredJobs()
		if len(expired) != 3 {
			t.Fatalf("at restore, ExpiredJobs = %d jobs, want all 3", len(expired))
		}
		for _, name := range restoreAt {
			cfg := baseCfg
			cfg.Resume = true
			var sys *moc.System
			var err error
			if name == "base" {
				sys, err = f.NewSystem(cfg, name)
			} else {
				cfg.FreezeExperts = true
				sys, err = f.NewSystemWith(cfg, name, corpora[name])
			}
			if err != nil {
				t.Fatalf("re-adopt %s: %v", name, err)
			}
			defer sys.Close()
			adopted[name] = sys
		}
		restoreAt = nil
	}

	if len(preempted) != 3 || len(adopted) != 3 {
		t.Fatalf("preempted %d jobs and adopted %d, want 3 and 3", len(preempted), len(adopted))
	}
	// Zero committed rounds lost: each replacement resumed exactly at
	// the iteration its predecessor last committed.
	for name, sys := range adopted {
		if got := sys.Iteration(); got != committedAt[name] {
			t.Errorf("%s resumed at iteration %d, want %d", name, got, committedAt[name])
		}
	}
	// Adoption bumped every epoch, so the dead writers are fenced: a
	// late checkpoint from a zombie must not corrupt the store.
	for _, j := range f.Jobs() {
		if j.Epoch != 2 {
			t.Errorf("job %s epoch = %d after adoption, want 2", j.ID, j.Epoch)
		}
	}
	for _, name := range names {
		old := systems[name]
		err := old.CheckpointNow()
		if err == nil {
			err = old.FlushCheckpoints()
		}
		if !errors.Is(err, moc.ErrFleetFenced) {
			t.Errorf("zombie %s checkpoint error = %v, want ErrFleetFenced", name, err)
		}
	}
	// The replacements make progress and commit new rounds.
	for name, sys := range adopted {
		if _, err := sys.RunTo(committedAt[name] + 5); err != nil {
			t.Fatalf("%s post-adoption run: %v", name, err)
		}
		if err := sys.CheckpointNow(); err != nil {
			t.Fatalf("%s post-adoption checkpoint: %v", name, err)
		}
		if err := sys.FlushCheckpoints(); err != nil {
			t.Fatal(err)
		}
	}
	if left := f.ExpiredJobs(); len(left) != 0 {
		t.Errorf("%d jobs still expired-unadopted after the wave", len(left))
	}
}

// TestChaosStragglerReadRouting degrades one of two equal remote
// replicas mid-run — slow, not dead — and verifies reads route around
// it: the slow backend's latency EWMA climbs, the read order demotes
// it, and Gets stop paying its latency while it straggles.
func TestChaosStragglerReadRouting(t *testing.T) {
	newRemote := func() moc.RemoteStore {
		rs, err := moc.NewRemoteStore(moc.RemoteConfig{
			LatencySeconds: 0.001, SleepScale: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	r0, r1 := newRemote(), newRemote()
	repl, err := moc.NewReplicatedStoreWithOptions(moc.ReplicaOptions{SlowFactor: 3}, r0, r1)
	if err != nil {
		t.Fatal(err)
	}

	chaos, err := moc.NewChaos(moc.ChaosConfig{
		Events:        []moc.ChaosEvent{moc.StragglerWindowEvent(0, 5, 15)},
		LatencyMult:   20,
		BandwidthMult: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	chaos.BindRemote(0, r0)

	payload := []byte("chaos straggler payload")
	var skipsAtOpen int64
	var getsMidWindow int64
	for it := 0; it < chaos.Horizon()+3; it++ {
		chaos.Advance(it)
		switch it {
		case 5:
			// Window just opened: the degradation is live before the
			// EWMA has seen it.
			if _, _, degraded := r0.DegradeFactors(); !degraded {
				t.Fatal("straggler window open but backend 0 not degraded")
			}
			skipsAtOpen = repl.SlowSkips()
		case 10:
			// Mid-window, after the EWMA adapted: the straggler should
			// be demoted, so the Gets below must not touch it.
			getsMidWindow = r0.Metrics().GetOps
		}
		key := "k" + string(rune('a'+it%7))
		if err := repl.Put(key, payload); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 3; j++ {
			got, err := repl.Get(key)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(payload) {
				t.Fatalf("read %q through the chaos window", got)
			}
		}
		if it == 14 {
			if r0.Metrics().GetOps != getsMidWindow {
				t.Errorf("straggling backend served %d more Gets after demotion",
					r0.Metrics().GetOps-getsMidWindow)
			}
			lat := repl.BackendLatencies()
			if lat[0] <= lat[1] {
				t.Errorf("straggler EWMA %.4fs not above healthy %.4fs", lat[0], lat[1])
			}
			if repl.SlowSkips() <= skipsAtOpen {
				t.Error("no reads were routed around the straggler")
			}
		}
	}
	// The window closed at its end: degradation cleared, reads fine.
	if _, _, degraded := r0.DegradeFactors(); degraded {
		t.Error("straggler window closed but backend 0 still degraded")
	}
	if repl.Repairs() != 0 {
		t.Errorf("%d read-repairs during a slow-only fault — straggler must not diverge", repl.Repairs())
	}
	if r0.Metrics().DegradedOps == 0 {
		t.Error("no operation was served degraded during the straggler window")
	}
}

// TestChaosPartitionHealCadence partitions one replica mid-run and
// heals it: the scrub pass sees the divergence and the adaptive
// cadence stretches the checkpoint interval while the fleet is
// degraded; after the heal the scrub's anti-entropy Sync re-replicates
// the missed writes and the cadence relaxes back to the configured
// interval.
func TestChaosPartitionHealCadence(t *testing.T) {
	clock := simtime.NewManualClock(time.Unix(1_700_000_000, 0))
	mem0, mem1 := moc.NewMemStore(), moc.NewMemStore()
	repl, err := moc.NewReplicatedStore(mem0, mem1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := moc.NewFleet(repl, moc.FleetConfig{Now: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.SetCadence()

	const interval = 4
	cfg := chaosBaseConfig()
	cfg.Interval = interval
	sys, err := f.NewSystem(cfg, "base")
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	chaos, err := moc.NewChaos(moc.ChaosConfig{
		Events: []moc.ChaosEvent{moc.PartitionWindowEvent(1, 6, 14)},
	})
	if err != nil {
		t.Fatal(err)
	}
	chaos.BindReplica(repl)

	const totalIters = 34
	maxStretch, maxInterval := 1.0, interval
	synced := 0
	for it := 1; it <= totalIters; it++ {
		clock.Advance(time.Second)
		chaos.Advance(it)
		if _, err := sys.Step(); err != nil {
			t.Fatalf("step %d: %v", it, err)
		}
		if it == 13 {
			// The partition heals next iteration: force the in-flight
			// checkpoint persists to land while the replica is still
			// cut off, so the heal deterministically owes repair.
			if err := sys.FlushCheckpoints(); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := f.Scrub()
		if err != nil {
			t.Fatalf("scrub at %d: %v", it, err)
		}
		synced += rep.SyncCopies
		if st := f.CadenceStretch(); st > maxStretch {
			maxStretch = st
		}
		if iv := f.Cadence(interval); iv > maxInterval {
			maxInterval = iv
		}
	}
	if err := sys.FlushCheckpoints(); err != nil {
		t.Fatal(err)
	}

	// The cadence stretched while partitioned (one backend down and
	// repair owed: 2 x 1.5 = 3) and relaxed after the heal.
	if maxStretch < 2 {
		t.Errorf("cadence stretch peaked at %.2f during the partition, want >= 2", maxStretch)
	}
	if maxInterval <= interval {
		t.Errorf("effective interval never stretched past %d", interval)
	}
	if final := f.Cadence(interval); final != interval {
		t.Errorf("cadence interval %d after heal+relax, want back to %d", final, interval)
	}
	// The heal was repaired: anti-entropy copied the partition's missed
	// writes and both replicas converged.
	if synced == 0 {
		t.Error("scrub never re-replicated the partitioned backend's missed writes")
	}
	st, err := f.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.SyncOwed {
		t.Error("repair still owed after heal and scrub passes")
	}
	for i, h := range repl.Health() {
		if h != nil {
			t.Errorf("backend %d unhealthy after heal: %v", i, h)
		}
	}
	k0, err := mem0.Keys("")
	if err != nil {
		t.Fatal(err)
	}
	k1, err := mem1.Keys("")
	if err != nil {
		t.Fatal(err)
	}
	if len(k0) == 0 || len(k0) != len(k1) {
		t.Errorf("replicas diverged after heal: %d vs %d keys", len(k0), len(k1))
	}
	// Committed rounds survived the whole scenario: a fresh writer can
	// resume from the store.
	resume := cfg
	resume.Resume = true
	clock.Advance(2 * time.Minute) // old lease expires; replacement adopts
	re, err := f.NewSystem(resume, "base")
	if err != nil {
		t.Fatalf("resume after chaos: %v", err)
	}
	defer re.Close()
	if re.Iteration() == 0 {
		t.Error("resume restored nothing after the partition scenario")
	}
}
