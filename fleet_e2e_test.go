package moc_test

// End-to-end acceptance tests for the multi-job fleet checkpoint
// service: a base pretrain plus fine-tune forks sharing one chunk
// store (cross-job dedup), fleet-safe GC across all of them, lease
// fencing, and the scrub/repair daemon restoring full replication
// after a backend fails and heals — with no manual Sync call.

import (
	"errors"
	"testing"
	"time"

	moc "moc"
	"moc/internal/simtime"
)

// fleetBaseConfig is a small full-checkpoint config for fleet tests.
func fleetBaseConfig() moc.Config {
	return moc.Config{
		Layers: 3, Hidden: 24, Experts: 4, TopK: 2,
		Vocab: 32, Window: 6, BatchSize: 16,
		LR: 0.01, Seed: 5,
		Interval: 0, // manual checkpoints
	}
}

func TestFleetCrossJobDedupAndFleetGCEndToEnd(t *testing.T) {
	store := moc.NewMemStore()
	f, err := moc.NewFleet(store, moc.FleetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	base, err := f.NewSystem(fleetBaseConfig(), "base")
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	if _, err := base.RunTo(15); err != nil {
		t.Fatal(err)
	}
	if err := base.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	if err := base.FlushCheckpoints(); err != nil {
		t.Fatal(err)
	}

	// Three fine-tune forks on different corpora, experts frozen (the
	// FT-w.o.E workflow): the frozen expert tensors stay byte-identical
	// to the base checkpoint, so the forks' bootstrap rounds dedup
	// against the base's chunks instead of re-persisting the model.
	corpora := []*moc.Corpus{
		moc.NewCorpus("law", 32, 11),
		moc.NewCorpus("med", 32, 22),
		moc.NewCorpus("code", 32, 33),
	}
	var forks []*moc.System
	for i, c := range corpora {
		fk, err := base.ForkOnFleet(f, "ft-"+c.Name(), c, moc.Config{FreezeExperts: true})
		if err != nil {
			t.Fatalf("fork %d: %v", i, err)
		}
		defer fk.Close()
		if _, err := fk.RunTo(20); err != nil {
			t.Fatal(err)
		}
		if err := fk.CheckpointNow(); err != nil {
			t.Fatal(err)
		}
		if err := fk.FlushCheckpoints(); err != nil {
			t.Fatal(err)
		}
		forks = append(forks, fk)
	}

	jobs := f.Jobs()
	if len(jobs) != 4 {
		t.Fatalf("registry has %d jobs, want 4: %+v", len(jobs), jobs)
	}
	for _, j := range jobs {
		if j.ID != "base" && j.Parent != "base" {
			t.Fatalf("fork %q lost its lineage: %+v", j.ID, j)
		}
	}
	st, err := f.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.CrossJobDedupRatio <= 0.15 {
		t.Fatalf("cross-job dedup ratio %.3f, want materially > 0 (stats %+v)", st.CrossJobDedupRatio, st)
	}
	if st.PhysicalChunkBytes >= st.IndependentChunkBytes {
		t.Fatalf("shared store %d B not below independent %d B",
			st.PhysicalChunkBytes, st.IndependentChunkBytes)
	}
	// A fork pays only for what it changed: its frozen experts are the
	// base's chunks, so part of its volume is shared, not exclusive.
	for _, j := range st.Jobs {
		if j.Parent == "base" && j.ExclusiveChunkBytes >= j.ChunkBytes {
			t.Fatalf("fork %s shares nothing with the base: %+v", j.ID, j)
		}
	}

	// Each job's recovery is isolated to its own lineage: a fault on a
	// fork restores the fork's checkpoint bit-identically even though
	// the base and the other forks share the store.
	lossBefore, _, err := forks[0].Evaluate(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := forks[0].InjectFault(); err != nil {
		t.Fatal(err)
	}
	lossAfter, _, err := forks[0].Evaluate(64)
	if err != nil {
		t.Fatal(err)
	}
	if !lossesClose(lossBefore, lossAfter) {
		t.Fatalf("fork recovery not bit-identical: loss %v->%v", lossBefore, lossAfter)
	}

	// Fleet-safe GC across all four jobs: advance the base a few rounds
	// so superseded state exists, collect, and verify every job still
	// recovers and the audit is clean.
	if _, err := base.RunTo(25); err != nil {
		t.Fatal(err)
	}
	if err := base.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	if err := base.FlushCheckpoints(); err != nil {
		t.Fatal(err)
	}
	preGC, err := f.Stats()
	if err != nil {
		t.Fatal(err)
	}
	removed, err := f.Retain()
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("fleet GC found nothing despite superseded base rounds")
	}
	afterGC, err := f.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if afterGC.PhysicalChunkBytes >= preGC.PhysicalChunkBytes {
		t.Fatalf("fleet GC kept every chunk: %d -> %d B", preGC.PhysicalChunkBytes, afterGC.PhysicalChunkBytes)
	}
	rep, err := f.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Missing != 0 || rep.Corrupt != 0 {
		t.Fatalf("post-GC scrub findings: %+v", rep)
	}
	for i, fk := range forks {
		if _, err := fk.VerifyStorage(); err != nil {
			t.Fatalf("fork %d verify after fleet GC: %v", i, err)
		}
	}
	if err := forks[1].InjectFault(); err != nil {
		t.Fatalf("fork recovery after fleet GC: %v", err)
	}
}

func TestFleetScrubDaemonRestoresReplicationEndToEnd(t *testing.T) {
	// Acceptance: a Flaky backend fails, checkpoints continue on the
	// survivor, the backend heals — and the background daemon alone
	// (no manual Sync call anywhere in this test) restores full
	// replication: post-heal sync copies > 0, final Health() all nil.
	flaky := moc.NewFlakyStore(moc.NewMemStore())
	repl, err := moc.NewReplicatedStore(moc.NewMemStore(), flaky)
	if err != nil {
		t.Fatal(err)
	}
	f, err := moc.NewFleet(repl, moc.FleetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.StartScrubDaemon(time.Millisecond); err != nil {
		t.Fatal(err)
	}

	sys, err := f.NewSystem(fleetBaseConfig(), "base")
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if _, err := sys.RunTo(10); err != nil {
		t.Fatal(err)
	}
	if err := sys.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	if err := sys.FlushCheckpoints(); err != nil {
		t.Fatal(err)
	}

	waitFor := func(what string, pred func(moc.FleetStats) bool) moc.FleetStats {
		t.Helper()
		var st moc.FleetStats
		ok := simtime.Eventually(10*time.Second, 2*time.Millisecond, func() bool {
			var err error
			st, err = f.Stats()
			if err != nil {
				t.Fatal(err)
			}
			return pred(st)
		})
		if !ok {
			t.Fatalf("daemon never %s: %+v", what, st)
		}
		return st
	}

	flaky.Fail()
	// Checkpoints keep landing on the survivor while the replica is out.
	if _, err := sys.RunTo(14); err != nil {
		t.Fatal(err)
	}
	if err := sys.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	if err := sys.FlushCheckpoints(); err != nil {
		t.Fatal(err)
	}
	waitFor("observed the outage", func(st moc.FleetStats) bool { return st.BackendsDown == 1 })
	preHeal, err := f.Stats()
	if err != nil {
		t.Fatal(err)
	}

	flaky.Heal()
	final := waitFor("repaired the healed replica", func(st moc.FleetStats) bool {
		return st.HealsDetected > 0 && st.SyncCopies > preHeal.SyncCopies && st.BackendsDown == 0
	})
	if final.SyncCopies-preHeal.SyncCopies <= 0 {
		t.Fatalf("post-heal sync copied nothing: %+v", final)
	}
	f.StopScrubDaemon()
	for i, herr := range repl.Health() {
		if herr != nil {
			t.Fatalf("backend %d unhealthy after daemon repair: %v", i, herr)
		}
	}

	// The healed replica now carries everything: with the survivor gone,
	// recovery is served entirely by the repaired backend.
	lossBefore, _, err := sys.Evaluate(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.InjectFault(); err != nil {
		t.Fatal(err)
	}
	lossAfter, _, err := sys.Evaluate(64)
	if err != nil {
		t.Fatal(err)
	}
	if !lossesClose(lossBefore, lossAfter) {
		t.Fatalf("recovery not bit-identical after repair: loss %v->%v", lossBefore, lossAfter)
	}
}

func TestFleetLeaseFencingAcrossAttach(t *testing.T) {
	store := moc.NewMemStore()
	f, err := moc.NewFleet(store, moc.FleetConfig{LeaseTTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sys, err := f.NewSystem(fleetBaseConfig(), "base")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunTo(5); err != nil {
		t.Fatal(err)
	}
	if err := sys.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	if err := sys.FlushCheckpoints(); err != nil {
		t.Fatal(err)
	}
	// The lease is held: a second attach must refuse rather than split
	// the lineage between two writers.
	if _, err := f.NewSystem(fleetBaseConfig(), "base"); !errors.Is(err, moc.ErrFleetLeaseHeld) {
		t.Fatalf("second attach on a held lease: %v", err)
	}
	// After Close the lease is released; the job resumes from its own
	// latest checkpoint.
	lossBefore, _, err := sys.Evaluate(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	resume := fleetBaseConfig()
	resume.Resume = true
	sys2, err := f.NewSystem(resume, "base")
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	lossResumed, _, err := sys2.Evaluate(64)
	if err != nil {
		t.Fatal(err)
	}
	if !lossesClose(lossBefore, lossResumed) {
		t.Fatalf("fleet resume not bit-identical: loss %v->%v", lossBefore, lossResumed)
	}
}
