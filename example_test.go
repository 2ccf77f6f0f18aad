package moc_test

// Executed walkthroughs of the public API. Each Output block holds
// counts and byte ratios only: no timings, no training losses (FMA
// fusion moves them across architectures), and no counts that move
// with goroutine scheduling.

import (
	"fmt"
	"log"
	"time"

	moc "moc"
	"moc/internal/simtime"
)

// Train a small sparse-MoE model with Partial Experts Checkpointing
// (4 of 8 experts snapshotted, 2 persisted) and two-level recovery,
// lose a node, recover from the last checkpoint, and keep training.
func ExampleNewSystem() {
	sys, err := moc.NewSystem(moc.Config{
		Layers: 4, Hidden: 32, Experts: 8, TopK: 2,
		Vocab: 64, Window: 8, BatchSize: 32,
		LR: 0.01, CapacityFactor: 1.5, GateNoise: 0.1, Seed: 42,
		Interval: 10, KSnapshot: 4, KPersist: 2,
		Variant: moc.VariantWO, TwoLevelRecovery: true,
	}, moc.NewMemStore())
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	if _, err := sys.RunTo(295); err != nil {
		log.Fatal(err)
	}
	if err := sys.InjectFault(); err != nil { // node failure at iteration 295
		log.Fatal(err)
	}
	fmt.Println("recovered to iteration", sys.Iteration())
	if _, err := sys.RunTo(400); err != nil {
		log.Fatal(err)
	}
	if err := sys.FlushCheckpoints(); err != nil {
		log.Fatal(err)
	}
	st := sys.Stats()
	fmt.Printf("iteration %d: %d checkpoints, %d fault, PLT under the 3.75%% threshold: %v\n",
		st.Iteration, st.Checkpoints, st.Faults, st.PLT < 0.0375)
	// Output:
	// recovered to iteration 290
	// iteration 400: 40 checkpoints, 1 fault, PLT under the 3.75% threshold: true
}

// Measure what one checkpoint costs against an object-store cost model
// and feed it to the timing simulator as its persist phase: the
// byte-level storage simulation grounding the iteration-level one.
func ExampleCalibratePersist() {
	cal, err := moc.CalibratePersist(moc.RemoteConfig{
		LatencySeconds: 0.020,   // 20 ms per request
		UploadBps:      8 << 20, // 8 MiB/s up
		DownloadBps:    16 << 20,
	}, 16<<20, 1<<20, 4) // a 16 MiB checkpoint in 1 MiB chunks, 4 writers
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("persist: %d requests over %d writers, %.1f simulated s\n", cal.Ops, cal.Workers, cal.PersistSeconds)
	res, err := simtime.Run(simtime.Config{
		FB: 0.2, Update: 0.05, Snapshot: 0.1, Persist: cal.PersistSeconds,
		Interval: 2, Iterations: 200, Buffers: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("every 2 iterations: %d checkpoints persisted, %d triggers skipped, effective interval %.1f\n",
		res.Persisted, res.Skipped, res.EffectiveInterval)
	// Output:
	// persist: 17 requests over 4 writers, 0.6 simulated s
	// every 2 iterations: 86 checkpoints persisted, 14 triggers skipped, effective interval 2.3
}

// Replay a timed fault scenario against live stores: a straggling
// remote, a backend outage, a replica partition, and a preemption wave
// over two jobs, each window half-open in training iterations.
func ExampleNewChaos() {
	remote, err := moc.NewRemoteStore(moc.RemoteConfig{})
	if err != nil {
		log.Fatal(err)
	}
	flaky := moc.NewFlakyStore(moc.NewMemStore())
	repl, err := moc.NewReplicatedStore(moc.NewMemStore(), moc.NewMemStore())
	if err != nil {
		log.Fatal(err)
	}
	chaos, err := moc.NewChaos(moc.ChaosConfig{Events: append([]moc.ChaosEvent{
		moc.StragglerWindowEvent(0, 1, 3),
		moc.BackendDownWindowEvent(0, 2, 4),
		moc.PartitionWindowEvent(1, 3, 5),
	}, moc.PreemptionWaveEvents(4, 2, 0, 1)...)})
	if err != nil {
		log.Fatal(err)
	}
	chaos.BindRemote(0, remote)
	chaos.BindBackend(0, flaky)
	chaos.BindReplica(repl)
	chaos.OnPreempt(func(job int) { fmt.Printf("  job %d preempted\n", job) })
	chaos.OnRestore(func(job int) { fmt.Printf("  job %d restored\n", job) })
	for it := 0; it <= chaos.Horizon(); it++ {
		chaos.Advance(it)
		_, _, slow := remote.DegradeFactors()
		fmt.Printf("it %d: %d active, remote slow %v, backend down %v\n", it, len(chaos.ActiveAt(it)), slow, flaky.Down())
		if err := repl.Put(fmt.Sprintf("k%d", it), []byte{byte(it)}); err != nil {
			log.Fatal(err)
		}
	}
	copied, err := repl.Sync()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("partition healed: sync copied the %d keys replica 1 missed\n", copied)
	// Output:
	// it 0: 0 active, remote slow false, backend down false
	// it 1: 1 active, remote slow true, backend down false
	// it 2: 2 active, remote slow true, backend down true
	// it 3: 2 active, remote slow false, backend down true
	//   job 0 preempted
	//   job 1 preempted
	// it 4: 3 active, remote slow false, backend down false
	// it 5: 2 active, remote slow false, backend down false
	//   job 0 restored
	//   job 1 restored
	// it 6: 0 active, remote slow false, backend down false
	// partition healed: sync copied the 2 keys replica 1 missed
}

// A fleet's adaptive cadence stretches the checkpoint interval while a
// replica is down or owed repair, and relaxes it once scrubs see the
// fleet healthy again.
func ExampleFleet_SetCadence() {
	flaky := moc.NewFlakyStore(moc.NewMemStore())
	repl, err := moc.NewReplicatedStore(moc.NewMemStore(), flaky)
	if err != nil {
		log.Fatal(err)
	}
	fleet, err := moc.NewFleet(repl, moc.FleetConfig{})
	if err != nil {
		log.Fatal(err)
	}
	defer fleet.Close()
	fleet.SetCadence()
	for _, step := range []string{"healthy", "fail", "heal", "healthy", "healthy", "healthy"} {
		switch step {
		case "fail":
			flaky.Fail()
		case "heal":
			flaky.Heal()
		}
		if _, err := fleet.Scrub(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-7s stretch %.2f, interval 10 -> %d\n", step, fleet.CadenceStretch(), fleet.Cadence(10))
	}
	// Output:
	// healthy stretch 1.00, interval 10 -> 10
	// fail    stretch 3.00, interval 10 -> 30
	// heal    stretch 2.00, interval 10 -> 20
	// healthy stretch 1.50, interval 10 -> 15
	// healthy stretch 1.25, interval 10 -> 13
	// healthy stretch 1.12, interval 10 -> 11
}

// The scrub daemon repairs a replica that failed and healed, with no
// manual Sync anywhere.
func ExampleFleet_StartScrubDaemon() {
	flaky := moc.NewFlakyStore(moc.NewMemStore())
	repl, err := moc.NewReplicatedStore(moc.NewMemStore(), flaky)
	if err != nil {
		log.Fatal(err)
	}
	fleet, err := moc.NewFleet(repl, moc.FleetConfig{})
	if err != nil {
		log.Fatal(err)
	}
	defer fleet.Close()
	if err := fleet.StartScrubDaemon(time.Millisecond); err != nil {
		log.Fatal(err)
	}
	flaky.Fail()
	if err := repl.Put("written-while-down", []byte("x")); err != nil {
		log.Fatal(err)
	}
	flaky.Heal()
	repaired := simtime.Eventually(10*time.Second, time.Millisecond, func() bool {
		_, err := flaky.Get("written-while-down")
		return err == nil
	})
	fmt.Println("healed replica repaired by the daemon:", repaired)
	// Output:
	// healed replica repaired by the daemon: true
}

// Checkpoint through a cache tier into a simulated object store: a
// node that keeps its cache recovers without a single remote read.
// (TestRemoteCachedPersistAndRecoveryEndToEnd adds the replacement
// node that starts cold and pays the remote.)
func ExampleNewCachedStore() {
	remote, err := moc.NewRemoteStore(moc.RemoteConfig{LatencySeconds: 0.020})
	if err != nil {
		log.Fatal(err)
	}
	cached, err := moc.NewCachedStore(remote, 64<<20)
	if err != nil {
		log.Fatal(err)
	}
	sys, err := moc.NewSystem(moc.Config{
		Layers: 2, Hidden: 16, Experts: 4, TopK: 2,
		Vocab: 32, Window: 4, BatchSize: 8, LR: 0.01, Seed: 3, Interval: 5,
	}, cached)
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	if _, err := sys.RunTo(10); err != nil {
		log.Fatal(err)
	}
	before := remote.Metrics().GetOps
	if err := sys.InjectFault(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("warm recovery: %d remote gets, %d cache hits\n", remote.Metrics().GetOps-before, cached.CacheStats().Hits)
	// Output:
	// warm recovery: 0 remote gets, 29 cache hits
}

// The efficiency simulations behind Figures 10–13: one iteration that
// checkpoints, and the average iteration of a 500-iteration pipeline
// checkpointing every 5, for each method on the paper's Case 3 cluster.
func ExampleSimulateCase() {
	for _, m := range []moc.MethodSpec{
		{Name: "baseline"},
		{Name: "base-async"},
		{Name: "moc-async", KSnapshot: 4, KPersist: 1},
	} {
		b, err := moc.SimulateCase("case3", m)
		if err != nil {
			log.Fatal(err)
		}
		p, err := moc.SimulatePipeline(moc.WorkloadSpec{Case: "case3"}, m, 5, 500)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s checkpointing iteration %.2fs (O_save %.2fs), pipeline average %.2fs\n",
			m.Name, b.IterTime, b.OSave, p.AvgIterSeconds)
	}
	fmt.Printf("K_pec=1 of 16 experts: checkpoint %.0f%% of full\n", 100*moc.CheckpointSizeRatio(1, 16, true))
	// Output:
	// baseline   checkpointing iteration 7.39s (O_save 5.52s), pipeline average 2.97s
	// base-async checkpointing iteration 2.71s (O_save 0.85s), pipeline average 2.02s
	// moc-async  checkpointing iteration 1.92s (O_save 0.05s), pipeline average 1.87s
	// K_pec=1 of 16 experts: checkpoint 42% of full
}
