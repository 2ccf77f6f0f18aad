// Elastic-fleet chaos tour: a base pretrain plus two fine-tune forks
// ride out a timed fault scenario — a straggling remote backend (slow,
// not dead), a network partition that heals, and a spot preemption wave
// that expires every fork's lease at once. The lease-aware adaptive
// cadence stretches the checkpoint interval while the storage fleet is
// degraded and relaxes it after repair; reads route around the
// straggler; the scrub daemon repairs the partition's divergence; and
// replacement capacity re-adopts the orphaned jobs with zero committed
// rounds lost. The whole scenario is keyed to training iterations, so
// the run is exactly reproducible.
//
//	go run ./examples/elastic_fleet
package main

import (
	"fmt"
	"log"
	"math"
	"time"

	moc "moc"
	"moc/internal/simtime"
)

const (
	totalIters = 170
	interval   = 10 // base checkpoint interval (iterations)
	leaseTTL   = 15 * time.Second
	iterSecond = time.Second // manual clock advance per iteration
)

func main() {
	// Time is a hand-advanced clock: one simulated second per training
	// iteration, so lease expiry is part of the scripted scenario.
	clock := simtime.NewManualClock(time.Unix(1_700_000_000, 0))

	// The shared store: replica 0 is a simulated object store (it can
	// straggle), replica 1 an in-memory backend behind a partitionable
	// link. SlowFactor 3 lets reads demote a replica whose observed
	// latency EWMA exceeds 3x the fastest.
	rs, err := moc.NewRemoteStore(moc.RemoteConfig{
		LatencySeconds: 0.0002, SleepScale: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	mem := moc.NewMemStore()
	repl, err := moc.NewReplicatedStoreWithOptions(moc.ReplicaOptions{SlowFactor: 3}, rs, mem)
	if err != nil {
		log.Fatal(err)
	}

	fleet, err := moc.NewFleet(repl, moc.FleetConfig{
		LeaseTTL: leaseTTL,
		Now:      clock.Now,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer fleet.Close()
	// The adaptive cadence: x2 per down backend, x1.5 while repair is
	// owed, capped at x8, relaxing half the gap per healthy scrub.
	fleet.SetCadence()

	// The timed fault scenario (iterations, half-open windows):
	//   [ 30, 60) remote replica straggles (x8 latency, /8 bandwidth)
	//   [ 70,100) replica 1 partitioned (keeps state, heals at 100)
	//   [110,140) spot preemption wave takes both fork writers
	chaos, err := moc.NewChaos(moc.ChaosConfig{
		Events: append(
			[]moc.ChaosEvent{
				moc.StragglerWindowEvent(0, 30, 60),
				moc.PartitionWindowEvent(1, 70, 100),
			},
			moc.PreemptionWaveEvents(110, 30, 1, 2)...,
		),
	})
	if err != nil {
		log.Fatal(err)
	}
	chaos.BindRemote(0, rs)
	chaos.BindReplica(repl)

	// Three jobs: the base pretrain and two fine-tune forks (frozen
	// experts, so fork checkpoints dedup against the base's chunks).
	baseCfg := moc.Config{
		Layers: 4, Hidden: 32, Experts: 8, TopK: 2,
		Vocab: 64, Window: 8, BatchSize: 32,
		LR: 0.01, Seed: 11, Interval: interval,
	}
	base, err := fleet.NewSystem(baseCfg, "base")
	if err != nil {
		log.Fatal(err)
	}
	defer base.Close()
	if _, err := base.RunTo(20); err != nil {
		log.Fatal(err)
	}
	if err := base.FlushCheckpoints(); err != nil {
		log.Fatal(err)
	}

	type slot struct {
		name      string
		corpus    *moc.Corpus
		sys       *moc.System
		preempted bool
	}
	slots := []*slot{
		{name: "base", sys: base},
		{name: "ft-law", corpus: moc.NewCorpus("law", 64, 101)},
		{name: "ft-med", corpus: moc.NewCorpus("med", 64, 202)},
	}
	forkCfg := moc.Config{Interval: interval, FreezeExperts: true}
	for _, sl := range slots[1:] {
		fork, err := base.ForkOnFleet(fleet, sl.name, sl.corpus, forkCfg)
		if err != nil {
			log.Fatal(err)
		}
		sl.sys = fork
		defer func(s *moc.System) { s.Close() }(fork)
	}

	// The wave's targets index the slots; preemption kills a writer
	// (we stop stepping it and abandon its System — its lease simply
	// stops renewing), restoration is handled after the window below.
	chaos.OnPreempt(func(target int) {
		slots[target].preempted = true
		fmt.Printf("it %3d  PREEMPTED %-8s (writer dead; lease expires in %v)\n",
			chaosIter, slots[target].name, leaseTTL)
	})
	restored := map[int]bool{}
	chaos.OnRestore(func(target int) { restored[target] = true })

	lastStretch := 1.0
	for it := 20; it < totalIters; it++ {
		chaosIter = it
		clock.Advance(iterSecond)
		chaos.Advance(it)

		// Replacement capacity arrived: re-adopt what expired. The
		// orphan set is exactly fleet.ExpiredJobs, and resuming with
		// Resume restores each job's latest complete checkpoint.
		if len(restored) > 0 {
			for _, j := range fleet.ExpiredJobs() {
				for ti, sl := range slots {
					if sl.name != j.ID || !restored[ti] {
						continue
					}
					// The replacement writer rebuilds the fork's full
					// effective config: parent model shape + the fork's
					// checkpointing overrides, resuming from the store.
					cfg := baseCfg
					cfg.Interval = forkCfg.Interval
					cfg.FreezeExperts = forkCfg.FreezeExperts
					cfg.Resume = true
					sys, err := fleet.NewSystemWith(cfg, sl.name, sl.corpus)
					if err != nil {
						log.Fatal(err)
					}
					sl.sys, sl.preempted = sys, false
					defer func(s *moc.System) { s.Close() }(sys)
					fmt.Printf("it %3d  RE-ADOPTED %-8s at iteration %d (epoch bumped, old writer fenced)\n",
						it, sl.name, sys.Iteration())
				}
			}
			restored = map[int]bool{}
		}

		for _, sl := range slots {
			if sl.preempted {
				continue
			}
			if _, err := sl.sys.Step(); err != nil {
				log.Fatal(err)
			}
		}

		// The scrub pass observes fleet health (probes, owed repair)
		// and feeds the cadence controller.
		if it%5 == 0 {
			if _, err := fleet.Scrub(); err != nil {
				log.Fatal(err)
			}
			if st := fleet.CadenceStretch(); math.Abs(st-lastStretch) >= 0.005 {
				fmt.Printf("it %3d  cadence stretch %.2f -> %.2f (interval %d -> %d)\n",
					it, lastStretch, st, interval, fleet.Cadence(interval))
				lastStretch = st
			}
		}
	}
	for _, sl := range slots {
		if err := sl.sys.FlushCheckpoints(); err != nil {
			log.Fatal(err)
		}
	}

	// The scoreboard: every job kept its committed rounds, the replicas
	// converged, and reads routed around the straggler while it lasted.
	st, err := fleet.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%-8s %-8s %-8s %12s\n", "job", "epoch", "rounds", "chunk bytes")
	for _, j := range st.Jobs {
		var epoch int64
		for _, fj := range fleet.Jobs() {
			if fj.ID == j.ID {
				epoch = fj.Epoch
			}
		}
		fmt.Printf("%-8s %-8d %-8d %12d\n", j.ID, epoch, j.Rounds, j.ChunkBytes)
	}
	lat := repl.BackendLatencies()
	fmt.Printf("\nreplica latency EWMAs: remote %.3fms, mem %.3fms; reads routed around a slow replica %d times\n",
		lat[0]*1e3, lat[1]*1e3, repl.SlowSkips())
	fmt.Printf("scrub: %d passes, %d heals, %d keys re-replicated after the partition, repair owed: %v\n",
		st.ScrubPasses, st.HealsDetected, st.SyncCopies, st.SyncOwed)
	fmt.Printf("cadence: stretch %.2f at end of run (1.0 = fully relaxed)\n", st.CadenceStretch)
	m := rs.Metrics()
	fmt.Printf("remote: %d ops served degraded during the straggler window\n", m.DegradedOps)
	if n := len(fleet.ExpiredJobs()); n != 0 {
		log.Fatalf("%d jobs left expired-unadopted", n)
	}
	fmt.Println("\nall jobs live, all committed rounds retained, fleet healthy.")
}

// chaosIter mirrors the loop iteration for the OnPreempt callback's
// log line (callbacks fire inside chaos.Advance).
var chaosIter int
