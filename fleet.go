package moc

// Public API for the multi-job fleet checkpoint service: N concurrent
// training jobs — typically a base pretrain plus its fine-tune forks —
// share one content-addressed chunk store, so a fork persists only the
// chunks it actually changed relative to the lineage it came from. The
// fleet owns the coordination no single job can provide: a persisted
// job registry with epoch-fenced leases, fleet-safe garbage collection
// (the union of every job's live state), and a background scrub/repair
// daemon that re-replicates a healed backend and audits chunk
// integrity without any manual Sync call.

import (
	"time"

	"moc/internal/storage/fleet"
)

// FleetConfig tunes a Fleet.
type FleetConfig struct {
	// LeaseTTL is the job lease duration (default 30s). Leases renew on
	// every committed checkpoint round, so the TTL only has to outlast
	// the longest gap between a job's rounds; a job whose lease ran out
	// can be re-acquired (crash recovery), fencing the old writer.
	LeaseTTL time.Duration
	// ScrubChunksPerPass bounds the chunk content verification of one
	// scrub pass (default 128; negative disables the sweep).
	ScrubChunksPerPass int
	// Now supplies the clock for lease bookkeeping (default the wall
	// clock). Chaos harnesses inject a manual clock so a preemption
	// wave's mass lease expiry is driven deterministically.
	Now func() time.Time
	// ReadTier, when non-nil, fronts the shared store with the
	// read-serving cache hierarchy: each job gets a private L1 over one
	// fleet-shared warm L2, and every chunk read is coalesced, so forks
	// hydrating a common base model fetch each of its chunks from the
	// backend once fleet-wide. Only immutable content-addressed chunks
	// are cached — manifests and registry records always read the store
	// directly — and the fleet GC drops both cache levels after every
	// sweep.
	ReadTier *ReadTierConfig
	// Obs enables the unified tracing/metrics layer for the fleet's
	// storage stack (see EnableObs). When Obs.ExportPath is set, Close
	// writes a Chrome trace-event timeline there.
	Obs ObsConfig
}

// FleetJob is one registered job's identity and lease state.
type FleetJob struct {
	ID     string
	Parent string
	Epoch  int64
	// LeaseHeld reports an unexpired lease (an attached System, or a
	// recently crashed one whose lease has not run out yet).
	LeaseHeld bool
	// LeaseExpires is the lease's absolute expiry (zero until the job is
	// first attached). With LeaseHeld it distinguishes a live lease
	// (time remaining) from an expired-but-unadopted job — the orphan
	// state a preemption wave leaves behind.
	LeaseExpires time.Time
}

// FleetJobStats is one job's storage footprint on the shared store.
type FleetJobStats = fleet.JobStats

// FleetStats is the fleet-wide storage and maintenance summary: per-job
// volumes, the cross-job dedup ratio, the scrub/repair counters, the
// per-shard distribution when the shared store is sharded
// (NewShardedStore) and the read tier's counters when
// FleetConfig.ReadTier is set.
type FleetStats = fleet.Stats

// FleetShardStats is one shard's slice of the fleet's storage and
// health.
type FleetShardStats = fleet.ShardStats

// FleetScrubReport summarizes one scrub/repair pass (see Fleet.Scrub).
type FleetScrubReport = fleet.ScrubReport

// FleetShardScrub is one shard's slice of a scrub pass.
type FleetShardScrub = fleet.ShardScrub

// Fleet is the multi-job checkpoint service over one shared store.
type Fleet struct {
	svc       *fleet.Service
	now       func() time.Time
	obsExport string
}

// NewFleet opens the fleet service over a shared persistent store. A
// replicated store (NewReplicatedStore) additionally enables the repair
// half of the scrub daemon: a backend observed failing and healing is
// re-replicated by a scheduled anti-entropy Sync. A sharded store
// (NewShardedStore) gets the per-shard variant — each shard probed and
// repaired independently, with per-shard findings in scrub reports and
// per-shard distribution in Stats — and its Rebalance is serialized
// against the fleet's writers and GC automatically. The registry —
// persisted in the store itself — survives restarts, so reopening a
// fleet over an existing store resumes its jobs.
func NewFleet(store PersistStore, cfg FleetConfig) (*Fleet, error) {
	cfg.Obs.apply()
	svc, err := fleet.Open(store, fleet.Config{
		LeaseTTL:           cfg.LeaseTTL,
		ScrubChunksPerPass: cfg.ScrubChunksPerPass,
		Now:                cfg.Now,
		ReadTier:           cfg.ReadTier,
	})
	if err != nil {
		return nil, err
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	return &Fleet{svc: svc, now: now, obsExport: cfg.Obs.ExportPath}, nil
}

// Register adds a job to the registry without attaching a System (the
// parent, if non-empty, must already be registered). Attaching through
// NewSystem or ForkOnFleet registers implicitly.
func (f *Fleet) Register(id, parent string) error {
	_, err := f.svc.Register(id, parent)
	return err
}

// Jobs lists the registered jobs, sorted by id.
func (f *Fleet) Jobs() []FleetJob {
	jobs := f.svc.Jobs()
	out := make([]FleetJob, len(jobs))
	now := f.now()
	for i, j := range jobs {
		out[i] = FleetJob{
			ID:           j.ID,
			Parent:       j.Parent,
			Epoch:        j.Epoch,
			LeaseHeld:    j.LeaseExpires().After(now),
			LeaseExpires: j.LeaseExpires(),
		}
	}
	return out
}

// ExpiredJobs lists the jobs whose lease ran out without a new holder —
// after a preemption wave, the orphan set replacement capacity should
// re-attach (Fleet.NewSystem resumes each from its last committed
// round). A deliberately closed job also appears here: lease-based
// liveness cannot tell a crash from a clean exit, only that nobody is
// writing. Sorted by id.
func (f *Fleet) ExpiredJobs() []FleetJob {
	expired := f.svc.ExpiredJobs()
	out := make([]FleetJob, len(expired))
	for i, j := range expired {
		out[i] = FleetJob{
			ID: j.ID, Parent: j.Parent, Epoch: j.Epoch,
			LeaseExpires: j.LeaseExpires(),
		}
	}
	return out
}

// SetCadence enables the lease-aware adaptive checkpoint cadence: every
// scrub pass feeds the fleet health it observed (backends down, repair
// debt, shard imbalance) to a controller, and every fleet-attached
// System consults it each iteration, stretching its checkpoint interval
// while the fleet is degraded and relaxing back to the configured
// cadence once it heals: ×2 per down backend, ×1.5 while anti-entropy
// repair is owed, ×1.5 while the shard balance exceeds 1.5, capped at
// ×8. Degradation is adopted instantly; recovery is geometric (half the
// remaining gap per healthy pass), so a flapping backend does not make
// the cadence flap. Enable it before starting the scrub daemon.
func (f *Fleet) SetCadence() { f.svc.SetCadence() }

// Cadence maps a base checkpoint interval through the current adaptive
// stretch — what a training loop outside System.Step asks each round to
// decide whether this iteration checkpoints. Identity when SetCadence
// was never called (or the fleet is healthy).
func (f *Fleet) Cadence(base int) int { return f.svc.CadenceInterval(base) }

// CadenceStretch reports the current interval stretch factor (1 when
// adaptive cadence is disabled or the fleet is healthy).
func (f *Fleet) CadenceStretch() float64 { return f.svc.CadenceStretch() }

// NewSystem builds a System whose checkpoints persist into the fleet's
// shared store under the given job id (registered on first use). The
// job's lease is acquired for the System's lifetime — Close releases it
// — and every checkpoint commit is epoch-fenced, so a crashed job can
// be re-attached (or adopted) without two writers splitting one
// lineage. With cfg.Resume set, the System restores the job's latest
// complete checkpoint: the fleet counterpart of reopening a store.
func (f *Fleet) NewSystem(cfg Config, jobID string) (*System, error) {
	return f.NewSystemWith(cfg, jobID, nil)
}

// NewSystemWith is NewSystem training on the provided corpus (nil = the
// default pre-training corpus) — what re-adopting a fine-tune fork
// after a preemption needs: the resumed System must train on the fork's
// domain corpus, not the default, to continue the run it inherits.
func (f *Fleet) NewSystemWith(cfg Config, jobID string, corpus *Corpus) (*System, error) {
	sess, err := f.svc.AcquireOrRegister(jobID, "")
	if err != nil {
		return nil, err
	}
	sys, err := newSystemOn(cfg, nil, corpus, sess, nil)
	if err != nil {
		sess.Release()
		return nil, err
	}
	return sys, nil
}

// ForkOnFleet is ForkOn persisting into the fleet instead of a fresh
// in-memory store: the fork is registered as a child job of this
// system's fleet job (lineage ""→root when the parent is not
// fleet-attached) and its checkpoints dedup against every chunk already
// in the shared store — for a fine-tune fork of a base model, the
// entire unchanged remainder of the model costs zero new bytes.
func (s *System) ForkOnFleet(f *Fleet, jobID string, corpus *Corpus, overrides Config) (*System, error) {
	parent := ""
	if s.sess != nil {
		parent = s.sess.JobID()
	}
	sess, err := f.svc.AcquireOrRegister(jobID, parent)
	if err != nil {
		return nil, err
	}
	ns, err := s.forkInto(corpus, s.forkConfig(overrides), nil, sess)
	if err != nil {
		sess.Release()
		return nil, err
	}
	return ns, nil
}

// Retain is the fleet-safe garbage collector — the only safe GC entry
// point when several jobs share one store. It computes the union of
// live module entries across every registered job (each keeps, per
// module, the newest copy its own recovery would read; unregistered
// writers are kept untouched) and sweeps only chunks no surviving
// manifest references. The collection is serialized against every
// attached System's in-flight checkpoint round, so a round committing
// concurrently from another job can never lose chunks to the sweep. It
// returns the number of objects removed.
func (f *Fleet) Retain() (int, error) {
	st, err := f.svc.Retain()
	return st.Removed(), err
}

// Stats reports the fleet-wide storage footprint — per-job volumes and
// the cross-job dedup ratio — plus the scrub/repair counters.
func (f *Fleet) Stats() (FleetStats, error) { return f.svc.Stats() }

// Scrub runs one scrub/repair pass synchronously: probe replica
// health, run the owed anti-entropy Sync once a failed backend probes
// healthy again, audit chunk refcounts, and re-hash a rotating window
// of chunk contents (which doubles as a read-repair sweep on a
// replicated store). StartScrubDaemon runs the same pass on an
// interval in the background.
func (f *Fleet) Scrub() (FleetScrubReport, error) { return f.svc.Scrub() }

// StartScrubDaemon starts the background scrub/repair goroutine.
func (f *Fleet) StartScrubDaemon(interval time.Duration) error {
	return f.svc.StartDaemon(interval)
}

// StopScrubDaemon stops it, waiting for an in-flight pass to finish.
func (f *Fleet) StopScrubDaemon() { f.svc.StopDaemon() }

// Close stops the scrub daemon. Attached Systems keep working and
// release their leases through their own Close. When the fleet was
// opened with Obs.ExportPath, the span ring is exported there first.
func (f *Fleet) Close() error {
	err := f.svc.Close()
	if f.obsExport != "" {
		if werr := WriteTraceFile(f.obsExport); err == nil {
			err = werr
		}
	}
	return err
}

// ErrFleetFenced reports a checkpoint commit refused because the job's
// lease was adopted by a newer session (see Fleet.NewSystem).
var ErrFleetFenced = fleet.ErrFenced

// ErrFleetLeaseHeld reports an attach refused because the job's lease
// is still held.
var ErrFleetLeaseHeld = fleet.ErrLeaseHeld
