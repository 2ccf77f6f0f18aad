package fleet

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"moc/internal/obs"
	"moc/internal/storage"
	"moc/internal/storage/cas"
)

// ScrubReport summarizes one scrub/repair pass.
type ScrubReport struct {
	// Backends is the replica count (0 when the backend is not
	// replicated); Down counts backends probing unhealthy this pass, and
	// Healed the down→healthy transitions observed since the last pass.
	Backends int
	Down     int
	Healed   int
	// SyncCopies counts keys the pass's anti-entropy Sync copied or
	// reconciled (0 when no Sync was owed).
	SyncCopies int
	// Missing and Orphans come from the refcount audit: referenced
	// chunks absent from the backend (data loss — a finding) and stored
	// chunks no manifest references (harmless; in-flight rounds appear
	// here transiently).
	Missing int
	Orphans int
	// ChunksVerified counts chunks whose content was re-hashed by the
	// rotating verification sweep this pass; Corrupt counts address
	// mismatches among them (a finding).
	ChunksVerified int
	Corrupt        int
	// Shards breaks the pass down per shard when the backend is
	// hash-partitioned (nil otherwise). The top-level counters above
	// are then the aggregates across shards.
	Shards []ShardScrub
}

// ShardScrub is one shard's slice of a scrub pass.
type ShardScrub struct {
	Name string
	// Backends is the shard's replica count (1 for a plain backend);
	// Down and Healed mirror the top-level meanings within the shard.
	Backends int
	Down     int
	Healed   int
	// SyncCopies counts keys this shard's owed anti-entropy Sync
	// copied or reconciled this pass.
	SyncCopies int
	// Missing and Corrupt are this pass's integrity findings attributed
	// to the shard by key routing.
	Missing int
	Corrupt int
}

// Findings counts the pass's integrity findings (missing + corrupt).
func (r ScrubReport) Findings() int { return r.Missing + r.Corrupt }

// Scrub runs one scrub/repair pass:
//
//  1. Probe health (probeTargets): each shard of a sharded backend, or
//     the replicas of an unsharded replicated one; a plain backend is
//     not probed. A replica seen down marks its set's Sync as owed; once
//     every replica of the set probes healthy again, the owed
//     anti-entropy Sync runs and converges the healed replicas — no
//     manual Sync call anywhere. Each shard reports its own slice of the
//     pass in Shards.
//  2. Audit chunk refcounts across every manifest in the store.
//  3. Re-hash a bounded, rotating window of stored chunks against their
//     addresses. On a replicated backend these reads take the same
//     first-healthy path recovery would, so they double as read-repair
//     sweeps: a healed replica that missed a chunk gets it written back.
//
// The pass holds the read side of the fleet write guard: writers
// proceed concurrently, Retain does not (a concurrent sweep would make
// the audit report transient false findings).
func (s *Service) Scrub() (ScrubReport, error) {
	sp := obs.Start("fleet", "Scrub")
	defer sp.End()
	s.guard.RLock()
	defer s.guard.RUnlock()
	var rep ScrubReport
	psp := sp.Child("probe")
	err := s.probeTargets(&rep)
	psp.End()
	if err != nil {
		return rep, err
	}

	asp := sp.Child("audit")
	audit, err := s.admin.Audit()
	asp.End()
	if err != nil {
		return rep, fmt.Errorf("fleet: scrub audit: %w", err)
	}
	rep.Missing = len(audit.Missing)
	rep.Orphans = len(audit.Orphans)

	vsp := sp.Child("verify")
	verified, corruptKeys, err := s.verifySweep()
	vsp.End()
	if err != nil {
		return rep, err
	}
	rep.ChunksVerified = verified
	rep.Corrupt = len(corruptKeys)

	// Attribute integrity findings to their shards by key routing.
	if len(rep.Shards) > 0 {
		for _, h := range audit.Missing {
			if i := s.sh.Locate(cas.ChunkKey(h)); i >= 0 && i < len(rep.Shards) {
				rep.Shards[i].Missing++
			}
		}
		for _, k := range corruptKeys {
			if i := s.sh.Locate(k); i >= 0 && i < len(rep.Shards) {
				rep.Shards[i].Corrupt++
			}
		}
		s.mu.Lock()
		for _, ss := range rep.Shards {
			if t := s.targets[ss.Name]; t != nil {
				t.findings += int64(ss.Missing + ss.Corrupt)
			}
		}
		s.mu.Unlock()
	}

	s.mu.Lock()
	s.scrubs++
	s.findings += int64(rep.Findings())
	s.orphans = int64(rep.Orphans)
	owed := false
	for _, t := range s.targets {
		owed = owed || t.needSync
	}
	sig := HealthSignal{
		BackendsDown:   rep.Down,
		SyncOwed:       owed,
		ShardImbalance: s.lastShardBalance,
	}
	ctl := s.cadence
	s.mu.Unlock()
	// Feed the pass's health observation to the adaptive checkpoint
	// cadence (outside s.mu — the controller has its own lock).
	if ctl != nil {
		ctl.Observe(sig)
		obs.Instant("fleet", "cadence",
			"stretch", strconv.FormatFloat(ctl.Stretch(), 'g', -1, 64),
			"backends_down", strconv.Itoa(sig.BackendsDown))
	}
	return rep, nil
}

// probeTargets is the probe/repair half of a pass: every target is
// probed — a replica set through its replica Probe, a plain shard with
// storage.Probe — health transitions are tracked per target, and a
// replica set that saw downtime gets its owed anti-entropy Sync once all
// its replicas probe healthy again. One degraded target never blocks the
// others' probes. Shards report their slices of the pass in rep.Shards.
func (s *Service) probeTargets(rep *ScrubReport) error {
	s.mu.Lock()
	names, targets := s.scrubTargets()
	s.mu.Unlock()
	var firstErr error
	for i, t := range targets {
		ss := ShardScrub{Name: names[i]}
		var health []error
		if t.rep != nil {
			health = t.rep.Probe()
		} else {
			// A plain shard: one probe, no repair path — downtime is
			// surfaced, and the refcount audit reports what it cost.
			health = []error{storage.Probe(s.sh.Shard(i))}
		}
		ss.Backends = len(health)
		s.mu.Lock()
		for b, err := range health {
			down := err != nil
			if down {
				ss.Down++
				t.needSync = t.rep != nil // a plain shard has nothing to sync
			} else if b < len(t.prevDown) && t.prevDown[b] {
				ss.Healed++
				s.heals++
			}
			if b < len(t.prevDown) {
				t.prevDown[b] = down
			}
		}
		doSync := t.needSync && ss.Down == 0
		s.mu.Unlock()
		if doSync {
			n, err := t.rep.Sync()
			if err != nil {
				// The owed Sync stays owed; the next pass retries. Other
				// targets still get their probes and repairs.
				if firstErr == nil {
					firstErr = fmt.Errorf("fleet: scrub sync %s: %w", names[i], err)
				}
			} else {
				ss.SyncCopies = n
				s.mu.Lock()
				s.syncCopies += int64(n)
				t.needSync = false
				s.mu.Unlock()
			}
		}
		rep.Backends += ss.Backends
		rep.Down += ss.Down
		rep.Healed += ss.Healed
		rep.SyncCopies += ss.SyncCopies
		if s.sh != nil {
			rep.Shards = append(rep.Shards, ss)
		}
	}
	return firstErr
}

// verifySweep re-hashes up to ScrubChunksPerPass chunks, resuming where
// the previous pass's rotating cursor stopped, and reports how many it
// read and which keys failed their address check (so findings can be
// attributed to shards). A chunk deleted between the listing and the
// read (a racing writer's failed round cleanup) is skipped, not a
// finding.
func (s *Service) verifySweep() (verified int, corruptKeys []string, err error) {
	limit := s.cfg.ScrubChunksPerPass
	if limit < 0 {
		return 0, nil, nil
	}
	keys, err := s.backend.Keys(cas.ChunkPrefix)
	if err != nil {
		return 0, nil, fmt.Errorf("fleet: scrub scan chunks: %w", err)
	}
	if len(keys) == 0 {
		return 0, nil, nil
	}
	s.mu.Lock()
	start := s.scrubPos % len(keys)
	n := limit
	if n > len(keys) {
		n = len(keys)
	}
	s.scrubPos = (start + n) % len(keys)
	s.mu.Unlock()
	for i := 0; i < n; i++ {
		k := keys[(start+i)%len(keys)]
		want, perr := cas.ParseHash(strings.TrimPrefix(k, cas.ChunkPrefix))
		if perr != nil {
			return verified, corruptKeys, fmt.Errorf("fleet: foreign key %q under chunk prefix", k)
		}
		blob, gerr := s.backend.Get(k)
		if gerr != nil {
			continue // deleted or unreachable mid-sweep; the audit covers loss
		}
		verified++
		if cas.HashBytes(blob) != want {
			corruptKeys = append(corruptKeys, k)
		}
	}
	return verified, corruptKeys, nil
}

// StartDaemon runs Scrub on the given interval in a background
// goroutine until StopDaemon (or Close). Pass errors are counted, not
// fatal: a scrub that failed because a backend was down is exactly the
// situation a later pass repairs.
func (s *Service) StartDaemon(interval time.Duration) error {
	if interval <= 0 {
		return fmt.Errorf("fleet: daemon interval must be positive")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.daemonStop != nil {
		return fmt.Errorf("fleet: daemon already running")
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	s.daemonStop, s.daemonDone = stop, done
	go func() {
		defer close(done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				if _, err := s.Scrub(); err != nil {
					s.mu.Lock()
					s.scrubErrs++
					s.mu.Unlock()
				}
			}
		}
	}()
	return nil
}

// StopDaemon stops the background scrubber and waits for the in-flight
// pass (if any) to finish. No-op when the daemon is not running.
func (s *Service) StopDaemon() {
	s.mu.Lock()
	stop, done := s.daemonStop, s.daemonDone
	s.daemonStop, s.daemonDone = nil, nil
	s.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}
