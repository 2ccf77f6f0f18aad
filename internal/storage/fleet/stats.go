package fleet

import (
	"sort"

	"moc/internal/storage/cas"
	"moc/internal/storage/readserve"
)

// JobStats is one job's storage footprint on the shared store. A writer
// with manifests in the store but no registry record (a pre-fleet
// store, or a plain System sharing the backend) appears with Registered
// false.
type JobStats struct {
	ID         string
	Parent     string
	Registered bool
	Epoch      int64
	LeaseHeld  bool
	// LeaseExpiresUnixNano is the lease's absolute expiry (0 until the
	// job is first acquired). Together with LeaseHeld it lets operator
	// tooling show time remaining on live leases and flag jobs whose
	// lease ran out without anyone adopting them.
	LeaseExpiresUnixNano int64
	// Rounds/Manifests/Modules count the job's committed state.
	Rounds    int
	Manifests int
	Modules   int
	// LogicalBytes is the job's presented checkpoint volume (manifest
	// module sizes); ChunkBytes the unique chunk bytes its manifests
	// reference — what a per-job independent store would have to hold —
	// and ExclusiveChunkBytes the subset no other job references.
	LogicalBytes        int64
	ChunkBytes          int64
	ExclusiveChunkBytes int64
}

// Stats is the fleet-wide storage and maintenance summary.
type Stats struct {
	// Jobs lists per-job footprints, sorted by id.
	Jobs []JobStats
	// LogicalBytes sums every job's presented volume;
	// PhysicalChunkBytes is the unique chunk volume of the shared store
	// (the union across jobs); IndependentChunkBytes is what the same
	// jobs would hold on per-job independent stores (the sum of each
	// job's unique chunk bytes).
	LogicalBytes          int64
	PhysicalChunkBytes    int64
	IndependentChunkBytes int64
	// DedupRatio is 1 − physical/logical: the fraction of presented
	// bytes the shared store avoided holding. CrossJobDedupRatio is
	// 1 − physical/independent: the fraction independent per-job stores
	// would hold that sharing one chunk namespace eliminates — the
	// cross-job win specifically, 0 when no chunk is shared between
	// jobs.
	DedupRatio         float64
	CrossJobDedupRatio float64
	// Repairs counts replica read-repair write-backs (replicated
	// backends only); BackendsDown the replicas probing unhealthy at the
	// last scrub.
	Repairs      int64
	BackendsDown int
	// Scrub/repair daemon lifetime counters: passes run, keys copied by
	// scheduled anti-entropy Syncs, down→healthy transitions observed,
	// integrity findings (missing + corrupt chunks), orphans seen by the
	// latest audit, and failed passes.
	ScrubPasses   int64
	SyncCopies    int64
	HealsDetected int64
	ScrubFindings int64
	OrphansSeen   int64
	ScrubErrors   int64
	// SyncOwed reports outstanding anti-entropy repair debt: some
	// backend (or shard replica) saw downtime and its reconciling Sync
	// has not completed yet.
	SyncOwed bool
	// CadenceStretch is the adaptive checkpoint cadence's current
	// interval stretch factor (1 when adaptive cadence is not enabled
	// or the fleet is healthy).
	CadenceStretch float64
	// Shards lists per-shard chunk distribution and health when the
	// shared backend is hash-partitioned (nil otherwise), in router
	// order; ShardBalance is then max/mean chunk bytes across shards
	// (1.0 = perfectly even).
	Shards       []ShardStats
	ShardBalance float64
	// ReadTier aggregates the read-serving cache hierarchy's counters
	// when Config.ReadTier is set (nil otherwise): per-level hits and
	// misses, coalesced fetches, promotions, and the backend gets that
	// escaped every layer.
	ReadTier *readserve.Stats
}

// ShardStats is one shard's slice of the fleet's storage and health.
type ShardStats struct {
	Name string
	// Chunks/ChunkBytes count the live chunks routing to this shard
	// (from the manifest scan — orphans not included).
	Chunks     int
	ChunkBytes int64
	// BackendsDown counts the shard's backends probing unhealthy at the
	// last scrub; Findings its lifetime integrity findings.
	BackendsDown int
	Findings     int64
}

// Stats computes the fleet summary from the store's manifests and the
// service's maintenance counters. It reads the backend (a manifest
// re-scan) but mutates nothing.
func (s *Service) Stats() (Stats, error) {
	s.guard.RLock()
	if err := s.admin.Refresh(); err != nil {
		s.guard.RUnlock()
		return Stats{}, err
	}
	manifests := s.admin.Manifests()
	s.guard.RUnlock()

	type acc struct {
		rounds    map[int]bool
		manifests int
		modules   int
		logical   int64
		chunks    map[cas.Hash]int64 // hash → size
	}
	byWriter := make(map[string]*acc)
	chunkJobs := make(map[cas.Hash]int)   // how many jobs reference the chunk
	chunkSize := make(map[cas.Hash]int64) // union sizes
	for _, m := range manifests {
		a := byWriter[m.Writer]
		if a == nil {
			a = &acc{rounds: make(map[int]bool), chunks: make(map[cas.Hash]int64)}
			byWriter[m.Writer] = a
		}
		a.rounds[m.Round] = true
		a.manifests++
		a.modules += len(m.Modules)
		a.logical += m.LogicalBytes()
		for _, e := range m.Modules {
			for _, c := range e.Chunks {
				if _, seen := a.chunks[c.Hash]; !seen {
					a.chunks[c.Hash] = int64(c.Size)
					chunkJobs[c.Hash]++
				}
				chunkSize[c.Hash] = int64(c.Size)
			}
		}
	}

	var st Stats
	if s.tier != nil {
		ts := s.tier.Stats()
		st.ReadTier = &ts
	}
	s.mu.Lock()
	now := s.cfg.Now()
	writers := make(map[string]*Job, len(s.jobs))
	for _, j := range s.jobs {
		writers[j.Writer] = j
	}
	st.ScrubPasses = s.scrubs
	st.SyncCopies = s.syncCopies
	st.HealsDetected = s.heals
	st.ScrubFindings = s.findings
	st.OrphansSeen = s.orphans
	st.ScrubErrors = s.scrubErrs
	targetNames, targets := s.scrubTargets()
	for i, t := range targets {
		ss := ShardStats{Name: targetNames[i], Findings: t.findings}
		for _, down := range t.prevDown {
			if down {
				ss.BackendsDown++
			}
		}
		st.BackendsDown += ss.BackendsDown
		st.SyncOwed = st.SyncOwed || t.needSync
		if s.sh != nil {
			st.Shards = append(st.Shards, ss)
		}
	}
	s.mu.Unlock()
	// A replica set, or a shard router summing its replicated shards.
	if rp, ok := s.backend.(interface{ Repairs() int64 }); ok {
		st.Repairs = rp.Repairs()
	}
	if len(st.Shards) > 0 {
		for h, size := range chunkSize {
			if i := s.sh.Locate(cas.ChunkKey(h)); i >= 0 && i < len(st.Shards) {
				st.Shards[i].Chunks++
				st.Shards[i].ChunkBytes += size
			}
		}
		var maxBytes, total int64
		for _, ss := range st.Shards {
			total += ss.ChunkBytes
			if ss.ChunkBytes > maxBytes {
				maxBytes = ss.ChunkBytes
			}
		}
		if total > 0 {
			mean := float64(total) / float64(len(st.Shards))
			st.ShardBalance = float64(maxBytes) / mean
		}
		// Cache the balance for the scrub pass's cadence observation —
		// recomputing it there would mean a manifest re-scan per pass.
		s.mu.Lock()
		s.lastShardBalance = st.ShardBalance
		s.mu.Unlock()
	}
	st.CadenceStretch = s.CadenceStretch()

	names := make(map[string]bool)
	for w := range byWriter {
		names[w] = true
	}
	for w := range writers {
		names[w] = true
	}
	for w := range names {
		js := JobStats{ID: w}
		if j := writers[w]; j != nil {
			js.ID = j.ID
			js.Parent = j.Parent
			js.Registered = true
			js.Epoch = j.Epoch
			js.LeaseHeld = j.LeaseExpiresUnixNano > now.UnixNano()
			js.LeaseExpiresUnixNano = j.LeaseExpiresUnixNano
		}
		if a := byWriter[w]; a != nil {
			js.Rounds = len(a.rounds)
			js.Manifests = a.manifests
			js.Modules = a.modules
			js.LogicalBytes = a.logical
			for h, size := range a.chunks {
				js.ChunkBytes += size
				if chunkJobs[h] == 1 {
					js.ExclusiveChunkBytes += size
				}
			}
		}
		st.LogicalBytes += js.LogicalBytes
		st.IndependentChunkBytes += js.ChunkBytes
		st.Jobs = append(st.Jobs, js)
	}
	sort.Slice(st.Jobs, func(i, j int) bool { return st.Jobs[i].ID < st.Jobs[j].ID })
	for _, size := range chunkSize {
		st.PhysicalChunkBytes += size
	}
	if st.LogicalBytes > 0 {
		st.DedupRatio = 1 - float64(st.PhysicalChunkBytes)/float64(st.LogicalBytes)
	}
	if st.IndependentChunkBytes > 0 {
		st.CrossJobDedupRatio = 1 - float64(st.PhysicalChunkBytes)/float64(st.IndependentChunkBytes)
	}
	return st, nil
}
