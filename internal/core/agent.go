package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"moc/internal/storage"
	"moc/internal/storage/cas"
)

// CheckpointData maps module keys (model module names) to serialized
// blobs. It is the unit the checkpoint agent moves between the GPU,
// CPU-memory snapshots, and persistent storage.
type CheckpointData map[string][]byte

// AgentStats summarizes an agent's activity.
type AgentStats struct {
	SnapshotsStarted int
	SnapshotsDone    int
	Persisted        int
	Skipped          int
	// SnapshotWait is the cumulative checkpoint-stall time callers spent
	// in WaitSnapshot (the "S" block of Fig. 3).
	SnapshotWait time.Duration
}

// Agent is the per-node checkpoint manager of §5: it runs the GPU→CPU
// snapshot asynchronously, hands completed snapshots to a background
// persist worker, and maintains the triple-buffer invariant that a
// complete, recovery-consistent checkpoint always exists while at most one
// snapshot and one persist are in flight.
//
// Buffer accounting follows Fig. 9: a buffer is occupied while a snapshot
// is being captured into it, while it waits for or undergoes persistence,
// and while it serves as the recovery buffer; it is freed when a newer
// persist completes and takes over the recovery role.
type Agent struct {
	snap *storage.SnapshotStore
	// store is the content-addressed checkpoint store over the persist
	// backend: module blobs are chunked, deduplicated across rounds, and
	// committed through per-round manifests (the _complete marker of the
	// naive layout is subsumed by manifest presence).
	store *cas.Store

	mu        sync.Mutex
	cond      *sync.Cond
	nbuf      int
	inUse     int
	recovery  bool // a recovery buffer is held
	capturing bool
	capErr    error
	closed    bool
	stats     AgentStats

	// snapRound[k] is the round whose state the snapshot store currently
	// holds for module k.
	snapRound map[string]int
	// persistIndex[k] lists the complete rounds in which module k was
	// persisted, ascending.
	persistIndex map[string][]int
	// completeRounds lists fully persisted rounds, ascending.
	completeRounds []int

	jobs chan persistJob
	wg   sync.WaitGroup
	errs []error

	// Buffer ownership. A captured blob is one pooled buffer shared,
	// read-only, by the snapshot store and by its round's persist job. It
	// goes back to the pool once the store has let go of it (a newer round
	// replaced it) and every persist job that may read
	// it has returned. Jobs run in hand-off order, so that is when the
	// newest job handed off before the buffer was let go returns:
	// jobsQueued stamps the buffer, jobsReturned releases it.
	jobsQueued, jobsReturned int
	retired                  []retiredBuf
}

type persistJob struct {
	round int
	data  CheckpointData
}

// retiredBuf is a buffer the snapshot store no longer holds; it is pooled
// once jobsReturned reaches after.
type retiredBuf struct {
	after int
	buf   []byte
}

// NewAgent builds an agent over the given snapshot (CPU memory) and
// persistent stores with the given buffer count (the paper uses 3; minimum
// 2). The persist backend is wrapped in a content-addressed store
// (NewAgentWithOptions tunes it). It recovers the persisted-round index
// from the store's manifests, so reopening over an existing PersistStore
// resumes where a previous agent stopped.
func NewAgent(snap *storage.SnapshotStore, persist storage.PersistStore, buffers int) (*Agent, error) {
	return NewAgentWithOptions(snap, persist, buffers, cas.Options{})
}

// NewAgentWithOptions is NewAgent with explicit checkpoint-store tuning
// (chunk size, striped-writer fan-out, writer id).
func NewAgentWithOptions(snap *storage.SnapshotStore, persist storage.PersistStore, buffers int, opts cas.Options) (*Agent, error) {
	if buffers < 2 {
		return nil, fmt.Errorf("core: agent needs at least 2 buffers, got %d", buffers)
	}
	store, err := cas.Open(persist, opts)
	if err != nil {
		return nil, fmt.Errorf("core: open checkpoint store: %w", err)
	}
	a := &Agent{
		snap:         snap,
		store:        store,
		nbuf:         buffers,
		snapRound:    make(map[string]int),
		persistIndex: make(map[string][]int),
		jobs:         make(chan persistJob, buffers),
	}
	a.cond = sync.NewCond(&a.mu)
	a.loadIndex()
	if len(a.completeRounds) > 0 {
		a.recovery = true
		a.inUse = 1
	}
	a.wg.Add(1)
	go a.persistLoop()
	return a, nil
}

// loadIndex rebuilds the complete-round and per-module indices from the
// checkpoint store's manifests. Caller must hold a.mu (or have exclusive
// access during construction).
func (a *Agent) loadIndex() {
	a.completeRounds = a.completeRounds[:0]
	a.persistIndex = make(map[string][]int)
	seen := map[int]bool{}
	for _, m := range a.store.Manifests() {
		if !seen[m.Round] {
			seen[m.Round] = true
			a.completeRounds = append(a.completeRounds, m.Round)
		}
		for _, e := range m.Modules {
			a.persistIndex[e.Module] = append(a.persistIndex[e.Module], m.Round)
		}
	}
	sort.Ints(a.completeRounds)
	for mod := range a.persistIndex {
		rounds := a.persistIndex[mod]
		sort.Ints(rounds)
		// A round may carry the module in several writers' manifests;
		// index it once.
		dedup := rounds[:0]
		for i, r := range rounds {
			if i == 0 || rounds[i-1] != r {
				dedup = append(dedup, r)
			}
		}
		a.persistIndex[mod] = dedup
	}
}

// Store exposes the underlying content-addressed checkpoint store
// (read-side: manifests, audit, stats).
func (a *Agent) Store() *cas.Store { return a.store }

// StorageStats returns the checkpoint store's dedup and write counters.
func (a *Agent) StorageStats() cas.Stats { return a.store.Stats() }

// TrySnapshot starts an asynchronous checkpoint of the given round. The
// capture callback runs on the snapshot goroutine and must return a
// consistent copy of the module states (the GPU→CPU copy); the caller
// keeps those states unchanged until WaitSnapshot returns. The returned
// blobs become the agent's: it adopts them into the snapshot store and
// shares them with the persist job without copying, and recycles them with
// storage.PutBuf when both are done, so the caller must not touch them
// again. keepForPersist selects which captured modules the persist level
// writes (persist-PEC); nil persists everything captured.
//
// It returns false — and the trigger is skipped, as in §5.2 — when a
// snapshot is already in flight or no buffer is free.
func (a *Agent) TrySnapshot(round int, capture func() (CheckpointData, error), keepForPersist func(module string) bool) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed || a.capturing || a.inUse >= a.nbuf {
		a.stats.Skipped++
		return false
	}
	a.capturing = true
	a.inUse++
	a.stats.SnapshotsStarted++
	go a.runSnapshot(round, capture, keepForPersist)
	return true
}

func (a *Agent) runSnapshot(round int, capture func() (CheckpointData, error), keep func(string) bool) {
	data, err := capture()
	toPersist := data
	if err == nil && keep != nil {
		toPersist = make(CheckpointData, len(data))
		for k, blob := range data {
			if keep(k) {
				toPersist[k] = blob
			}
		}
	}

	a.mu.Lock()
	defer a.mu.Unlock()
	a.capturing = false
	a.cond.Broadcast()
	if err != nil {
		a.capErr = err
		a.inUse--
		return
	}
	// The snapshot level, its bookkeeping and the hand-off to the persist
	// worker change together: adopting a blob is a pointer swap, and the
	// send cannot block (at most nbuf jobs are ever outstanding).
	for k, blob := range data {
		a.retire(a.snap.Adopt(k, blob))
		a.snapRound[k] = round
	}
	a.stats.SnapshotsDone++
	a.jobsQueued++
	a.jobs <- persistJob{round: round, data: toPersist}
}

// retire takes a buffer the snapshot store has let go of (nil is ignored):
// to the pool at once when no persist job is outstanding, otherwise when
// the newest job handed off so far returns. Caller holds a.mu.
func (a *Agent) retire(buf []byte) {
	if buf == nil {
		return
	}
	if a.jobsReturned < a.jobsQueued {
		a.retired = append(a.retired, retiredBuf{after: a.jobsQueued, buf: buf})
		return
	}
	storage.PutBuf(buf)
}

// persistLoop is the background CPU→storage worker: each job's payload
// goes through the content-addressed store, which dedups unchanged
// modules against every earlier round and fans new chunks across its
// striped writer pool. The manifest write inside WriteRound is the
// round's commit point.
func (a *Agent) persistLoop() {
	defer a.wg.Done()
	for job := range a.jobs {
		_, failed := a.store.WriteRound(job.round, job.data)
		a.mu.Lock()
		a.jobsReturned++
		waiting := a.retired[:0]
		for _, r := range a.retired {
			if r.after <= a.jobsReturned {
				storage.PutBuf(r.buf)
			} else {
				waiting = append(waiting, r)
			}
		}
		clear(a.retired[len(waiting):]) // the pool owns those now
		a.retired = waiting
		if failed != nil {
			a.errs = append(a.errs, failed)
			a.inUse-- // buffer released without becoming recovery
		} else {
			a.stats.Persisted++
			a.completeRounds = append(a.completeRounds, job.round)
			for k := range job.data {
				a.persistIndex[k] = append(a.persistIndex[k], job.round)
			}
			if a.recovery {
				a.inUse-- // previous recovery buffer freed
			}
			a.recovery = true
		}
		a.cond.Broadcast()
		a.mu.Unlock()
	}
}

// WaitSnapshot blocks until no snapshot capture is in flight — the point
// before the weight update where training must stall if the snapshot has
// not finished (Fig. 3). The stall duration is accumulated in the stats.
func (a *Agent) WaitSnapshot() error {
	start := time.Now()
	a.mu.Lock()
	for a.capturing {
		a.cond.Wait()
	}
	err := a.capErr
	a.capErr = nil
	a.stats.SnapshotWait += time.Since(start)
	a.mu.Unlock()
	return err
}

// Flush blocks until every started snapshot has been persisted (or
// failed), returning the first persist error if any.
func (a *Agent) Flush() error {
	if err := a.WaitSnapshot(); err != nil {
		return err
	}
	a.mu.Lock()
	for a.stats.Persisted+len(a.errs) < a.stats.SnapshotsDone {
		a.cond.Wait()
	}
	var err error
	if len(a.errs) > 0 {
		err = a.errs[0]
	}
	a.mu.Unlock()
	return err
}

// Close flushes and shuts down the persist worker. The agent must not be
// used afterwards.
func (a *Agent) Close() error {
	err := a.Flush()
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return err
	}
	a.closed = true
	a.mu.Unlock()
	close(a.jobs)
	a.wg.Wait()
	return err
}

// Stats returns a copy of the agent's counters.
func (a *Agent) Stats() AgentStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}

// LatestCompleteRound returns the newest fully persisted round, or -1.
func (a *Agent) LatestCompleteRound() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.completeRounds) == 0 {
		return -1
	}
	return a.completeRounds[len(a.completeRounds)-1]
}

// RecoveredModule is one module's restored state, read-only. Parts gives
// it in the form storage.DecodeTensorsInto takes, whichever field holds it.
type RecoveredModule struct {
	// Chunks is the module's serialized state as read from storage: its
	// verified chunks in order, never joined — from a storage.Viewer
	// backend the backend's own views, which it never mutates.
	Chunks [][]byte
	// Blob is the module's serialized state in one piece when it did not
	// come from storage: with FromSnapshot set the snapshot level's own
	// buffer, on loan (see Agent.Recover); otherwise whatever the caller
	// built the recovery from (a fork's capture).
	Blob []byte
	// Round is the checkpoint round whose state was restored.
	Round int
	// FromSnapshot reports whether the in-memory snapshot (two-level
	// recovery) supplied the state rather than persistent storage.
	FromSnapshot bool
}

// Parts returns the module's serialized state as parts: Chunks when it was
// read from storage, else Blob as the only part.
func (m RecoveredModule) Parts() [][]byte {
	if m.Chunks != nil {
		return m.Chunks
	}
	return [][]byte{m.Blob}
}

// Recover assembles the freshest recoverable state for every module ever
// checkpointed. For modules where snapshotSurvives returns true and the
// in-memory snapshot is at least as fresh as the persisted copy, the
// snapshot is used (two-level recovery, §5.1); otherwise the module's
// newest persisted version no newer than the latest complete round is
// read back from storage. All storage reads — each module from whichever
// round last persisted it — form one read plan handed to the store in a
// single ReadAcross call, which fetches and verifies every chunk of the
// plan at the store's read width; Recover itself starts no goroutines.
// Those modules come back as their chunks (RecoveredModule.Chunks), not
// joined: decoding them is the only pass over their bytes after the hash.
//
// The snapshot level is served by reference: a FromSnapshot blob is the
// snapshot store's buffer, lent read-only (storage.SnapshotStore.Lend), not
// a copy. The loan needs no care to be safe — a lent buffer is never
// recycled while the loan is open, whatever later rounds do to its slot,
// so the bytes stay intact for as long as the caller holds them — but each
// lent buffer replaced meanwhile is one the next capture misses in the
// pool, so a caller that has restored from the blobs (or given up) says so
// with ReleaseRecovered and must not read them afterwards.
func (a *Agent) Recover(snapshotSurvives func(module string) bool) (map[string]RecoveredModule, error) {
	a.mu.Lock()
	latest := -1
	if len(a.completeRounds) > 0 {
		latest = a.completeRounds[len(a.completeRounds)-1]
	}
	// persisted[k] is module k's newest persisted round no newer than the
	// latest complete one, or -1.
	persisted := make(map[string]int, len(a.persistIndex))
	for k, rounds := range a.persistIndex {
		persisted[k] = -1
		for i := len(rounds) - 1; i >= 0; i-- {
			if rounds[i] <= latest {
				persisted[k] = rounds[i]
				break
			}
		}
	}
	snapRound := make(map[string]int, len(a.snapRound))
	for k, r := range a.snapRound {
		snapRound[k] = r
	}
	a.mu.Unlock()

	out := make(map[string]RecoveredModule, len(persisted))
	var reads []cas.ModuleAt
	for k, persistedRound := range persisted {
		if snapshotSurvives != nil && snapshotSurvives(k) {
			if sr, ok := snapRound[k]; ok && sr >= persistedRound {
				blob, err := a.snap.Lend(k)
				if err == nil {
					out[k] = RecoveredModule{Blob: blob, Round: sr, FromSnapshot: true}
					continue
				}
			}
		}
		if persistedRound < 0 {
			continue // never made it to a complete checkpoint
		}
		reads = append(reads, cas.ModuleAt{Round: persistedRound, Module: k})
	}
	if len(reads) == 0 {
		return out, nil // served whole from the snapshot level
	}
	// Map order is random; a sorted plan issues the same requests in the
	// same order every run, so a failure names the same chunk every run.
	sort.Slice(reads, func(i, j int) bool { return reads[i].Module < reads[j].Module })
	chunks, err := a.store.ReadAcross(reads)
	if err != nil {
		return nil, fmt.Errorf("core: recover: %w", err)
	}
	for i, r := range reads {
		out[r.Module] = RecoveredModule{Chunks: chunks[i], Round: r.Round}
	}
	return out, nil
}

// ReleaseRecovered ends the loan of every snapshot buffer Recover has
// handed out: the caller is done reading them, and they go back to the
// pool as usual once their slots are replaced. Recoveries overlapping in
// time share the one loan; end it after the last.
func (a *Agent) ReleaseRecovered() {
	a.snap.EndLoans()
}
