// Package fleet is the multi-job checkpoint service: it multiplexes N
// concurrent training jobs over one shared content-addressed chunk
// store, so fine-tune forks of a base model dedup against the base's
// chunks instead of re-persisting them. The service owns what no single
// cas.Store can decide for itself:
//
//   - a job registry persisted in the store (job id → lineage parent and
//     a lease with epoch fencing, so a crashed job's writer can be
//     adopted without two processes committing under one writer id);
//   - per-job sessions wrapping cas.Open with writer-scoped manifests
//     and a fleet-shared presence index (cross-job dedup, and fleet-wide
//     visibility of GC sweeps);
//   - fleet-safe GC: Retain computes the union of live chunk references
//     across every registered job and is serialized against in-flight
//     WriteRounds through the shared write guard, replacing per-writer
//     Store.Retain as the only safe GC entry point in multi-job
//     deployments;
//   - a background scrub/repair daemon (daemon.go) that probes replica
//     health, schedules anti-entropy Sync after a failed backend heals,
//     and audits chunk refcounts plus content hashes on a rotating
//     schedule.
//
// Layout under the backend key space (alongside the cas/ prefixes):
//
//	fleet/jobs/<job id>   JSON job record (registry + lease)
package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"moc/internal/obs"
	"moc/internal/storage"
	"moc/internal/storage/cas"
	"moc/internal/storage/readserve"
)

const jobPrefix = "fleet/jobs/"

// adminWriter is the writer id of the service's own store handle. It
// never writes manifests; job ids may not start with "fleet" so it can
// never collide with a job's writer.
const adminWriter = "fleet-admin"

// DefaultLeaseTTL is the lease duration used when Config.LeaseTTL is 0.
// Leases renew on every manifest commit, so the TTL only has to outlast
// the longest expected gap between a job's checkpoint rounds.
const DefaultLeaseTTL = 30 * time.Second

// DefaultScrubChunksPerPass bounds the rotating content-verification
// sweep of one scrub pass (see daemon.go).
const DefaultScrubChunksPerPass = 128

var (
	// ErrFenced reports a commit refused because the session's lease
	// epoch is no longer current: another session adopted the job.
	ErrFenced = errors.New("fleet: session fenced (lease lost to a newer epoch)")
	// ErrLeaseHeld reports an Acquire refused because an unexpired lease
	// is held by another session.
	ErrLeaseHeld = errors.New("fleet: lease held")
	// ErrUnknownJob reports an operation on an unregistered job id.
	ErrUnknownJob = errors.New("fleet: unknown job")
)

// Config tunes a Service.
type Config struct {
	// LeaseTTL is the job lease duration (default DefaultLeaseTTL).
	// Leases renew on every manifest commit.
	LeaseTTL time.Duration
	// ScrubChunksPerPass bounds the chunk content verification of one
	// scrub pass (default DefaultScrubChunksPerPass; negative disables
	// the sweep).
	ScrubChunksPerPass int
	// Now supplies the clock (default time.Now) — tests drive lease
	// expiry deterministically by injecting a simtime.ManualClock's Now.
	Now func() time.Time
	// ReadTier, when non-nil, puts a read-serving cache hierarchy in
	// front of the shared backend: every session's chunk reads route
	// through a per-job L1 over one fleet-shared warm L2 with request
	// coalescing, so forks hydrating a common base model fetch each of
	// its chunks from the backend once, fleet-wide. Only immutable
	// cas/chunks/ keys are cached — manifests and fleet records always
	// read the backend directly — and Retain drops both cache levels
	// after every sweep, so the tier never serves a collected chunk.
	ReadTier *readserve.Config
}

func (c *Config) fillDefaults() {
	if c.LeaseTTL == 0 {
		c.LeaseTTL = DefaultLeaseTTL
	}
	if c.ScrubChunksPerPass == 0 {
		c.ScrubChunksPerPass = DefaultScrubChunksPerPass
	}
	if c.Now == nil {
		c.Now = time.Now
	}
}

// Job is one registered training job: its identity, lineage, and lease
// state. The Writer is the cas manifest writer id the job persists
// under (currently always the job id).
type Job struct {
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	Writer string `json:"writer"`
	// Epoch counts lease acquisitions: every Acquire or Adopt bumps it,
	// and a session commits only while its epoch is still the record's —
	// the fencing token that makes adopting a crashed job's writer safe.
	Epoch int64 `json:"epoch"`
	// CreatedUnixNano and LeaseExpiresUnixNano are wall-clock unix
	// nanoseconds (absolute, so records survive process restarts).
	CreatedUnixNano      int64 `json:"created_unix_nano"`
	LeaseExpiresUnixNano int64 `json:"lease_expires_unix_nano"`
}

// LeaseExpires returns the lease expiry as a time.
func (j Job) LeaseExpires() time.Time { return time.Unix(0, j.LeaseExpiresUnixNano) }

func jobKey(id string) string { return jobPrefix + id }

// validateJobID enforces the id charset: job ids become cas writer ids
// (no '.' or '/') and registry keys, and must not shadow the service's
// own namespace.
func validateJobID(id string) error {
	if id == "" {
		return fmt.Errorf("fleet: empty job id")
	}
	if strings.HasPrefix(id, "fleet") {
		return fmt.Errorf("fleet: job id %q: the fleet* prefix is reserved", id)
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
		default:
			return fmt.Errorf("fleet: job id %q: only letters, digits, '-' and '_' allowed", id)
		}
	}
	return nil
}

// repairable is the replica interface the scrub daemon drives. The
// shared backend satisfies it when it is a replica.Store (directly or
// through the public ReplicatedStore wrapper).
type repairable interface {
	Backends() int
	Probe() []error
	Health() []error
	Sync() (copied int, err error)
	Repairs() int64
}

// sharded is the router interface the scrub daemon and stats drive when
// the shared backend is hash-partitioned (a shard.Router, directly or
// through the public ShardedStore wrapper). Shards counts backends
// (including one pending removal mid-migration), Shard returns one for
// per-shard probing — each may itself be a replica set — and Locate
// attributes a key to its shard. The daemon tracks health, owed
// anti-entropy, and findings per shard rather than per backend.
type sharded interface {
	Shards() int
	ShardName(i int) string
	Shard(i int) storage.PersistStore
	Locate(key string) int
}

// guardable lets the service hand its fleet-wide write guard to a
// backend that serializes maintenance against GC (a shard router's
// Rebalance write-locks it, so a migration never races Retain or an
// in-flight WriteRound).
type guardable interface {
	SetGuard(*sync.RWMutex)
}

// Service is the fleet checkpoint service over one shared backend.
type Service struct {
	backend storage.PersistStore
	cfg     Config
	shared  *cas.SharedPresence
	// guard serializes every session's WriteRound against every Retain
	// across the whole fleet (see cas.Options.Guard).
	guard sync.RWMutex
	// admin is the service's own unscoped store handle: GC, audit, and
	// stats run through it. It shares the presence index and guard with
	// every session.
	admin *cas.Store
	sh    sharded // nil when the backend is not sharded
	// tier is the read-serving cache hierarchy (nil unless
	// Config.ReadTier is set); tierNodes maps job id → that job's L1
	// handle, reused across re-acquires so adoption does not leak nodes.
	tier      *readserve.Tier
	tierNodes map[string]*readserve.Node

	mu       sync.Mutex
	jobs     map[string]*Job
	sessions map[string]*Session
	// jobLocks serializes, per job, every registry mutation and every
	// fenced manifest commit in this process, making the fence check and
	// the commit it guards atomic against in-process Acquire/Adopt.
	jobLocks map[string]*sync.Mutex
	// Scrub state (daemon.go): the probed targets and lifetime counters.
	// A sharded backend has one target per shard, keyed by shard name so
	// state survives membership changes reindexing the router; an
	// unsharded replica set is the one target "replicas"; a plain
	// backend has none.
	targets    map[string]*scrubTarget
	scrubs     int64
	syncCopies int64
	heals      int64
	findings   int64 // missing + corrupt chunks seen by scrubs
	orphans    int64 // orphan chunks seen by the latest audit
	scrubErrs  int64
	scrubPos   int // rotating cursor of the verification sweep
	// cadence is the adaptive checkpoint cadence controller (nil unless
	// SetCadence enabled it); lastShardBalance caches the most recent
	// Stats() shard balance so scrub passes can feed it to the
	// controller without re-scanning manifests.
	cadence          *CadenceController
	lastShardBalance float64

	daemonStop chan struct{}
	daemonDone chan struct{}
}

// Open loads (or initializes) the fleet service over a backend. A
// replicated backend (replica.Store), or a sharded one with replicated
// shards, additionally enables the repair half of the scrub daemon. The
// first scrub after Open always schedules one reconciling Sync on each
// replica set: divergence that happened before this service existed
// leaves no health transition to observe.
func Open(backend storage.PersistStore, cfg Config) (*Service, error) {
	cfg.fillDefaults()
	s := &Service{
		backend:  backend,
		cfg:      cfg,
		shared:   cas.NewSharedPresence(),
		jobs:     make(map[string]*Job),
		sessions: make(map[string]*Session),
		jobLocks: make(map[string]*sync.Mutex),
	}
	if cfg.ReadTier != nil {
		tier, err := readserve.New(backend, *cfg.ReadTier)
		if err != nil {
			return nil, fmt.Errorf("fleet: read tier: %w", err)
		}
		s.tier = tier
		s.tierNodes = make(map[string]*readserve.Node)
	}
	admin, err := cas.Open(backend, cas.Options{Writer: adminWriter, Shared: s.shared, Guard: &s.guard})
	if err != nil {
		return nil, fmt.Errorf("fleet: open store: %w", err)
	}
	s.admin = admin
	if rep, ok := backend.(repairable); ok {
		s.targets = map[string]*scrubTarget{"replicas": newScrubTarget(rep)}
	} else if sh, ok := backend.(sharded); ok {
		s.sh = sh
		s.targets = make(map[string]*scrubTarget)
	}
	if g, ok := backend.(guardable); ok {
		g.SetGuard(&s.guard)
	}
	keys, err := backend.Keys(jobPrefix)
	if err != nil {
		return nil, fmt.Errorf("fleet: scan registry: %w", err)
	}
	for _, k := range keys {
		blob, err := backend.Get(k)
		if err != nil {
			return nil, fmt.Errorf("fleet: read job record %s: %w", k, err)
		}
		j, err := decodeJob(k, blob)
		if err != nil {
			return nil, err
		}
		s.jobs[j.ID] = &j
	}
	// Register admits a parent only once it is registered, so every
	// lineage ends at a root within len(s.jobs) steps.
	for _, j := range s.jobs {
		p := j
		for n := 0; p.Parent != ""; n++ {
			if p = s.jobs[p.Parent]; p == nil || n == len(s.jobs) {
				return nil, fmt.Errorf("fleet: job record %s: its lineage does not end at a registered root", jobKey(j.ID))
			}
		}
	}
	if obs.Enabled() {
		s.registerObs()
	}
	return s, nil
}

// Close stops the scrub daemon (if running). Sessions stay valid — they
// belong to their owners — but the service should not be used after.
func (s *Service) Close() error {
	s.StopDaemon()
	return nil
}

// scrubTarget is one probed unit's maintenance state.
type scrubTarget struct {
	rep      repairable // nil when the target is a single backend
	prevDown []bool     // per backend, from the previous probe
	needSync bool       // anti-entropy owed (replicated targets only)
	findings int64      // lifetime integrity findings (shards only)
}

// newScrubTarget starts tracking a target. A replicated one starts with a
// Sync owed: divergence that predates tracking leaves no health
// transition to observe.
func newScrubTarget(rep repairable) *scrubTarget {
	backends := 1
	if rep != nil {
		backends = rep.Backends()
	}
	return &scrubTarget{rep: rep, prevDown: make([]bool, backends), needSync: rep != nil}
}

// scrubTargets returns the targets in probe order with their names: the
// router's shards in router order, reconciled with its current membership
// (shards can be added or removed while the service runs), or the one
// unsharded target. Caller holds s.mu.
func (s *Service) scrubTargets() ([]string, []*scrubTarget) {
	if s.sh == nil {
		for name, t := range s.targets { // at most the one replica set
			return []string{name}, []*scrubTarget{t}
		}
		return nil, nil
	}
	n := s.sh.Shards()
	names := make([]string, n)
	targets := make([]*scrubTarget, n)
	current := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		name := s.sh.ShardName(i)
		names[i] = name
		current[name] = true
		t := s.targets[name]
		if t == nil {
			rep, _ := s.sh.Shard(i).(repairable)
			t = newScrubTarget(rep)
			s.targets[name] = t
		}
		targets[i] = t
	}
	for name := range s.targets {
		if !current[name] {
			delete(s.targets, name)
		}
	}
	return names, targets
}

// jobLock returns the per-job mutex. Lock ordering: the fleet guard
// (when held) precedes a job lock precedes s.mu; s.mu is never held
// while acquiring either of the others.
func (s *Service) jobLock(id string) *sync.Mutex {
	s.mu.Lock()
	defer s.mu.Unlock()
	l := s.jobLocks[id]
	if l == nil {
		l = &sync.Mutex{}
		s.jobLocks[id] = l
	}
	return l
}

// readJob reads the authoritative record from the backend — the one
// store a concurrent adopter in ANOTHER process also writes through —
// refreshing the in-memory cache (which never moves backwards in
// epoch).
func (s *Service) readJob(id string) (Job, error) {
	blob, err := s.backend.Get(jobKey(id))
	if err != nil {
		return Job{}, fmt.Errorf("fleet: read job record %q: %w", id, err)
	}
	j, err := decodeJob(jobKey(id), blob)
	if err != nil {
		return Job{}, err
	}
	s.mu.Lock()
	if cur, ok := s.jobs[j.ID]; !ok || cur.Epoch <= j.Epoch {
		cp := j
		s.jobs[j.ID] = &cp
	}
	s.mu.Unlock()
	return j, nil
}

// decodeJob parses the record stored under key and rejects one that
// Register could not have written: the key must name the record's id, the
// id must be valid, the writer must be the id (an empty writer would let
// cas mint a fresh one for the job's sessions), and the epoch must not be
// negative. Open checks the parents.
func decodeJob(key string, blob []byte) (Job, error) {
	var j Job
	if err := json.Unmarshal(blob, &j); err != nil {
		return Job{}, fmt.Errorf("fleet: job record %s: %w", key, err)
	}
	switch {
	case jobKey(j.ID) != key:
		return Job{}, fmt.Errorf("fleet: job record %s claims id %q", key, j.ID)
	case validateJobID(j.ID) != nil:
		return Job{}, fmt.Errorf("fleet: job record %s: %w", key, validateJobID(j.ID))
	case j.Writer != j.ID:
		return Job{}, fmt.Errorf("fleet: job record %s names writer %q, not its id", key, j.Writer)
	case j.Epoch < 0:
		return Job{}, fmt.Errorf("fleet: job record %s has epoch %d", key, j.Epoch)
	}
	return j, nil
}

// writeJob persists a record and refreshes the cache. Callers hold the
// job's lock and derive j from a fresh readJob, so a concurrent
// adopter's epoch bump is never clobbered by a stale view.
func (s *Service) writeJob(j Job) error {
	blob, err := json.Marshal(j)
	if err != nil {
		return fmt.Errorf("fleet: encode job record: %w", err)
	}
	if err := s.backend.Put(jobKey(j.ID), blob); err != nil {
		return fmt.Errorf("fleet: write job record %s: %w", j.ID, err)
	}
	s.mu.Lock()
	cp := j
	s.jobs[j.ID] = &cp
	s.mu.Unlock()
	return nil
}

// Register adds a job to the registry without acquiring its lease.
// Registering an already-registered job is a no-op when the parent
// matches — or is empty, which re-attaches without asserting lineage —
// and an error on a conflicting parent (lineage is immutable). The
// parent, if non-empty, must already be registered.
func (s *Service) Register(id, parent string) (Job, error) {
	if err := validateJobID(id); err != nil {
		return Job{}, err
	}
	l := s.jobLock(id)
	l.Lock()
	defer l.Unlock()
	s.mu.Lock()
	existing := s.jobs[id]
	_, parentKnown := s.jobs[parent]
	s.mu.Unlock()
	if existing != nil {
		if parent != "" && existing.Parent != parent {
			return Job{}, fmt.Errorf("fleet: job %q already registered with parent %q (not %q)", id, existing.Parent, parent)
		}
		return *existing, nil
	}
	if parent != "" && !parentKnown {
		return Job{}, fmt.Errorf("%w: parent %q of %q", ErrUnknownJob, parent, id)
	}
	j := Job{
		ID:              id,
		Parent:          parent,
		Writer:          id,
		CreatedUnixNano: s.cfg.Now().UnixNano(),
	}
	if err := s.writeJob(j); err != nil {
		return Job{}, err
	}
	return j, nil
}

// Jobs returns the registry, sorted by id.
func (s *Service) Jobs() []Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, *j)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// ExpiredJobs returns the jobs whose lease has run out without a new
// holder: acquired at least once (Epoch > 0) and expiry in the past.
// After a preemption wave this is exactly the orphan set — every
// preempted writer's lease ran out and nobody adopted it — and it is
// what operator tooling flags as expired-but-unadopted. A deliberately
// Released job also appears here (its lease is cut to "now"); the
// record alone cannot distinguish a crash from a clean exit, which is
// the point of lease-based liveness. Sorted by id.
func (s *Service) ExpiredJobs() []Job {
	now := s.cfg.Now().UnixNano()
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Job
	for _, j := range s.jobs {
		if j.Epoch > 0 && j.LeaseExpiresUnixNano <= now {
			out = append(out, *j)
		}
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// AdoptExpired re-acquires every expired job (see ExpiredJobs) — the
// recovery step replacement capacity runs after a preemption wave, so
// orphaned jobs resume from their last committed round under fresh
// epochs. A job raced away by another adopter is skipped, not an
// error. Returns the new sessions sorted by job id, plus the first
// hard failure (partial results are still returned).
func (s *Service) AdoptExpired() ([]*Session, error) {
	var sessions []*Session
	var firstErr error
	for _, j := range s.ExpiredJobs() {
		sess, err := s.Acquire(j.ID)
		if errors.Is(err, ErrLeaseHeld) {
			continue // another adopter got there first
		}
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("fleet: adopt expired %q: %w", j.ID, err)
			}
			continue
		}
		sessions = append(sessions, sess)
	}
	return sessions, firstErr
}

// Acquire takes the job's lease and returns a write session fenced on
// the new epoch. It fails with ErrLeaseHeld while another session's
// lease is unexpired — Adopt overrides that for a writer known to be
// dead (the lease holder crashed but its lease has not run out yet).
func (s *Service) Acquire(id string) (*Session, error) {
	return s.acquire(id, false)
}

// Adopt is Acquire ignoring an unexpired lease: the epoch bump fences
// the previous holder, whose next manifest commit fails with ErrFenced
// instead of corrupting the job's lineage. Use it when the holder is
// known dead; against a live holder it merely decides who survives.
func (s *Service) Adopt(id string) (*Session, error) {
	return s.acquire(id, true)
}

func (s *Service) acquire(id string, force bool) (*Session, error) {
	l := s.jobLock(id)
	l.Lock()
	defer l.Unlock()
	s.mu.Lock()
	known := s.jobs[id] != nil
	s.mu.Unlock()
	if !known {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	// The epoch bump must build on the authoritative record: another
	// process sharing the backend may have adopted since our cache was
	// refreshed, and bumping from a stale epoch would mint a second
	// session passing the same fence.
	j, err := s.readJob(id)
	if err != nil {
		return nil, err
	}
	now := s.cfg.Now()
	// Expiry is the only liveness signal — a holder that stopped
	// renewing (Release cuts the lease to "now", a crash lets it run
	// out) is acquirable without force, in this process or another.
	if !force && j.LeaseExpiresUnixNano > now.UnixNano() {
		return nil, fmt.Errorf("%w: job %q leased until %s", ErrLeaseHeld, id, j.LeaseExpires().Format(time.RFC3339))
	}
	s.mu.Lock()
	if prev := s.sessions[id]; prev != nil {
		prev.markReleased() // fenced by the epoch bump below anyway
	}
	s.mu.Unlock()
	j.Epoch++
	j.LeaseExpiresUnixNano = now.Add(s.cfg.LeaseTTL).UnixNano()
	if err := s.writeJob(j); err != nil {
		return nil, err
	}
	sess := &Session{svc: s, id: id, writer: j.Writer, epoch: j.Epoch}
	if s.tier != nil {
		node, err := s.jobNode(id)
		if err != nil {
			return nil, err
		}
		sess.node = node
	}
	s.mu.Lock()
	s.sessions[id] = sess
	s.mu.Unlock()
	op := "lease-acquire"
	if force {
		op = "lease-adopt"
	}
	obs.Instant("fleet", op, "job", id, "epoch", strconv.FormatInt(j.Epoch, 10))
	return sess, nil
}

// jobNode returns the job's read-tier L1 handle, creating it on first
// acquire and reusing it afterwards — an adopted job keeps its node's
// warm cache, and repeated re-acquires do not grow the tier.
func (s *Service) jobNode(id string) (*readserve.Node, error) {
	s.mu.Lock()
	node := s.tierNodes[id]
	s.mu.Unlock()
	if node != nil {
		return node, nil
	}
	// NewNode outside s.mu (lock ordering: never hold s.mu across other
	// locks); a racing double-create keeps the first registered node.
	fresh, err := s.tier.NewNode()
	if err != nil {
		return nil, fmt.Errorf("fleet: read tier node for %q: %w", id, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if existing := s.tierNodes[id]; existing != nil {
		return existing, nil
	}
	s.tierNodes[id] = fresh
	return fresh, nil
}

// AcquireOrRegister registers the job if absent (with the given parent)
// and acquires its lease.
func (s *Service) AcquireOrRegister(id, parent string) (*Session, error) {
	if _, err := s.Register(id, parent); err != nil {
		return nil, err
	}
	return s.Acquire(id)
}

// commitCheck is the fence: called by a session's backend wrapper,
// under the job's lock, before forwarding a manifest Put. The record
// is re-read from the backend — the authority a concurrent adopter
// (possibly in another process) also writes through — so a stale
// in-memory view cannot let a fenced writer commit, and the job lock
// makes the check atomic with the Put against in-process Acquire/Adopt.
// (Cross-process, adopting a LIVE writer retains a small check-to-put
// window — the backend offers no compare-and-swap; adoption is for
// holders known dead, which commit and renew nothing.) It returns the
// record so the post-commit renewal builds on the value just checked.
func (s *Service) commitCheck(sess *Session) (Job, error) {
	if sess.isReleased() {
		return Job{}, fmt.Errorf("%w: job %q session released", ErrFenced, sess.id)
	}
	j, err := s.readJob(sess.id)
	if err != nil {
		return Job{}, fmt.Errorf("fleet: fence check: %w", err)
	}
	if j.Epoch != sess.epoch {
		sess.markReleased()
		return Job{}, fmt.Errorf("%w: job %q epoch %d superseded by %d", ErrFenced, sess.id, sess.epoch, j.Epoch)
	}
	return j, nil
}

// renewLease extends the session's lease after a successful commit,
// rewriting the record commitCheck just validated (caller holds the
// job's lock). Best-effort: a failed renewal is retried implicitly by
// the next commit, and the fence check is what guards correctness.
func (s *Service) renewLease(sess *Session, j Job) {
	if j.Epoch != sess.epoch {
		return
	}
	j.LeaseExpiresUnixNano = s.cfg.Now().Add(s.cfg.LeaseTTL).UnixNano()
	_ = s.writeJob(j) // best effort
}

// release ends a session: the lease is cut to "expired now" so the job
// can be re-acquired immediately.
func (s *Service) release(sess *Session) error {
	l := s.jobLock(sess.id)
	l.Lock()
	defer l.Unlock()
	s.mu.Lock()
	if s.sessions[sess.id] == sess {
		delete(s.sessions, sess.id)
	}
	known := s.jobs[sess.id] != nil
	s.mu.Unlock()
	if !known {
		return nil
	}
	j, err := s.readJob(sess.id)
	if err != nil {
		return err
	}
	if j.Epoch != sess.epoch {
		return nil // already adopted; nothing to give back
	}
	j.LeaseExpiresUnixNano = s.cfg.Now().UnixNano()
	obs.Instant("fleet", "lease-release", "job", sess.id)
	return s.writeJob(j)
}

// Retain is the fleet-safe garbage collector: the union of live module
// entries across every registered job — each job keeps, per module, its
// newest persisted copy, exactly what that job's recovery would read —
// with manifests of writers not in the registry kept unconditionally
// (only their owner may judge them). Chunk liveness then follows by
// refcount over all surviving manifests, so a chunk shared between a
// base job and its forks survives until the last referencing job
// retires it. The shared write guard serializes the collection against
// every session's in-flight WriteRound, and the shared presence index
// propagates sweeps to every session immediately, so no job can dedup
// against a swept chunk or lose a round committed mid-GC.
func (s *Service) Retain() (cas.GCStats, error) {
	if err := s.admin.Refresh(); err != nil {
		return cas.GCStats{}, err
	}
	registered := make(map[string]bool)
	s.mu.Lock()
	for _, j := range s.jobs {
		registered[j.Writer] = true
	}
	s.mu.Unlock()

	// Each registered job keeps, per module, its newest round (what its
	// recovery would read) plus its latest round's manifest as anchor;
	// unregistered writers are kept untouched.
	live, keepEmpty := cas.NewestLiveness(s.admin.Manifests(),
		func(writer string) bool { return registered[writer] })
	st, err := s.admin.RetainScoped(live, keepEmpty) // write-locks the guard
	if err != nil {
		return st, err
	}
	// The collection deleted chunks through the admin handle, below the
	// read tier's caches; drop both levels so no session is served a
	// swept chunk. Conservative — the next reads re-warm the tiers.
	if s.tier != nil {
		s.tier.Drop()
	}
	// Session stores cached manifests the collection may have rewritten;
	// refresh them so no job serves dropped entries from cache.
	s.mu.Lock()
	sessions := make([]*Session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	for _, sess := range sessions {
		for _, store := range sess.trackedStores() {
			if rerr := store.Refresh(); rerr != nil && err == nil {
				err = rerr
			}
		}
	}
	return st, err
}

// Audit runs the store-wide refcount audit through the service's store
// handle, read-locked against concurrent GC.
func (s *Service) Audit() (cas.AuditReport, error) {
	s.guard.RLock()
	defer s.guard.RUnlock()
	return s.admin.Audit()
}
