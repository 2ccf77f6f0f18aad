package moc

// Public API for the restore-at-scale read-serving tier: a two-level
// cache hierarchy (per-node L1 over one shared warm L2) with request
// coalescing at every level, and the restore pool that lets many
// concurrent readers of one checkpoint share a single recovery fan-out.
// Together they are the read path of a serving fleet hydrating model
// replicas from the checkpoint store: N readers of one hot base model
// cost the backend one fetch per chunk, not N.

import (
	"sort"

	"moc/internal/storage/cas"
	"moc/internal/storage/readserve"
)

// ReadTierConfig tunes a ReadTier: the per-node L1 and shared L2
// bounds. The warm tier admits every miss — right when readers hydrate
// whole models.
type ReadTierConfig = readserve.Config

// ReadTierStats counts tier activity since construction.
type ReadTierStats = readserve.Stats

// ReadTier is the standalone read-serving hierarchy over any
// PersistStore backend (typically a remote store, possibly behind
// replica or shard layers). Each reader — a serving node hydrating
// model replicas — takes a NewNode handle and opens its stores over it;
// all nodes share one warm tier and one coalesced backend fetch path.
//
// The tier caches whatever keys flow through it, which is safe for
// immutable content-addressed chunks. Route mutable keys (manifests)
// around it, or use the fleet integration (FleetConfig.ReadTier), which
// does that routing per session automatically.
type ReadTier struct {
	t *readserve.Tier
}

// NewReadTier builds a read-serving tier over a backend.
func NewReadTier(backend PersistStore, cfg ReadTierConfig) (*ReadTier, error) {
	t, err := readserve.New(backend, cfg)
	if err != nil {
		return nil, err
	}
	return &ReadTier{t: t}, nil
}

// NewNode attaches a reader handle with a private L1 cache. The
// returned store implements the full optional surface (zero-copy views,
// shard passthrough), so checkpoint stores and Systems open directly
// over it.
func (rt *ReadTier) NewNode() (PersistStore, error) { return rt.t.NewNode() }

// Stats aggregates the tier's counters across both levels and every
// attached node.
func (rt *ReadTier) Stats() ReadTierStats { return rt.t.Stats() }

// Drop empties both cache levels — every node's L1 and the shared warm
// tier — without touching the backend. Call it after deleting chunks
// below the tier (e.g. an out-of-band GC).
func (rt *ReadTier) Drop() { rt.t.Drop() }

// RestorePoolStats counts a pool's restore activity: actual store reads
// are Restores − Coalesced − Shared.
type RestorePoolStats = readserve.PoolStats

// RestorePool is the many-reader restore front-end over a checkpoint
// store: concurrent restores of the same round — or the same module
// subset — share one recovery fan-out instead of each walking the
// manifest and fetching every chunk independently, and a subset read
// shares every module payload the pool returned that some caller still
// holds (or the garbage collector has not yet reclaimed; Refresh forgets
// them). Returned payloads are shared between callers; treat them as
// read-only or copy before mutating.
type RestorePool struct {
	store *cas.Store
	pool  *readserve.Pool
}

// NewRestorePool opens the checkpoint store on backend (with the given
// tuning; zero values take store defaults) and wraps it in a restore
// pool. Open it over a ReadTier node to combine restore-level and
// chunk-level coalescing.
func NewRestorePool(backend PersistStore, tuning StoreTuning) (*RestorePool, error) {
	opts, err := tuning.toCAS()
	if err != nil {
		return nil, err
	}
	st, err := cas.Open(backend, opts)
	if err != nil {
		return nil, err
	}
	pool, err := readserve.NewPool(st)
	if err != nil {
		return nil, err
	}
	return &RestorePool{store: st, pool: pool}, nil
}

// Rounds lists the committed checkpoint rounds visible to the pool,
// ascending.
func (p *RestorePool) Rounds() []int { return p.pool.Rounds() }

// Modules lists the module names restorable from a round, sorted.
func (p *RestorePool) Modules(round int) []string {
	seen := make(map[string]bool)
	for _, m := range p.store.ManifestsForRound(round) {
		for _, e := range m.Modules {
			seen[e.Module] = true
		}
	}
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ReadRound restores every module of the round, coalescing concurrent
// callers asking for the same round into one recovery.
func (p *RestorePool) ReadRound(round int) (map[string][]byte, error) {
	return p.pool.ReadRound(round)
}

// ReadModules restores only the named modules — the partial-expert
// read: a server pulling K experts of a base model fetches those
// experts' chunks and nothing else. Concurrent callers asking for the
// same subset coalesce; distinct subsets restore independently.
func (p *RestorePool) ReadModules(round int, modules []string) (map[string][]byte, error) {
	return p.pool.ReadModules(round, modules)
}

// Refresh re-scans the backend for rounds committed after the pool was
// opened.
func (p *RestorePool) Refresh() error {
	p.pool.Forget()
	return p.store.Refresh()
}

// Stats returns the pool's restore counters.
func (p *RestorePool) Stats() RestorePoolStats { return p.pool.Stats() }
