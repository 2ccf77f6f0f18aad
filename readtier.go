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

	"moc/internal/storage"
	"moc/internal/storage/cas"
	"moc/internal/storage/readserve"
)

// ReadTierConfig tunes a ReadTier.
type ReadTierConfig struct {
	// L1Bytes bounds each node's private cache (default 16 MiB).
	L1Bytes int64
	// L2Bytes bounds the shared warm tier (default 256 MiB).
	L2Bytes int64
	// AdmitMinHits is the warm-tier admission policy: a chunk enters the
	// shared L2 once it has been requested this many times. <= 1 admits
	// every miss (the default — right when readers hydrate whole
	// models); higher values admit only repeatedly requested chunks, so
	// one-off scans cannot flush genuinely hot chunks.
	AdmitMinHits int
}

func (c ReadTierConfig) toInternal() readserve.Config {
	return readserve.Config{L1Bytes: c.L1Bytes, L2Bytes: c.L2Bytes, AdmitMinHits: c.AdmitMinHits}
}

// ReadTierStats counts tier activity since construction.
type ReadTierStats struct {
	// L1Hits/L1Misses/L1Coalesced aggregate every node's private cache;
	// coalesced reads attached to another same-node reader's in-flight
	// fill instead of issuing their own.
	L1Hits, L1Misses, L1Coalesced int64
	// L2Hits/L2Misses count shared-tier residency checks after an L1
	// miss; L2Coalesced counts readers across all nodes that attached to
	// an in-flight backend fetch.
	L2Hits, L2Misses, L2Coalesced int64
	// BackendGets is the ground truth: fetches that escaped both cache
	// levels and every coalescing layer.
	BackendGets int64
	// Promotions counts L1 misses served from the warm tier without a
	// backend get; ColdFetches backend reads for chunks still below the
	// admission threshold.
	Promotions  int64
	ColdFetches int64
	// Nodes is the number of attached reader handles.
	Nodes int
}

// L1HitRatio is L1Hits / (L1Hits + L1Misses), 0 when untouched.
func (s ReadTierStats) L1HitRatio() float64 { return hitRatio(s.L1Hits, s.L1Misses) }

// L2HitRatio is L2Hits / (L2Hits + L2Misses), 0 when untouched.
func (s ReadTierStats) L2HitRatio() float64 { return hitRatio(s.L2Hits, s.L2Misses) }

func hitRatio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

func readTierStatsFrom(st readserve.Stats) ReadTierStats {
	return ReadTierStats{
		L1Hits: st.L1Hits, L1Misses: st.L1Misses, L1Coalesced: st.L1Coalesced,
		L2Hits: st.L2Hits, L2Misses: st.L2Misses, L2Coalesced: st.L2Coalesced,
		BackendGets: st.BackendGets,
		Promotions:  st.Promotions, ColdFetches: st.ColdFetches,
		Nodes: st.Nodes,
	}
}

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
	var is storage.PersistStore = backend
	t, err := readserve.New(is, cfg.toInternal())
	if err != nil {
		return nil, err
	}
	return &ReadTier{t: t}, nil
}

// NewNode attaches a reader handle with a private L1 cache. The
// returned store implements the full optional surface (zero-copy views,
// owned puts, shard passthrough), so checkpoint stores and Systems open
// directly over it.
func (rt *ReadTier) NewNode() (PersistStore, error) {
	n, err := rt.t.NewNode()
	if err != nil {
		return nil, err
	}
	return n, nil
}

// Stats aggregates the tier's counters across both levels and every
// attached node.
func (rt *ReadTier) Stats() ReadTierStats { return readTierStatsFrom(rt.t.Stats()) }

// Drop empties both cache levels — every node's L1 and the shared warm
// tier — without touching the backend. Call it after deleting chunks
// below the tier (e.g. an out-of-band GC).
func (rt *ReadTier) Drop() { rt.t.Drop() }

// RestorePoolStats counts a pool's restore activity.
type RestorePoolStats struct {
	// Restores counts restore calls; Coalesced the subset served by
	// another caller's identical in-flight restore; Shared the subset
	// reads served whole from modules restored a moment earlier — so
	// actual store reads are Restores − Coalesced − Shared.
	Restores, Coalesced, Shared int64
}

// RestorePool is the many-reader restore front-end over a checkpoint
// store: concurrent restores of the same round — or the same module
// subset — share one recovery fan-out instead of each walking the
// manifest and fetching every chunk independently, and a subset read
// shares the modules restored most recently (about 1 MiB of them; Refresh
// forgets them). Returned payloads are shared between callers; treat them
// as read-only or copy before mutating.
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
	var is storage.PersistStore = backend
	st, err := cas.Open(is, opts)
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
func (p *RestorePool) Stats() RestorePoolStats {
	st := p.pool.Stats()
	return RestorePoolStats{Restores: st.Restores, Coalesced: st.Coalesced, Shared: st.Shared}
}
