package moc

// Public API for the remote-storage tier: the simulated object-store
// persist backend (cost model, multipart puts, retry/backoff, per-op
// metrics), the LRU chunk cache that hides it, and the calibration
// bridge into the timing simulator. These compose with the rest of the
// storage stack — e.g. NewCachedStore(NewRemoteStore(cfg), 64<<20) is a
// remote backend whose hot chunks recover at memory speed.

import (
	"moc/internal/storage"
	"moc/internal/storage/cache"
	"moc/internal/storage/cas"
	"moc/internal/storage/remote"
)

// RemoteConfig is the cost and fault model of a simulated object store.
// Zero values take defaults resembling a small same-region object store
// (20 ms per request, 256/512 MiB/s up/down, 8 MiB multipart parts,
// 4 retries with 50 ms–1 s exponential backoff, no failure injection).
type RemoteConfig struct {
	// LatencySeconds is the round-trip latency charged per request.
	LatencySeconds float64
	// UploadBps / DownloadBps are per-stream bandwidths in bytes/second;
	// parallel multipart parts each get a full stream.
	UploadBps, DownloadBps float64
	// RequestOverheadBytes is added to every request's transfer volume.
	RequestOverheadBytes int64
	// PartSize is the multipart threshold and part length; PartWorkers
	// the parallel part-upload fan-out.
	PartSize    int64
	PartWorkers int
	// FailureRate in [0,1) injects transient request failures from a
	// deterministic RNG seeded with Seed; failed requests retry up to
	// MaxRetries times with exponential backoff from BackoffSeconds
	// capped at BackoffCapSeconds.
	FailureRate       float64
	Seed              uint64
	MaxRetries        int
	BackoffSeconds    float64
	BackoffCapSeconds float64
	// SleepScale > 0 makes operations really sleep simulated-seconds ×
	// SleepScale; 0 keeps the clock purely virtual (metrics only).
	SleepScale float64
	// MaxConcurrent > 0 caps in-flight requests against the endpoint
	// (per-bucket throttling); excess requests queue. 0 = unlimited.
	MaxConcurrent int
}

func (c RemoteConfig) toInternal() remote.Config {
	return remote.Config{
		LatencySeconds:       c.LatencySeconds,
		UploadBps:            c.UploadBps,
		DownloadBps:          c.DownloadBps,
		RequestOverheadBytes: c.RequestOverheadBytes,
		PartSize:             c.PartSize,
		PartWorkers:          c.PartWorkers,
		FailureRate:          c.FailureRate,
		Seed:                 c.Seed,
		MaxRetries:           c.MaxRetries,
		BackoffSeconds:       c.BackoffSeconds,
		BackoffCapSeconds:    c.BackoffCapSeconds,
		SleepScale:           c.SleepScale,
		MaxConcurrent:        c.MaxConcurrent,
	}
}

// RemoteMetrics counts a remote store's activity: successful operations
// by kind, multipart activity, transfer volumes (including per-request
// overhead), injected failures and retries, and the simulated busy time
// the cost model charged.
type RemoteMetrics struct {
	PutOps, GetOps, DeleteOps, ListOps int64
	MultipartPuts, PartsUploaded       int64
	AbortedUploads                     int64
	BytesUploaded, BytesDownloaded     int64
	// ColdGets/RepeatGets split GetOps by whether the store had served
	// the key before: repeat gets (and RepeatGetBytes) are load an
	// upstream caching or coalescing tier failed to absorb — the number
	// a well-tuned ReadTier drives toward zero.
	ColdGets, RepeatGets         int64
	ColdGetBytes, RepeatGetBytes int64
	Retries, InjectedFailures    int64
	// DegradedOps counts operations served while the store was in
	// degraded mode (see RemoteStore.Degrade) and so paid multiplied
	// latency or throttled bandwidth.
	DegradedOps int64
	SimSeconds  float64
}

// RemoteStore is a PersistStore with object-store cost/fault semantics
// and per-op metrics.
type RemoteStore interface {
	PersistStore
	// Metrics returns the per-op counters; ResetMetrics zeroes them.
	Metrics() RemoteMetrics
	ResetMetrics()
	// Degrade switches the store into degraded mode mid-run: every
	// request pays latencyMult × the configured latency and transfers
	// at 1/bandwidthMult the configured bandwidth (both must be >= 1) —
	// a backend that is slow, not dead. ClearDegrade restores the
	// configured cost model.
	Degrade(latencyMult, bandwidthMult float64) error
	ClearDegrade()
	// DegradeFactors reports the active multipliers (1, 1, false when
	// healthy).
	DegradeFactors() (latencyMult, bandwidthMult float64, degraded bool)
}

type remoteAdapter struct{ *remote.Store }

func (r remoteAdapter) Metrics() RemoteMetrics {
	m := r.Store.Metrics()
	return RemoteMetrics{
		PutOps: m.PutOps, GetOps: m.GetOps, DeleteOps: m.DeleteOps, ListOps: m.ListOps,
		MultipartPuts: m.MultipartPuts, PartsUploaded: m.PartsUploaded,
		AbortedUploads: m.AbortedUploads,
		BytesUploaded:  m.BytesUploaded, BytesDownloaded: m.BytesDownloaded,
		ColdGets: m.ColdGets, RepeatGets: m.RepeatGets,
		ColdGetBytes: m.ColdGetBytes, RepeatGetBytes: m.RepeatGetBytes,
		Retries: m.Retries, InjectedFailures: m.InjectedFailures,
		DegradedOps: m.DegradedOps,
		SimSeconds:  m.SimSeconds,
	}
}

// NewRemoteStore builds a simulated object store holding its objects in
// memory.
func NewRemoteStore(cfg RemoteConfig) (RemoteStore, error) {
	s, err := remote.New(cfg.toInternal())
	if err != nil {
		return nil, err
	}
	return remoteAdapter{s}, nil
}

// NewRemoteStoreOver wraps an existing PersistStore (e.g. a filesystem
// store) with the object-store cost and fault model.
func NewRemoteStoreOver(inner PersistStore, cfg RemoteConfig) (RemoteStore, error) {
	ic := cfg.toInternal()
	ic.Inner = inner
	s, err := remote.New(ic)
	if err != nil {
		return nil, err
	}
	return remoteAdapter{s}, nil
}

// CacheStats counts a cached store's activity and residency.
type CacheStats struct {
	Hits, Misses        int64
	HitBytes, MissBytes int64
	// Coalesced counts misses that attached to another reader's
	// in-flight backend fetch of the same key instead of issuing their
	// own (backend gets = Misses − Coalesced).
	Coalesced             int64
	Insertions, Evictions int64
	Entries               int
	Bytes, Capacity       int64
}

// HitRatio is Hits / (Hits + Misses), 0 when untouched.
func (s CacheStats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// CachedStore layers a size-bounded LRU chunk cache over a backend:
// reads are served from memory when hot, writes go through to the
// backend. Drop empties the cache (a node restart's cold-cache state)
// without touching the backend.
type CachedStore interface {
	PersistStore
	CacheStats() CacheStats
	Drop()
}

type cacheAdapter struct{ *cache.Store }

func (c cacheAdapter) CacheStats() CacheStats {
	st := c.Store.Stats()
	return CacheStats{
		Hits: st.Hits, Misses: st.Misses,
		HitBytes: st.HitBytes, MissBytes: st.MissBytes,
		Coalesced:  st.Coalesced,
		Insertions: st.Insertions, Evictions: st.Evictions,
		Entries: st.Entries, Bytes: st.Bytes, Capacity: st.Capacity,
	}
}

// NewCachedStore wraps a backend with an LRU cache bounded at
// capacityBytes. Between the checkpoint store and a remote backend it
// is the snapshot tier: recovery of hot chunks performs zero remote
// reads.
func NewCachedStore(inner PersistStore, capacityBytes int64) (CachedStore, error) {
	var is storage.PersistStore = inner
	c, err := cache.New(is, capacityBytes)
	if err != nil {
		return nil, err
	}
	return cacheAdapter{c}, nil
}

// PersistCalibration is the measured persist cost of one checkpoint
// round against a simulated object store.
type PersistCalibration struct {
	// PersistSeconds is the estimated per-checkpoint persist wall time
	// — the value to plug into the timing simulations' persist phase.
	PersistSeconds float64
	// OpSeconds is the raw simulated op time before the writer fan-out
	// is applied; BytesUploaded and Ops describe the probe round.
	OpSeconds     float64
	BytesUploaded int64
	Ops           int64
	// Workers is the striped-writer fan-out the estimate assumes.
	Workers int
}

// CalibratePersist measures the persist cost of one checkpointBytes
// checkpoint against the given remote cost model, driving a synthetic
// dedup-free round through the content-addressed store with the given
// chunk size and writer fan-out (0 = the store defaults). The result's
// PersistSeconds calibrates the timing simulator's persist phase
// against the byte-level storage simulation.
func CalibratePersist(cfg RemoteConfig, checkpointBytes int64, chunkSize, workers int) (PersistCalibration, error) {
	return CalibratePersistChunked(cfg, checkpointBytes, chunkSize, workers, ChunkingFixed)
}

// CalibratePersistChunked is CalibratePersist with an explicit chunking
// mode, so the probe round is cut by the same chunker the production
// store uses (a CDC probe pays the same per-chunk request overheads a
// CDC writer would).
func CalibratePersistChunked(cfg RemoteConfig, checkpointBytes int64, chunkSize, workers int, chunking Chunking) (PersistCalibration, error) {
	return CalibratePersistTuned(cfg, checkpointBytes, StoreTuning{
		ChunkSize: chunkSize, Workers: workers, Chunking: chunking,
	})
}

// StoreTuning is the checkpoint store's full performance shape: chunker
// and chunk-size bounds plus the persist-pipeline and recovery widths.
// Zero values take the store defaults. It mirrors the tuning fields of
// Config (PersistWorkers/HashWorkers/RecoverWorkers) so a calibration
// probe can run with exactly the production store's configuration.
type StoreTuning struct {
	// ChunkSize is the chunk length (fixed) or average target (CDC);
	// Chunking selects the chunker.
	ChunkSize int
	Chunking  Chunking
	// Workers is the striped put fan-out, HashWorkers the hashing
	// fan-out of the persist pipeline, ReadWorkers the backend requests
	// one read-side call (a recovery, an open, a GC sweep) keeps in
	// flight.
	Workers     int
	HashWorkers int
	ReadWorkers int
}

func (t StoreTuning) toCAS() (cas.Options, error) {
	mode, err := t.Chunking.toCAS()
	if err != nil {
		return cas.Options{}, err
	}
	return cas.Options{
		ChunkSize:   t.ChunkSize,
		Chunking:    mode,
		Workers:     t.Workers,
		HashWorkers: t.HashWorkers,
		ReadWorkers: t.ReadWorkers,
	}, nil
}

// CalibratePersistTuned is CalibratePersist taking the store's full
// tuning, so the probe round runs the same pipeline the production
// store would — same chunker, same put striping, same hashing width.
func CalibratePersistTuned(cfg RemoteConfig, checkpointBytes int64, tuning StoreTuning) (PersistCalibration, error) {
	opts, err := tuning.toCAS()
	if err != nil {
		return PersistCalibration{}, err
	}
	cal, err := remote.Calibrate(cfg.toInternal(), checkpointBytes, opts)
	if err != nil {
		return PersistCalibration{}, err
	}
	return PersistCalibration{
		PersistSeconds: cal.PersistSeconds,
		OpSeconds:      cal.OpSeconds,
		BytesUploaded:  cal.BytesUploaded,
		Ops:            cal.Ops,
		Workers:        cal.Workers,
	}, nil
}
