package moc

// Public API for the remote-storage tier: the simulated object-store
// persist backend (cost model, multipart puts, retry/backoff, per-op
// metrics), the LRU chunk cache that hides it, and the calibration
// bridge into the timing simulator. These compose with the rest of the
// storage stack — e.g. NewCachedStore(NewRemoteStore(cfg), 64<<20) is a
// remote backend whose hot chunks recover at memory speed.

import (
	"moc/internal/storage/cache"
	"moc/internal/storage/cas"
	"moc/internal/storage/remote"
)

// RemoteConfig is the cost and fault model of a simulated object store.
// Zero values take defaults resembling a small same-region object store
// (20 ms per request, 256/512 MiB/s up/down, 8 MiB multipart parts,
// 4 retries with 50 ms–1 s exponential backoff, no failure injection).
type RemoteConfig = remote.Config

// RemoteMetrics counts a remote store's activity: successful operations
// by kind, multipart activity, transfer volumes (including per-request
// overhead), injected failures and retries, and the simulated busy time
// the cost model charged.
type RemoteMetrics = remote.Metrics

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

// NewRemoteStore builds a simulated object store holding its objects in
// cfg.Inner (default: in memory).
func NewRemoteStore(cfg RemoteConfig) (RemoteStore, error) { return remote.New(cfg) }

// NewRemoteStoreOver wraps an existing PersistStore (e.g. a filesystem
// store) with the object-store cost and fault model.
func NewRemoteStoreOver(inner PersistStore, cfg RemoteConfig) (RemoteStore, error) {
	cfg.Inner = inner
	return remote.New(cfg)
}

// CacheStats counts a cached store's activity and residency.
type CacheStats = cache.Stats

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

func (c cacheAdapter) CacheStats() CacheStats { return c.Stats() }

// NewCachedStore wraps a backend with an LRU cache bounded at
// capacityBytes. Between the checkpoint store and a remote backend it
// is the snapshot tier: recovery of hot chunks performs zero remote
// reads.
func NewCachedStore(inner PersistStore, capacityBytes int64) (CachedStore, error) {
	c, err := cache.New(inner, capacityBytes)
	if err != nil {
		return nil, err
	}
	return cacheAdapter{c}, nil
}

// PersistCalibration is the measured persist cost of one checkpoint
// round against a simulated object store.
type PersistCalibration = remote.Calibration

// CalibratePersist measures the persist cost of one checkpointBytes
// checkpoint against the given remote cost model, driving a synthetic
// dedup-free round through the content-addressed store with the given
// chunk size and writer fan-out. A chunk size of 0 is the one a System
// writing through this remote uses (cas.ChunkSizeFor its latency and
// per-stream bandwidth); workers 0 is the store default. The result's
// PersistSeconds calibrates the timing simulator's persist phase
// against the byte-level storage simulation.
func CalibratePersist(cfg RemoteConfig, checkpointBytes int64, chunkSize, workers int) (PersistCalibration, error) {
	return remote.Calibrate(cfg, checkpointBytes, cas.Options{ChunkSize: chunkSize, Workers: workers})
}

// StoreTuning is the checkpoint store's data shape: chunk length (fixed)
// or average target (CDC), and the chunker. Zero values take the store
// defaults. A reader needs no chunk size: manifests record every
// chunk's size, so a restore pool reads what a System wrote whatever
// size that System chose — 64 KiB over memory-speed stores, larger
// fixed chunks over a backend that reports a request cost. Pipeline and
// recovery widths are the store defaults on both sides.
type StoreTuning struct {
	ChunkSize int
	Chunking  Chunking
}

func (t StoreTuning) toCAS() (cas.Options, error) {
	mode, err := t.Chunking.toCAS()
	if err != nil {
		return cas.Options{}, err
	}
	return cas.Options{ChunkSize: t.ChunkSize, Chunking: mode}, nil
}
