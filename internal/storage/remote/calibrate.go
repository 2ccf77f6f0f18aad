package remote

import (
	"fmt"

	"moc/internal/rng"
	"moc/internal/simtime"
	"moc/internal/storage/cas"
)

// Calibration is the measured persist cost of one checkpoint round
// against a simulated object store, in the form the timing simulator
// consumes.
type Calibration struct {
	// PersistSeconds is the estimated wall-clock persist duration for
	// one checkpoint round: measured op-seconds divided across the
	// requests the endpoint serves at once (parallel streams each get
	// full per-stream bandwidth, matching the cost model).
	PersistSeconds float64
	// OpSeconds is the raw simulated busy time the probe round charged.
	OpSeconds float64
	// BytesUploaded / Ops are the probe round's upload volume and
	// request count.
	BytesUploaded int64
	Ops           int64
	// Workers is the concurrency PersistSeconds divides by: the striped
	// writer fan-out the probe offered, or the endpoint's MaxConcurrent
	// when that admits fewer.
	Workers int
}

// Apply returns cfg with its Persist phase set to the calibrated cost.
func (c Calibration) Apply(cfg simtime.Config) simtime.Config {
	cfg.Persist = c.PersistSeconds
	return cfg
}

// Calibrate measures what persisting one checkpoint of checkpointBytes
// costs against a simulated object store with the given cost model, by
// driving a synthetic dedup-free round through a cas.Store tuned by
// casOpts (chunk size, chunking mode, workers as the production writer
// would use; a fixed chunk size of 0 is sized to the cost model by
// Options.SizeChunksFor, as the writing moc.System sizes it) and reading
// the remote metrics back. Failure injection is disabled for the probe —
// the calibration is the fault-free baseline; retries only add to it.
//
// The returned Calibration.Apply slots the measurement into a
// simtime.Config, closing the loop between the byte-level storage
// simulation and the iteration-level timing simulation.
func Calibrate(cfg Config, checkpointBytes int64, casOpts cas.Options) (Calibration, error) {
	if checkpointBytes <= 0 {
		return Calibration{}, fmt.Errorf("remote: calibrate needs positive checkpoint volume")
	}
	cfg.FailureRate = 0
	cfg.SleepScale = 0
	cfg.Inner = nil
	store, err := New(cfg)
	if err != nil {
		return Calibration{}, err
	}
	casOpts.Writer = "calibrate"
	cs, err := cas.Open(store, casOpts.SizeChunksFor(store))
	if err != nil {
		return Calibration{}, err
	}
	workers := casOpts.Workers
	if workers <= 0 {
		workers = cas.DefaultWorkers // what cas.Open ran the probe with
	}
	// The endpoint, not the writer, has the last word on concurrency.
	if cfg.MaxConcurrent > 0 && cfg.MaxConcurrent < workers {
		workers = cfg.MaxConcurrent
	}
	// One module of pseudo-random bytes: every chunk is a distinct real
	// write, like a first full checkpoint (the persist-cost worst case).
	blob := make([]byte, checkpointBytes)
	rng.New(0x9e3779b97f4a7c15).Fill(blob)
	store.ResetMetrics()
	if _, err := cs.WriteRound(0, map[string][]byte{"probe": blob}); err != nil {
		return Calibration{}, err
	}
	m := store.Metrics()
	out := Calibration{
		OpSeconds:     m.SimSeconds,
		BytesUploaded: m.BytesUploaded,
		Ops:           m.PutOps + m.GetOps + m.DeleteOps + m.ListOps,
		Workers:       workers,
	}
	out.PersistSeconds = m.SimSeconds / float64(workers)
	return out, nil
}
