// Package remote is a simulated object store: a storage.PersistStore
// with S3-style semantics and a configurable cost model, so persist
// bandwidth and recovery latency become measurable quantities instead of
// the zero-latency map the other backends provide.
//
// Every request is charged simulated time — per-request round-trip
// latency plus transfer time at the configured bandwidth, with a
// per-request framing overhead — accumulated in the store's metrics.
// Payloads at or above the multipart threshold upload as parallel parts
// with S3 complete/abort semantics: the object becomes visible only when
// every part landed and the complete request succeeded; a part that
// exhausts its retry budget aborts the whole upload and nothing is
// visible. Transient failures are drawn from a deterministic RNG keyed
// by (seed, request identity, per-key occurrence) and retried with
// bounded exponential backoff, so fault scenarios replay identically
// across runs even when parts or callers run concurrently — goroutine
// scheduling cannot reassign failures between requests.
//
// The store is a cost/fault wrapper around an inner PersistStore (a
// fresh in-memory map by default), which keeps it composable with the
// rest of the stack: cas → cache → replica → remote.
package remote

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"moc/internal/obs"
	"moc/internal/rng"
	"moc/internal/storage"
)

// ErrTransient is the injected failure mode: the request would have
// succeeded on retry. Put/Get return it (wrapped) only after the retry
// budget is exhausted.
var ErrTransient = errors.New("remote: transient request failure")

// Config is the cost and fault model of the simulated object store.
// Zero values take the documented defaults, so Config{} behaves like a
// small same-region object store.
type Config struct {
	// LatencySeconds is the per-request round-trip latency charged to
	// every request — puts, gets, deletes, lists, and each multipart
	// sub-request (default 20 ms).
	LatencySeconds float64
	// UploadBps / DownloadBps are per-stream transfer bandwidths in
	// bytes/second (defaults 256 MiB/s up, 512 MiB/s down). Parallel
	// multipart parts each get a full stream, mirroring how concurrent
	// HTTP connections scale object-store throughput.
	UploadBps   float64
	DownloadBps float64
	// RequestOverheadBytes is added to every request's transfer volume
	// (headers, signing, framing; default 512).
	RequestOverheadBytes int64

	// PartSize is the multipart threshold and part length in bytes
	// (default 8 MiB): payloads of PartSize or more upload as parallel
	// parts plus complete/abort requests.
	PartSize int64
	// PartWorkers is the parallel part-upload fan-out (default 4).
	PartWorkers int

	// FailureRate is the probability in [0,1) that any single request
	// transiently fails (default 0). Failures are drawn from a
	// deterministic RNG seeded with Seed.
	FailureRate float64
	// Seed seeds the failure-injection RNG (default 1).
	Seed uint64
	// MaxRetries bounds the retries per request after its first attempt
	// (default 4). Each retry waits an exponential backoff first.
	MaxRetries int
	// BackoffSeconds is the first retry's backoff (default 50 ms); it
	// doubles per retry up to BackoffCapSeconds (default 1 s). Backoff
	// is charged to simulated time, never slept in full.
	BackoffSeconds    float64
	BackoffCapSeconds float64

	// SleepScale, when positive, makes each operation really sleep
	// (simulated seconds × SleepScale) so wall-clock benchmarks feel the
	// cost model. 0 keeps the clock purely virtual.
	SleepScale float64

	// MaxConcurrent, when positive, caps the requests in flight against
	// this endpoint; excess requests queue. Real object stores throttle
	// per-bucket/per-prefix concurrency, which is what makes a single
	// backend an aggregate bandwidth cap no matter how many client
	// workers fan in — the bottleneck sharding exists to remove. 0 =
	// unlimited (each stream gets full bandwidth, as before).
	MaxConcurrent int

	// Inner is the backing PersistStore holding the objects (default: a
	// private in-memory map). Costs and faults apply on top of it.
	Inner storage.PersistStore
}

func (c *Config) fillDefaults() error {
	if c.LatencySeconds == 0 {
		c.LatencySeconds = 0.020
	}
	if c.UploadBps == 0 {
		c.UploadBps = 256 << 20
	}
	if c.DownloadBps == 0 {
		c.DownloadBps = 512 << 20
	}
	if c.RequestOverheadBytes == 0 {
		c.RequestOverheadBytes = 512
	}
	if c.PartSize == 0 {
		c.PartSize = 8 << 20
	}
	if c.PartWorkers == 0 {
		c.PartWorkers = 4
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 4
	}
	if c.BackoffSeconds == 0 {
		c.BackoffSeconds = 0.050
	}
	if c.BackoffCapSeconds == 0 {
		c.BackoffCapSeconds = 1.0
	}
	if c.LatencySeconds < 0 || c.UploadBps <= 0 || c.DownloadBps <= 0 ||
		c.RequestOverheadBytes < 0 || c.PartSize < 0 || c.PartWorkers < 0 ||
		c.MaxRetries < 0 || c.BackoffSeconds < 0 || c.BackoffCapSeconds < 0 ||
		c.SleepScale < 0 || c.MaxConcurrent < 0 {
		return fmt.Errorf("remote: negative cost-model parameter")
	}
	if c.FailureRate < 0 || c.FailureRate >= 1 {
		return fmt.Errorf("remote: FailureRate %v outside [0,1)", c.FailureRate)
	}
	if c.Inner == nil {
		c.Inner = storage.NewMemStore()
	}
	return nil
}

// Metrics counts the store's activity since construction (or the last
// ResetMetrics). All byte counts include the per-request overhead.
type Metrics struct {
	// PutOps / GetOps / DeleteOps / ListOps count successful top-level
	// operations by kind.
	PutOps, GetOps, DeleteOps, ListOps int64
	// ColdGets / RepeatGets split GetOps by whether this store had
	// already served the key: a repeat get is backend load an upstream
	// cache or coalescing tier failed to absorb (a perfectly warm read
	// tier drives RepeatGets to zero). ColdGetBytes / RepeatGetBytes
	// are the corresponding download volumes, overhead included.
	ColdGets, RepeatGets         int64
	ColdGetBytes, RepeatGetBytes int64
	// MultipartPuts counts puts that took the multipart path;
	// PartsUploaded the individual part requests that succeeded.
	MultipartPuts, PartsUploaded int64
	// AbortedUploads counts multipart uploads torn down after a part or
	// the complete request exhausted its retries.
	AbortedUploads int64
	// BytesUploaded / BytesDownloaded are transfer volumes (successful
	// attempts only).
	BytesUploaded, BytesDownloaded int64
	// Retries counts retried requests; InjectedFailures every transient
	// fault the injector fired (retried or not).
	Retries, InjectedFailures int64
	// DegradedOps counts requests charged while the store was degraded
	// (see Degrade) — the traffic that paid the multiplied cost.
	DegradedOps int64
	// SimSeconds is the accumulated simulated busy time across requests,
	// including backoff waits. Concurrent part uploads each contribute
	// their own stream time, so this is op-seconds, not wall-clock; see
	// Calibrate for the wall-time model.
	SimSeconds float64
}

// Store is the simulated object store. It is safe for concurrent use.
type Store struct {
	cfg Config
	// sem is the endpoint's in-flight request limiter (nil when
	// MaxConcurrent is 0): a slot is held for a request's full duration,
	// sleeps included, like an occupied connection.
	sem chan struct{}

	mu sync.Mutex
	// occ counts how often each request identity has been issued, so a
	// repeated request draws a fresh (but still deterministic) failure
	// stream. Grows with the key space — simulation-scale acceptable,
	// mirroring the cas dedup index.
	occ map[string]uint64
	// served marks keys this store has returned at least once, splitting
	// gets into cold (first fetch) vs repeat. Like occ it grows with the
	// key space and survives ResetMetrics — cold-ness is a property of
	// the store's lifetime, not of a measurement window.
	served  map[string]bool
	metrics Metrics
	// latMult/bwMult are the degraded-mode cost multipliers (see
	// Degrade); 0 means healthy (factor 1). Runtime state, not config:
	// chaos scenarios flip them mid-run.
	latMult, bwMult float64
}

// New builds a simulated object store from the cost model.
func New(cfg Config) (*Store, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	s := &Store{cfg: cfg, occ: make(map[string]uint64), served: make(map[string]bool)}
	if cfg.MaxConcurrent > 0 {
		s.sem = make(chan struct{}, cfg.MaxConcurrent)
	}
	if obs.Enabled() {
		s.registerObs()
	}
	return s, nil
}

// Metrics returns a copy of the per-op counters.
func (s *Store) Metrics() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.metrics
}

// ResetMetrics zeroes the counters (the occurrence and cold-get
// indexes keep counting, so failure streams never replay and a
// once-served key never reads as cold within one store's lifetime).
func (s *Store) ResetMetrics() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.metrics = Metrics{}
}

// faultRNG derives the failure stream for one request: deterministic in
// (seed, request identity, occurrence), independent of goroutine
// scheduling. Returns nil when injection is off.
func (s *Store) faultRNG(identity string) *rng.RNG {
	if s.cfg.FailureRate == 0 {
		return nil
	}
	h := fnv.New64a()
	h.Write([]byte(identity))
	s.mu.Lock()
	s.occ[identity]++
	n := s.occ[identity]
	s.mu.Unlock()
	return rng.New(s.cfg.Seed ^ h.Sum64() ^ n*0x9e3779b97f4a7c15)
}

// Degrade switches the store into degraded mode — a straggling
// endpoint, slow but alive: every request's round-trip latency is
// multiplied by latencyMult and its stream bandwidth divided by
// bandwidthMult until ClearDegrade. Both multipliers must be >= 1 (use
// ClearDegrade to heal, not sub-unity factors). Switchable mid-run and
// safe for concurrent use; in-flight requests that already computed
// their cost finish at the old rate, exactly like a real brownout
// catching a request mid-transfer.
func (s *Store) Degrade(latencyMult, bandwidthMult float64) error {
	if latencyMult < 1 || bandwidthMult < 1 {
		return fmt.Errorf("remote: degrade multipliers %v/%v below 1", latencyMult, bandwidthMult)
	}
	s.mu.Lock()
	s.latMult, s.bwMult = latencyMult, bandwidthMult
	s.mu.Unlock()
	noteDegrade(latencyMult, bandwidthMult)
	return nil
}

// ClearDegrade restores the configured (healthy) cost model.
func (s *Store) ClearDegrade() {
	s.mu.Lock()
	s.latMult, s.bwMult = 0, 0
	s.mu.Unlock()
	noteHeal()
}

// DegradeFactors reports the active multipliers (1, 1 when healthy) and
// whether the store is degraded.
func (s *Store) DegradeFactors() (latencyMult, bandwidthMult float64, degraded bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.latMult == 0 && s.bwMult == 0 {
		return 1, 1, false
	}
	return s.latMult, s.bwMult, true
}

// RequestCost implements storage.Coster: the configured healthy latency
// and the smaller of the per-stream up/down bandwidths. Degrade
// multipliers are left out, so what a writer derives from it holds for
// the whole run.
func (s *Store) RequestCost() (latencySeconds, bytesPerSecond float64) {
	return s.cfg.LatencySeconds, min(s.cfg.UploadBps, s.cfg.DownloadBps)
}

// charge accumulates simulated seconds and applies the scaled real sleep.
func (s *Store) charge(seconds float64) {
	s.mu.Lock()
	s.metrics.SimSeconds += seconds
	s.mu.Unlock()
	if s.cfg.SleepScale > 0 {
		time.Sleep(time.Duration(seconds * s.cfg.SleepScale * float64(time.Second)))
	}
}

// requestCost is one request's simulated duration: round-trip latency
// plus transfer time for the payload and framing overhead, at the
// effective (possibly degraded) rates.
func (s *Store) requestCost(payloadBytes int64, bps float64) float64 {
	lat, bw, _ := s.DegradeFactors()
	return s.cfg.LatencySeconds*lat + float64(payloadBytes+s.cfg.RequestOverheadBytes)/(bps/bw)
}

// attempt runs one request with retry/backoff/cost accounting. identity
// names the request for the deterministic failure stream, transfer is
// the payload volume, bps the stream bandwidth, do the effect applied
// on the attempt that succeeds. It returns the simulated seconds spent.
func (s *Store) attempt(identity string, transfer int64, bps float64, counter *int64, do func() error) (float64, error) {
	if s.sem != nil {
		s.sem <- struct{}{}
		defer func() { <-s.sem }()
	}
	cost := s.requestCost(transfer, bps)
	backoff := s.cfg.BackoffSeconds
	faults := s.faultRNG(identity)
	var spent float64
	for try := 0; ; try++ {
		if faults != nil && faults.Float64() < s.cfg.FailureRate {
			s.mu.Lock()
			s.metrics.InjectedFailures++
			s.mu.Unlock()
			// A failed attempt still burns a round trip.
			spent += s.requestCost(0, bps)
			if try >= s.cfg.MaxRetries {
				s.charge(spent)
				return spent, fmt.Errorf("%w (after %d retries)", ErrTransient, try)
			}
			spent += backoff
			backoff *= 2
			if backoff > s.cfg.BackoffCapSeconds {
				backoff = s.cfg.BackoffCapSeconds
			}
			s.mu.Lock()
			s.metrics.Retries++
			s.mu.Unlock()
			continue
		}
		if err := do(); err != nil {
			// Inner-store errors (not-found, backend down) are not
			// transient: surface them without burning the retry budget.
			spent += s.requestCost(0, bps)
			s.charge(spent)
			return spent, err
		}
		spent += cost
		s.charge(spent) // total for this request, including backoff waits
		s.mu.Lock()
		if counter != nil {
			*counter += transfer + s.cfg.RequestOverheadBytes
		}
		if s.latMult != 0 || s.bwMult != 0 {
			s.metrics.DegradedOps++
		}
		s.mu.Unlock()
		return spent, nil
	}
}

// Put implements storage.PersistStore. Payloads of PartSize or more go
// through the multipart path; smaller ones are a single request.
func (s *Store) Put(key string, data []byte) error {
	if s.cfg.PartSize > 0 && int64(len(data)) >= s.cfg.PartSize {
		return s.multipartPut(key, data)
	}
	spent, err := s.attempt(key, int64(len(data)), s.cfg.UploadBps, &s.metrics.BytesUploaded, func() error {
		return s.cfg.Inner.Put(key, data)
	})
	if err != nil {
		return fmt.Errorf("remote: put %s: %w", key, err)
	}
	obsPutSeconds.Observe(spent)
	s.mu.Lock()
	s.metrics.PutOps++
	s.mu.Unlock()
	return nil
}

// multipartPut uploads the payload as parallel PartSize parts, then a
// complete request that makes the assembled object visible atomically.
// Any part (or the complete) exhausting its retries aborts the upload:
// the object is never visible partially written.
func (s *Store) multipartPut(key string, data []byte) error {
	parts := splitParts(data, int(s.cfg.PartSize))
	// Initiate request (no payload).
	if _, err := s.attempt(key+"#initiate", 0, s.cfg.UploadBps, nil, func() error { return nil }); err != nil {
		s.noteAbort()
		return fmt.Errorf("remote: initiate multipart %s: %w", key, err)
	}

	workers := s.cfg.PartWorkers
	if workers > len(parts) {
		workers = len(parts)
	}
	if workers < 1 {
		workers = 1
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(parts); i += workers {
				part := parts[i]
				_, err := s.attempt(fmt.Sprintf("%s#part.%d", key, i), int64(len(part)), s.cfg.UploadBps, &s.metrics.BytesUploaded, func() error { return nil })
				if err != nil {
					errs[w] = fmt.Errorf("part %d: %w", i, err)
					return
				}
				s.mu.Lock()
				s.metrics.PartsUploaded++
				s.mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			// Abort: one request tearing down the staged parts.
			s.attempt(key+"#abort", 0, s.cfg.UploadBps, nil, func() error { return nil })
			s.noteAbort()
			return fmt.Errorf("remote: multipart %s: %w", key, err)
		}
	}
	// Complete request: the object becomes visible here, all at once.
	_, err := s.attempt(key+"#complete", 0, s.cfg.UploadBps, nil, func() error {
		return s.cfg.Inner.Put(key, data)
	})
	if err != nil {
		s.noteAbort()
		return fmt.Errorf("remote: complete multipart %s: %w", key, err)
	}
	s.mu.Lock()
	s.metrics.PutOps++
	s.metrics.MultipartPuts++
	s.mu.Unlock()
	return nil
}

func (s *Store) noteAbort() {
	s.mu.Lock()
	s.metrics.AbortedUploads++
	s.mu.Unlock()
}

// splitParts cuts the payload into fixed-size parts (last may be short).
func splitParts(data []byte, size int) [][]byte {
	if size <= 0 || len(data) == 0 {
		return [][]byte{data}
	}
	out := make([][]byte, 0, (len(data)+size-1)/size)
	for len(data) > size {
		out = append(out, data[:size])
		data = data[size:]
	}
	return append(out, data)
}

// Get implements storage.PersistStore.
func (s *Store) Get(key string) ([]byte, error) {
	var blob []byte
	spent, err := s.attempt(key+"#get", 0, s.cfg.DownloadBps, nil, func() error {
		b, err := s.cfg.Inner.Get(key)
		blob = b
		return err
	})
	if err != nil {
		if errors.Is(err, storage.ErrNotFound) {
			return nil, err
		}
		return nil, fmt.Errorf("remote: get %s: %w", key, err)
	}
	// The download volume is known only after the inner read; charge the
	// transfer now at the effective rate (attempt charged latency +
	// overhead for a 0-byte payload).
	_, bw, _ := s.DegradeFactors()
	transfer := float64(len(blob)) / (s.cfg.DownloadBps / bw)
	s.charge(transfer)
	obsGetSeconds.Observe(spent + transfer)
	vol := int64(len(blob)) + s.cfg.RequestOverheadBytes
	s.mu.Lock()
	s.metrics.GetOps++
	s.metrics.BytesDownloaded += vol
	if s.served[key] {
		s.metrics.RepeatGets++
		s.metrics.RepeatGetBytes += vol
	} else {
		s.served[key] = true
		s.metrics.ColdGets++
		s.metrics.ColdGetBytes += vol
	}
	s.mu.Unlock()
	return blob, nil
}

// Delete implements storage.PersistStore.
func (s *Store) Delete(key string) error {
	_, err := s.attempt(key+"#delete", 0, s.cfg.UploadBps, nil, func() error {
		return s.cfg.Inner.Delete(key)
	})
	if err != nil {
		return fmt.Errorf("remote: delete %s: %w", key, err)
	}
	s.mu.Lock()
	s.metrics.DeleteOps++
	s.mu.Unlock()
	return nil
}

// Keys implements storage.PersistStore.
func (s *Store) Keys(prefix string) ([]string, error) {
	var keys []string
	_, err := s.attempt("list:"+prefix, 0, s.cfg.DownloadBps, nil, func() error {
		ks, err := s.cfg.Inner.Keys(prefix)
		keys = ks
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("remote: keys %q: %w", prefix, err)
	}
	s.mu.Lock()
	s.metrics.ListOps++
	s.mu.Unlock()
	return keys, nil
}

var (
	_ storage.PersistStore = (*Store)(nil)
	_ storage.Coster       = (*Store)(nil)
)
