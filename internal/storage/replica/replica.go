// Package replica provides a replicating PersistStore: writes fan out to
// every backend, reads are served by the first healthy replica, and an
// anti-entropy Sync repairs backends that missed writes while down. It is
// the multi-backend durability layer under the checkpoint store — losing
// a persist backend (a filesystem outage, an object-store region) no
// longer loses checkpoints as long as one replica survives.
//
// The store tracks a per-backend EWMA of operation latency. With slow
// routing enabled (Options.SlowFactor), reads are routed around a
// straggling replica — slow, not dead — and fall back to it only when
// the fast replicas cannot serve the key. Partition injection (CutOff /
// Reconnect) makes a backend unreachable without losing its state,
// opening partition-then-heal chaos scenarios: divergence accrues during
// the cut and anti-entropy repairs it after.
//
// The package also ships a Flaky wrapper that injects backend loss and
// recovery, opening persist-backend fault scenarios to tests, examples,
// and the timing simulator's calibration.
package replica

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"moc/internal/obs"
	"moc/internal/simtime"
	"moc/internal/storage"
)

// ErrBackendDown is returned by a Flaky store while failed.
var ErrBackendDown = errors.New("replica: backend down")

// ErrPartitioned is returned for operations against a backend that has
// been cut off by CutOff: unreachable from this writer's side of the
// network, but alive and holding its state.
var ErrPartitioned = errors.New("replica: backend partitioned")

// minLatencySamples is how many successful operations a backend must
// have served before its latency EWMA participates in slow routing —
// one cold outlier must not demote a replica.
const minLatencySamples = 3

// defaultEWMAAlpha weights the newest latency sample (0.3: an order-of-
// magnitude regime change dominates the estimate within a few ops,
// while single outliers decay).
const defaultEWMAAlpha = 0.3

// Options tunes the replica store's read routing.
type Options struct {
	// SlowFactor enables slow-backend read routing when > 1: a backend
	// whose latency EWMA exceeds SlowFactor x the fastest replica's is
	// demoted to the end of the read order, so reads are served by fast
	// replicas and fall back to the straggler only when they must.
	// 0 (or anything <= 1) disables routing: reads try backends in
	// declaration order, the pre-chaos behavior.
	SlowFactor float64
	// EWMAAlpha weights the newest latency sample in the per-backend
	// EWMA (default 0.3; must be in (0, 1]).
	EWMAAlpha float64
}

func (o *Options) fillDefaults() error {
	if o.EWMAAlpha == 0 {
		o.EWMAAlpha = defaultEWMAAlpha
	}
	if o.EWMAAlpha < 0 || o.EWMAAlpha > 1 {
		return fmt.Errorf("replica: EWMAAlpha %v outside (0, 1]", o.EWMAAlpha)
	}
	if o.SlowFactor < 0 {
		return fmt.Errorf("replica: negative SlowFactor %v", o.SlowFactor)
	}
	return nil
}

// Store is a PersistStore replicating over N backends.
type Store struct {
	backends []storage.PersistStore
	opts     Options

	mu sync.Mutex
	// lastErr[i] is backend i's most recent operation error (nil when
	// healthy), kept for Health diagnostics.
	lastErr []error
	// repairs counts read-repair write-backs performed by Get.
	repairs int64
	// partitioned[i] marks backend i cut off by CutOff: every operation
	// against it fails fast with ErrPartitioned until Reconnect.
	partitioned []bool
	// ewma[i] is backend i's latency EWMA in seconds over its successful
	// operations (including healthy misses — a completed round trip);
	// samples[i] counts them.
	ewma    []float64
	samples []int64
	// slowSkips counts reads whose try order was rearranged around a
	// slow replica (the observability the straggler scenarios assert).
	slowSkips int64
}

// New builds a replicating store over the given backends (at least one)
// with default options (slow routing disabled).
func New(backends ...storage.PersistStore) (*Store, error) {
	return NewWithOptions(Options{}, backends...)
}

// NewWithOptions builds a replicating store with explicit read-routing
// options.
func NewWithOptions(opts Options, backends ...storage.PersistStore) (*Store, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("replica: need at least one backend")
	}
	for i, b := range backends {
		if b == nil {
			return nil, fmt.Errorf("replica: backend %d is nil", i)
		}
	}
	if err := opts.fillDefaults(); err != nil {
		return nil, err
	}
	r := &Store{
		backends:    append([]storage.PersistStore(nil), backends...),
		opts:        opts,
		lastErr:     make([]error, len(backends)),
		partitioned: make([]bool, len(backends)),
		ewma:        make([]float64, len(backends)),
		samples:     make([]int64, len(backends)),
	}
	if obs.Enabled() {
		r.registerObs()
	}
	return r, nil
}

// Backends returns the replica count.
func (r *Store) Backends() int { return len(r.backends) }

// Health reports, per backend, the error of its most recent operation
// (nil = healthy).
func (r *Store) Health() []error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]error(nil), r.lastErr...)
}

func (r *Store) note(i int, err error) {
	r.mu.Lock()
	r.lastErr[i] = err
	r.mu.Unlock()
}

// CutOff injects a network partition: backend i becomes unreachable
// from this store (every operation fails fast with ErrPartitioned) but
// keeps its state — the difference from a Flaky Fail is purely
// semantic, yet it is the one that matters to scenarios: a partitioned
// replica heals holding everything it had, and anti-entropy owes it
// only the writes it missed.
func (r *Store) CutOff(i int) error {
	if i < 0 || i >= len(r.backends) {
		return fmt.Errorf("replica: cut off backend %d of %d", i, len(r.backends))
	}
	r.mu.Lock()
	r.partitioned[i] = true
	r.lastErr[i] = ErrPartitioned
	r.mu.Unlock()
	obs.Instant("replica", "cutoff", "backend", strconv.Itoa(i))
	return nil
}

// Reconnect heals the partition for backend i. The backend stays marked
// unhealthy until traffic or a Probe reaches it — healing is observed,
// not assumed.
func (r *Store) Reconnect(i int) error {
	if i < 0 || i >= len(r.backends) {
		return fmt.Errorf("replica: reconnect backend %d of %d", i, len(r.backends))
	}
	r.mu.Lock()
	r.partitioned[i] = false
	r.mu.Unlock()
	obs.Instant("replica", "reconnect", "backend", strconv.Itoa(i))
	return nil
}

// Partitioned reports, per backend, whether it is currently cut off.
func (r *Store) Partitioned() []bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]bool(nil), r.partitioned...)
}

// BackendLatencies returns each backend's latency EWMA in seconds over
// its successful operations (0 = no samples yet).
func (r *Store) BackendLatencies() []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]float64(nil), r.ewma...)
}

// SlowSkips counts reads that were routed around a slow replica.
func (r *Store) SlowSkips() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.slowSkips
}

// access runs one operation against backend i: partitioned backends
// fail fast with ErrPartitioned, and completed round trips (success or
// a healthy not-found) feed the backend's latency EWMA.
func (r *Store) access(i int, op func(storage.PersistStore) error) error {
	r.mu.Lock()
	cut := r.partitioned[i]
	r.mu.Unlock()
	if cut {
		return ErrPartitioned
	}
	start := simtime.WallNow()
	err := op(r.backends[i])
	if err == nil || errors.Is(err, storage.ErrNotFound) {
		sec := simtime.WallSince(start).Seconds()
		r.mu.Lock()
		if r.samples[i] == 0 {
			r.ewma[i] = sec
		} else {
			a := r.opts.EWMAAlpha
			r.ewma[i] = a*sec + (1-a)*r.ewma[i]
		}
		r.samples[i]++
		r.mu.Unlock()
	}
	return err
}

// readOrder returns the backend indices in read preference order. With
// slow routing enabled, backends whose latency EWMA exceeds SlowFactor
// x the fastest sampled replica's are demoted behind the rest (still
// tried last — a straggler holding the only copy must still serve it).
func (r *Store) readOrder() []int {
	n := len(r.backends)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if r.opts.SlowFactor <= 1 || n < 2 {
		return order
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	fastest := -1.0
	for i := 0; i < n; i++ {
		if r.samples[i] >= minLatencySamples && (fastest < 0 || r.ewma[i] < fastest) {
			fastest = r.ewma[i]
		}
	}
	if fastest < 0 {
		return order
	}
	fast := order[:0]
	var slow []int
	for i := 0; i < n; i++ {
		if r.samples[i] >= minLatencySamples && r.ewma[i] > r.opts.SlowFactor*fastest {
			slow = append(slow, i)
		} else {
			fast = append(fast, i)
		}
	}
	// Routing changed the try order only when some demoted backend
	// naturally preceded a fast one (both lists are ascending).
	if len(slow) > 0 && len(fast) > 0 && slow[0] < fast[len(fast)-1] {
		r.slowSkips++
	}
	return append(fast, slow...)
}

// Put writes to every backend. It succeeds when at least one replica
// accepted the write — a down replica degrades durability, not
// availability — and fails only when every backend refused.
func (r *Store) Put(key string, data []byte) error {
	var okCount int
	var errs []string
	for i := range r.backends {
		err := r.access(i, func(b storage.PersistStore) error { return b.Put(key, data) })
		r.note(i, err)
		if err == nil {
			okCount++
		} else {
			errs = append(errs, fmt.Sprintf("backend %d: %v", i, err))
		}
	}
	if okCount == 0 {
		return fmt.Errorf("replica: put %s failed on all backends: %s", key, strings.Join(errs, "; "))
	}
	return nil
}

// Get reads from the first healthy replica holding the key, in read
// preference order (declaration order, with slow replicas demoted when
// routing is enabled). A replica that is down or missed the write (it
// was down during Put) is skipped and the next one is tried. The key
// counts as not-found only when every backend reported a healthy miss —
// a down backend might hold it, so its failure is reported as a
// failure, never as absence.
//
// When the read falls through to a later backend, the value is
// read-repaired onto every earlier-tried replica that reported a healthy
// miss (it was down during the original Put and healed since), so one
// hot-key read converges the replicas without waiting for a full Sync.
// Repair failures are recorded in Health but never fail the read.
//
// Read repair shares Sync's GC caveat: a replica that slept through a
// Delete (the refcount GC's sweep) still holds the key, so a later read
// of it can resurrect the deleted value onto the repaired replicas —
// stale manifests travel with their chunks, never corrupting the store,
// but re-pinning storage the GC freed. Run the GC again after healing a
// replica, or avoid running it while one is down.
func (r *Store) Get(key string) ([]byte, error) {
	var lastFailure error
	var missed []int // earlier-tried replicas with a healthy miss
	notFound := 0
	for _, i := range r.readOrder() {
		var data []byte
		err := r.access(i, func(b storage.PersistStore) error {
			d, gerr := b.Get(key)
			data = d
			return gerr
		})
		if err == nil {
			r.note(i, nil)
			for _, j := range missed {
				perr := r.access(j, func(b storage.PersistStore) error { return b.Put(key, data) })
				if perr != nil {
					r.note(j, perr)
					continue
				}
				r.mu.Lock()
				r.repairs++
				r.mu.Unlock()
			}
			return data, nil
		}
		if errors.Is(err, storage.ErrNotFound) {
			r.note(i, nil) // a healthy miss, not a failure
			missed = append(missed, i)
			notFound++
		} else {
			r.note(i, err)
			lastFailure = err
		}
	}
	if notFound == len(r.backends) {
		return nil, fmt.Errorf("%w: %s", storage.ErrNotFound, key)
	}
	return nil, fmt.Errorf("replica: get %s: %w", key, lastFailure)
}

// GetView implements storage.Viewer: the first healthy replica holding
// the key (in read preference order) serves the read through its
// zero-copy path when it has one (plain Get otherwise — a private copy
// is a valid view). Fall-through semantics mirror Get, but a view read
// performs no read-repair: repair needs a write-back, and the point of
// the view path is to move no bytes — converging lagging replicas stays
// the job of Get and Sync.
func (r *Store) GetView(key string) ([]byte, error) {
	var lastFailure error
	notFound := 0
	for _, i := range r.readOrder() {
		var data []byte
		err := r.access(i, func(b storage.PersistStore) error {
			var gerr error
			if v, ok := b.(storage.Viewer); ok {
				data, gerr = v.GetView(key)
			} else {
				data, gerr = b.Get(key)
			}
			return gerr
		})
		if err == nil {
			r.note(i, nil)
			return data, nil
		}
		if errors.Is(err, storage.ErrNotFound) {
			r.note(i, nil) // a healthy miss, not a failure
			notFound++
		} else {
			r.note(i, err)
			lastFailure = err
		}
	}
	if notFound == len(r.backends) {
		return nil, fmt.Errorf("%w: %s", storage.ErrNotFound, key)
	}
	return nil, fmt.Errorf("replica: getview %s: %w", key, lastFailure)
}

// Repairs returns the number of read-repair write-backs Get performed.
func (r *Store) Repairs() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.repairs
}

// Probe actively checks every backend with storage.Probe and records the
// outcome, returning the refreshed Health. Health alone only reflects
// errors from organic traffic, so a backend that fails and heals while
// reads happen to be served by earlier replicas would stay marked down
// forever; the scrub daemon probes on a schedule to
// observe down→healthy transitions and trigger anti-entropy Sync.
// Probe round trips feed the latency EWMA, so a scheduled probe also
// teaches slow routing which replica is straggling before organic reads
// have to find out.
func (r *Store) Probe() []error {
	for i := range r.backends {
		r.note(i, r.access(i, storage.Probe))
	}
	return r.Health()
}

// Delete removes the key from every backend. Replicas that are down keep
// their stale copy until Sync or a later Delete; the call fails only when
// every backend failed with a real error.
func (r *Store) Delete(key string) error {
	var okCount int
	var errs []string
	for i := range r.backends {
		err := r.access(i, func(b storage.PersistStore) error { return b.Delete(key) })
		if err != nil && errors.Is(err, storage.ErrNotFound) {
			err = nil
		}
		r.note(i, err)
		if err == nil {
			okCount++
		} else {
			errs = append(errs, fmt.Sprintf("backend %d: %v", i, err))
		}
	}
	if okCount == 0 {
		return fmt.Errorf("replica: delete %s failed on all backends: %s", key, strings.Join(errs, "; "))
	}
	return nil
}

// Keys returns the union of keys across responding backends, sorted. It
// fails only when no backend responds.
func (r *Store) Keys(prefix string) ([]string, error) {
	union := map[string]bool{}
	responded := 0
	var lastErr error
	for i := range r.backends {
		var keys []string
		err := r.access(i, func(b storage.PersistStore) error {
			ks, kerr := b.Keys(prefix)
			keys = ks
			return kerr
		})
		r.note(i, err)
		if err != nil {
			lastErr = err
			continue
		}
		responded++
		for _, k := range keys {
			union[k] = true
		}
	}
	if responded == 0 {
		return nil, fmt.Errorf("replica: keys %q: %w", prefix, lastErr)
	}
	out := make([]string, 0, len(union))
	for k := range union {
		out = append(out, k)
	}
	sort.Strings(out)
	return out, nil
}

// Sync is the anti-entropy repair: every key present on some backend is
// copied to the backends lacking it, and backends holding a *different*
// value for a key are overwritten, so a replica replaced after a loss
// (or healed after downtime or a partition) converges to exactly the
// state reads serve. It returns the number of keys copied or reconciled.
//
// Conflicts resolve to the first readable replica's copy — the same
// preference Get uses. Chunk keys are content-addressed, so their
// conflicts are impossible; manifest keys ARE mutable (the refcount GC
// rewrites them in place), and the store carries no version counters, so
// if the GC ran while a replica was down, healing that replica and
// syncing can resurrect the pre-GC view (never corrupt it — the stale
// manifests travel with their chunks). Run the GC again after Sync to
// re-collect; or avoid running it while a replica is down.
func (r *Store) Sync() (copied int, err error) {
	sp := obs.Start("replica", "Sync")
	defer func() {
		sp.AttrInt("copied", int64(copied))
		sp.End()
	}()
	perBackend := make([]map[string]bool, len(r.backends))
	union := map[string]bool{}
	for i := range r.backends {
		var keys []string
		err := r.access(i, func(b storage.PersistStore) error {
			ks, kerr := b.Keys("")
			keys = ks
			return kerr
		})
		r.note(i, err)
		if err != nil {
			continue // a down backend is repaired on a later Sync
		}
		perBackend[i] = make(map[string]bool, len(keys))
		for _, k := range keys {
			perBackend[i][k] = true
			union[k] = true
		}
	}
	ordered := make([]string, 0, len(union))
	for k := range union {
		ordered = append(ordered, k)
	}
	sort.Strings(ordered)
	for _, k := range ordered {
		var data []byte
		authIdx := -1
		for i := range r.backends {
			if perBackend[i] == nil || !perBackend[i][k] {
				continue
			}
			var d []byte
			gerr := r.access(i, func(b storage.PersistStore) error {
				dd, e := b.Get(k)
				d = dd
				return e
			})
			if gerr == nil {
				data, authIdx = d, i
				break
			}
		}
		if authIdx < 0 {
			return copied, fmt.Errorf("replica: sync: no readable copy of %s", k)
		}
		for i := range r.backends {
			if i == authIdx || perBackend[i] == nil {
				continue // authoritative, or down (repaired on a later Sync)
			}
			if perBackend[i][k] {
				var held []byte
				gerr := r.access(i, func(b storage.PersistStore) error {
					h, e := b.Get(k)
					held = h
					return e
				})
				if gerr == nil && bytes.Equal(held, data) {
					continue
				}
			}
			if perr := r.access(i, func(b storage.PersistStore) error { return b.Put(k, data) }); perr != nil {
				r.note(i, perr)
				continue // backend went down mid-sync; next Sync retries
			}
			copied++
		}
	}
	return copied, nil
}

// Flaky wraps a PersistStore with a kill switch, simulating the loss and
// recovery of one persist backend.
type Flaky struct {
	inner storage.PersistStore
	down  atomic.Bool
}

// NewFlaky wraps a backend.
func NewFlaky(inner storage.PersistStore) *Flaky { return &Flaky{inner: inner} }

// Fail makes every subsequent operation return ErrBackendDown.
func (f *Flaky) Fail() { f.down.Store(true) }

// Heal brings the backend back (with whatever state it held at failure).
func (f *Flaky) Heal() { f.down.Store(false) }

// Down reports the failure state.
func (f *Flaky) Down() bool { return f.down.Load() }

// Put implements PersistStore.
func (f *Flaky) Put(key string, data []byte) error {
	if f.down.Load() {
		return ErrBackendDown
	}
	return f.inner.Put(key, data)
}

// Get implements PersistStore.
func (f *Flaky) Get(key string) ([]byte, error) {
	if f.down.Load() {
		return nil, ErrBackendDown
	}
	return f.inner.Get(key)
}

// GetView implements storage.Viewer, passing through to the inner
// store's zero-copy path (or its plain Get — a copy is a valid view).
func (f *Flaky) GetView(key string) ([]byte, error) {
	if f.down.Load() {
		return nil, ErrBackendDown
	}
	if v, ok := f.inner.(storage.Viewer); ok {
		return v.GetView(key)
	}
	return f.inner.Get(key)
}

// Delete implements PersistStore.
func (f *Flaky) Delete(key string) error {
	if f.down.Load() {
		return ErrBackendDown
	}
	return f.inner.Delete(key)
}

// Keys implements PersistStore.
func (f *Flaky) Keys(prefix string) ([]string, error) {
	if f.down.Load() {
		return nil, ErrBackendDown
	}
	return f.inner.Keys(prefix)
}

var (
	_ storage.PersistStore = (*Store)(nil)
	_ storage.PersistStore = (*Flaky)(nil)
	_ storage.Viewer       = (*Store)(nil)
	_ storage.Viewer       = (*Flaky)(nil)
)
