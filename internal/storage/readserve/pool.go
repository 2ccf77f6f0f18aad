package readserve

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
	"weak"

	"moc/internal/obs"
	"moc/internal/storage/cas"
)

// Pool is the many-reader restore front-end: K concurrent restores of
// the same round (or the same module subset) share one cas recovery
// fan-out instead of issuing K. Layered over a Tier node the individual
// chunk fetches are additionally cached and coalesced, but the Pool
// pays off on its own too — the whole manifest walk, chunk fetch,
// verify, and reassemble pipeline runs once per concurrent cohort.
//
// Whole restores coalesce per concurrent cohort only: one arriving after
// the flight completed runs again (and is then served by the cache
// tiers underneath). Subset reads additionally share every module payload
// a subset read has returned that is still in memory: serving readers ask for
// the same few hot modules over and over, and re-assembling one costs a
// fetch, a SHA-256 pass and a module-sized buffer of fresh pages each
// time. The pool holds those payloads by weak reference, so sharing costs
// no memory beyond what callers hold, and a payload lives until the
// garbage collector finds no caller holding it — which payloads are
// shared, and so Stats().Shared, depends on when the collector runs.
// Either way the returned payloads are shared between callers — treat
// them as read-only, or copy before mutating. The standard recovery path
// (core.Agent) copies module payloads into tensors, so it needs nothing
// extra.
type Pool struct {
	store *cas.Store
	g     Group[map[string][]byte]

	restores  atomic.Int64
	coalesced atomic.Int64
	shared    atomic.Int64

	mu sync.Mutex
	// held maps a manifest entry to the first byte of the payload the pool
	// last returned for it. Keyed by entry: a rewritten round, Refresh and
	// Retain install new entries, so a stale payload is never found again.
	held map[*cas.ModuleEntry]weak.Pointer[byte]
}

// PoolStats counts restore activity.
type PoolStats struct {
	// Restores counts calls; Coalesced the subset served by another
	// caller's in-flight restore; Shared the subset reads served whole
	// from payloads still in memory (cas reads = Restores − Coalesced −
	// Shared).
	Restores, Coalesced, Shared int64
}

// NewPool wraps an opened cas store.
func NewPool(store *cas.Store) (*Pool, error) {
	if store == nil {
		return nil, fmt.Errorf("readserve: nil store")
	}
	p := &Pool{store: store, held: make(map[*cas.ModuleEntry]weak.Pointer[byte])}
	if obs.Enabled() {
		p.registerObs()
	}
	return p, nil
}

// ReadRound restores every module of the round (cas.Store.ReadRound),
// coalescing concurrent callers asking for the same round.
func (p *Pool) ReadRound(round int) (map[string][]byte, error) {
	return p.do(fmt.Sprintf("round/%06d", round), func() (map[string][]byte, error) {
		return p.store.ReadRound(round)
	})
}

// ReadModules restores only the named modules — the partial-expert
// (PEC) case: a reader pulling K experts of a base model fetches those
// experts' chunks and nothing else. Concurrent callers asking for the
// same subset coalesce; distinct subsets run independently.
func (p *Pool) ReadModules(round int, modules []string) (map[string][]byte, error) {
	names := append([]string(nil), modules...)
	sort.Strings(names)
	// Payloads still in memory are shared; only the rest is read.
	out := make(map[string][]byte, len(names))
	entries := make(map[string]*cas.ModuleEntry, len(names))
	miss := names[:0]
	p.mu.Lock()
	for _, name := range names {
		if _, seen := entries[name]; seen {
			continue
		}
		e := p.store.Entry(round, name) // nil: absent, the read reports it
		entries[name] = e
		if blob := p.heldLocked(e); blob != nil {
			out[name] = blob
		} else {
			miss = append(miss, name)
		}
	}
	p.mu.Unlock()
	if len(miss) == 0 {
		p.restores.Add(1)
		p.shared.Add(1)
		return out, nil
	}
	key := fmt.Sprintf("subset/%06d/%s", round, strings.Join(miss, "\x00"))
	got, err := p.do(key, func() (map[string][]byte, error) {
		return p.store.ReadModules(round, miss)
	})
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	for name, blob := range got {
		out[name] = blob
		// Filed under the entry resolved before the read: had the round
		// been rewritten meanwhile, that entry is never looked up again.
		p.rememberLocked(entries[name], blob)
	}
	p.mu.Unlock()
	return out, nil
}

// heldLocked returns the payload last returned for e if it is still in
// memory, else nil (dropping the dead reference).
func (p *Pool) heldLocked(e *cas.ModuleEntry) []byte {
	w, ok := p.held[e]
	if !ok {
		return nil
	}
	first := w.Value()
	if first == nil {
		delete(p.held, e)
		return nil
	}
	return unsafe.Slice(first, e.Size)
}

// rememberLocked files a returned payload under its entry. An empty one
// has no first byte to point at, and reading it again costs nothing.
func (p *Pool) rememberLocked(e *cas.ModuleEntry, blob []byte) {
	if e == nil || len(blob) == 0 || int64(len(blob)) != e.Size {
		return
	}
	p.held[e] = weak.Make(&blob[0])
}

// Forget drops every payload reference — what a reader does when it
// refreshes its view of the store.
func (p *Pool) Forget() {
	p.mu.Lock()
	clear(p.held)
	p.mu.Unlock()
}

// Rounds lists the rounds visible to the underlying store.
func (p *Pool) Rounds() []int { return p.store.Rounds() }

func (p *Pool) do(key string, fn func() (map[string][]byte, error)) (map[string][]byte, error) {
	sp := obs.Start("readserve", "Restore").Attr("key", key)
	p.restores.Add(1)
	v, shared, err := p.g.Do(key, fn)
	if shared {
		p.coalesced.Add(1)
		sp.Attr("coalesced", "true")
	}
	if d := sp.End(); d > 0 {
		obsRestoreSeconds.Observe(obs.Seconds(d))
	}
	return v, err
}

// Stats returns the restore counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{Restores: p.restores.Load(), Coalesced: p.coalesced.Load(), Shared: p.shared.Load()}
}
