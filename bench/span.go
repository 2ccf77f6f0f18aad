package bench

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"moc/internal/simtime"
	"moc/internal/storage"
	"moc/internal/storage/cas"
	"moc/internal/storage/replica"
	"moc/internal/storage/shard"
)

// Span is one timed call into a layer. Spans are recorded by the
// benchmark's own files around the calls it makes (and, between storage
// tiers, by spanStore); nothing inside the program is instrumented.
type Span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for a root
	Cycle  int32  `json:"cycle"`  // -1 during set-up
	Layer  string `json:"layer"`  // package name, or "bench" for the harness
	Name   string `json:"name"`
	// Class says what a storage operation touched: "chunk", "manifest",
	// "job" (fleet registry record) or "" otherwise.
	Class string `json:"class,omitempty"`
	Start int64  `json:"start_ns"` // since the recorder started
	End   int64  `json:"end_ns"`
	Bytes int64  `json:"bytes,omitempty"`
}

func (s Span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is the untraced walk. begin/end maintain the
// stack of calls open on the driver goroutine; open/finish are for
// storage operations, which arrive on the program's worker goroutines and
// name their parent explicitly.
type recorder struct {
	t0 time.Time

	mu    sync.Mutex
	spans []Span
	stack []int32
	cycle int32
}

func newRecorder(capacity int) *recorder {
	return &recorder{
		t0:    simtime.WallNow(),
		spans: make([]Span, 0, capacity),
		stack: make([]int32, 0, 16),
		cycle: -1,
	}
}

func (r *recorder) now() int64 { return int64(simtime.WallSince(r.t0)) }

func (r *recorder) setCycle(c int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.cycle = int32(c)
	r.mu.Unlock()
}

func (r *recorder) begin(layer, name string) int32 {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	parent := int32(-1)
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Cycle: r.cycle, Layer: layer, Name: name, Start: r.now()})
	r.stack = append(r.stack, id)
	return id
}

func (r *recorder) end(id int32) { r.endBytes(id, 0) }

func (r *recorder) endBytes(id int32, bytes int64) {
	if r == nil {
		return
	}
	now := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End, r.spans[id].Bytes = now, bytes
	if n := len(r.stack); n > 0 && r.stack[n-1] == id {
		r.stack = r.stack[:n-1]
	}
}

// current is the innermost call open on the driver goroutine.
func (r *recorder) current() int32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.stack); n > 0 {
		return r.stack[n-1]
	}
	return -1
}

func (r *recorder) open(layer, name, class string, parent int32) int32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int32(len(r.spans))
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Cycle: r.cycle, Layer: layer, Name: name, Class: class, Start: r.now()})
	return id
}

func (r *recorder) finish(id int32, bytes int64) {
	now := r.now()
	r.mu.Lock()
	r.spans[id].End, r.spans[id].Bytes = now, bytes
	r.mu.Unlock()
}

// writeJSONL writes one span per line.
func (r *recorder) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// interval is a half-open time range; unionLen sums a set's coverage
// without counting overlaps twice (children run in parallel).
type interval struct{ a, b int64 }

func unionLen(iv []interval) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].a < iv[j].a })
	var total int64
	cur := iv[0]
	for _, x := range iv[1:] {
		if x.a > cur.b {
			total += cur.b - cur.a
			cur = x
			continue
		}
		if x.b > cur.b {
			cur.b = x.b
		}
	}
	return total + cur.b - cur.a
}

// spanIndex answers the questions the per-layer metrics ask of a finished
// span list.
type spanIndex struct {
	spans    []Span
	children map[int32][]int32
}

func indexSpans(spans []Span) *spanIndex {
	ix := &spanIndex{spans: spans, children: make(map[int32][]int32)}
	for _, s := range spans {
		if s.Parent >= 0 {
			ix.children[s.Parent] = append(ix.children[s.Parent], s.ID)
		}
	}
	return ix
}

// self is a span's duration minus the part of it its children cover.
func (ix *spanIndex) self(id int32) int64 {
	s := ix.spans[id]
	kids := ix.children[id]
	iv := make([]interval, 0, len(kids))
	for _, k := range kids {
		c := ix.spans[k]
		a, b := max(c.Start, s.Start), min(c.End, s.End)
		if b > a {
			iv = append(iv, interval{a, b})
		}
	}
	return s.dur() - unionLen(iv)
}

// descendants lists every span below id.
func (ix *spanIndex) descendants(id int32) []int32 {
	var out []int32
	todo := []int32{id}
	for len(todo) > 0 {
		next := todo[len(todo)-1]
		todo = todo[:len(todo)-1]
		for _, k := range ix.children[next] {
			out = append(out, k)
			todo = append(todo, k)
		}
	}
	return out
}

// find returns the ids of spans matching layer and name.
func (ix *spanIndex) find(layer, name string) []int32 {
	var out []int32
	for _, s := range ix.spans {
		if s.Layer == layer && s.Name == name {
			out = append(out, s.ID)
		}
	}
	return out
}

// spanStore sits between two storage tiers and records a span per
// operation, in the layer of the tier it wraps. The span's parent is the
// operation open on the same key in the spanStore above; at the top of
// the stack it is the call the driver has open (cas.WriteRound,
// Agent.Recover, ...). It always forwards PutOwned; the optional read and
// topology capabilities are added by the embedding types below, chosen by
// traceStore from what the wrapped store offers, so the tier above takes
// the same fast paths it takes untraced.
type spanStore struct {
	inner storage.PersistStore
	layer string
	rec   *recorder
	above *spanStore

	mu       sync.Mutex
	inflight map[string]int32
	puts     int64 // Put and PutOwned calls, for the per-shard balance
}

func keyClass(key string) string {
	switch {
	case strings.HasPrefix(key, cas.ChunkPrefix):
		return "chunk"
	case strings.HasPrefix(key, cas.ManifestPrefix):
		return "manifest"
	case strings.HasPrefix(key, "fleet/jobs/"):
		return "job"
	}
	return ""
}

func (s *spanStore) start(op, key string) int32 {
	parent := int32(-1)
	if s.above != nil {
		s.above.mu.Lock()
		if id, ok := s.above.inflight[key]; ok {
			parent = id
		}
		s.above.mu.Unlock()
	}
	if parent < 0 {
		parent = s.rec.current()
	}
	id := s.rec.open(s.layer, op, keyClass(key), parent)
	s.mu.Lock()
	s.inflight[key] = id
	if strings.HasPrefix(op, "Put") {
		s.puts++
	}
	s.mu.Unlock()
	return id
}

func (s *spanStore) done(id int32, key string, bytes int) {
	s.rec.finish(id, int64(bytes))
	s.mu.Lock()
	if s.inflight[key] == id {
		delete(s.inflight, key)
	}
	s.mu.Unlock()
}

func (s *spanStore) putCount() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.puts
}

// Put implements storage.PersistStore.
func (s *spanStore) Put(key string, data []byte) error {
	id := s.start("Put", key)
	err := s.inner.Put(key, data)
	s.done(id, key, len(data))
	return err
}

// PutOwned implements storage.OwnedPutter without retaining data: the
// wrapped store takes it through its own PutOwned when it has one.
func (s *spanStore) PutOwned(key string, data []byte) error {
	id := s.start("PutOwned", key)
	err := storage.PutNoRetain(s.inner, key, data)
	s.done(id, key, len(data))
	return err
}

// Get implements storage.PersistStore.
func (s *spanStore) Get(key string) ([]byte, error) {
	id := s.start("Get", key)
	b, err := s.inner.Get(key)
	s.done(id, key, len(b))
	return b, err
}

// Delete implements storage.PersistStore.
func (s *spanStore) Delete(key string) error {
	id := s.start("Delete", key)
	err := s.inner.Delete(key)
	s.done(id, key, 0)
	return err
}

// Keys implements storage.PersistStore.
func (s *spanStore) Keys(prefix string) ([]string, error) {
	id := s.start("Keys", prefix)
	keys, err := s.inner.Keys(prefix)
	s.done(id, prefix, 0)
	return keys, err
}

// spanViewStore adds zero-copy reads for wrapped stores that have them.
type spanViewStore struct {
	*spanStore
	viewer storage.Viewer
}

// GetView implements storage.Viewer.
func (s *spanViewStore) GetView(key string) ([]byte, error) {
	id := s.start("GetView", key)
	b, err := s.viewer.GetView(key)
	s.done(id, key, len(b))
	return b, err
}

// The surfaces the fleet service discovers by type assertion on its
// backend (they are private to package fleet, so they are restated here).
type (
	repairer interface {
		Backends() int
		Probe() []error
		Health() []error
		Sync() (int, error)
		Repairs() int64
	}
	shardSet interface {
		Shards() int
		ShardName(i int) string
		Shard(i int) storage.PersistStore
		Locate(key string) int
	}
	guardSetter interface {
		SetGuard(*sync.RWMutex)
	}
)

// spanReplica wraps a replica set, keeping the repair surface the scrub
// daemon drives.
type spanReplica struct {
	*spanViewStore
	rep *replica.Store
}

func (s *spanReplica) Backends() int      { return s.rep.Backends() }
func (s *spanReplica) Probe() []error     { return s.rep.Probe() }
func (s *spanReplica) Health() []error    { return s.rep.Health() }
func (s *spanReplica) Sync() (int, error) { return s.rep.Sync() }
func (s *spanReplica) Repairs() int64     { return s.rep.Repairs() }

// spanShard wraps a shard router, keeping per-shard put partitioning
// (storage.Sharder), per-shard scrubbing and the rebalance guard.
type spanShard struct {
	*spanViewStore
	router *shard.Router
}

func (s *spanShard) ShardCount() int                  { return s.router.ShardCount() }
func (s *spanShard) Locate(key string) int            { return s.router.Locate(key) }
func (s *spanShard) Shards() int                      { return s.router.Shards() }
func (s *spanShard) ShardName(i int) string           { return s.router.ShardName(i) }
func (s *spanShard) Shard(i int) storage.PersistStore { return s.router.Shard(i) }
func (s *spanShard) SetGuard(g *sync.RWMutex)         { s.router.SetGuard(g) }
func (s *spanShard) Probe() []error                   { return s.router.Probe() }
func (s *spanShard) Health() []error                  { return s.router.Health() }
func (s *spanShard) Sync() (int, error)               { return s.router.Sync() }
func (s *spanShard) Repairs() int64                   { return s.router.Repairs() }

var (
	_ storage.PersistStore = (*spanStore)(nil)
	_ storage.OwnedPutter  = (*spanStore)(nil)
	_ storage.Viewer       = (*spanViewStore)(nil)
	_ storage.OwnedPutter  = (*spanViewStore)(nil)
	_ repairer             = (*spanReplica)(nil)
	_ storage.Viewer       = (*spanReplica)(nil)
	_ storage.Sharder      = (*spanShard)(nil)
	_ shardSet             = (*spanShard)(nil)
	_ guardSetter          = (*spanShard)(nil)
	_ storage.Viewer       = (*spanShard)(nil)
	// What is forwarded must exist below: these break the build if a tier
	// drops a capability the wrappers promise.
	_ repairer    = (*replica.Store)(nil)
	_ shardSet    = (*shard.Router)(nil)
	_ guardSetter = (*shard.Router)(nil)
)

// traceStore wraps inner so its operations are recorded under layer. The
// returned store offers exactly the optional capabilities inner offers
// (PutOwned falls back to a copying Put, as every wrapper in the stack
// does). With a nil recorder it returns inner itself.
func traceStore(rec *recorder, layer string, inner storage.PersistStore, above *spanStore) (storage.PersistStore, *spanStore) {
	if rec == nil {
		return inner, nil
	}
	base := &spanStore{inner: inner, layer: layer, rec: rec, above: above, inflight: make(map[string]int32)}
	viewer, ok := inner.(storage.Viewer)
	if !ok {
		return base, base
	}
	view := &spanViewStore{spanStore: base, viewer: viewer}
	switch in := inner.(type) {
	case *replica.Store:
		return &spanReplica{spanViewStore: view, rep: in}, base
	case *shard.Router:
		return &spanShard{spanViewStore: view, router: in}, base
	}
	return view, base
}
