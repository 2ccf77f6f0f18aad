package cas

import (
	"bytes"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"moc/internal/obs"
	"moc/internal/storage"
)

// Options configures a Store.
type Options struct {
	// ChunkSize is the chunk length in bytes (default DefaultChunkSize).
	// Under ChunkingFixed every chunk of a payload but the last is exactly
	// ChunkSize, and the last is under 1.25 × ChunkSize: a remainder
	// shorter than ChunkSize/4 rides in the last full chunk. Under
	// ChunkingCDC it is the average target. Smaller chunks dedup at finer
	// granularity at the cost of more keys. A store never picks the size
	// itself, but the writing moc.System opens its store with
	// SizeChunksFor the backend, so over a remote it is larger.
	ChunkSize int
	// Chunking selects the chunker (default ChunkingFixed). ChunkingCDC
	// places boundaries by a content-defined rolling hash, so dedup
	// survives insert/shift edits, not just in-place updates.
	Chunking Chunking
	// MinChunkSize / MaxChunkSize bound CDC chunk lengths (defaults
	// ChunkSize/4 and ChunkSize*4). Ignored under ChunkingFixed.
	MinChunkSize int
	MaxChunkSize int
	// Workers is the striped-writer fan-out: the chunk Puts one WriteRound
	// keeps in flight (default DefaultWorkers, the read side's width), split
	// evenly over the shard queues of a sharded backend. It is what the
	// round offers; how many proceed at once is the backend's own admission
	// — a remote's MaxConcurrent, a MemStore's bandwidth debt.
	Workers int
	// HashWorkers is the chunk-hashing fan-out of the persist pipeline
	// (default GOMAXPROCS, capped at 8). Hashing, dedup filtering, and
	// backend puts run as overlapped stages, so even HashWorkers = 1
	// hides hash time behind put latency; higher values add hashing
	// parallelism on multi-core hosts.
	HashWorkers int
	// ReadWorkers bounds the backend requests one read-side call keeps in
	// flight (default 16): the chunk Gets of a ReadModule, ReadModules,
	// ReadRound or ReadAcross, the manifest Gets of Open, Refresh, Retain
	// and Audit, and the Deletes of a Retain sweep. Every such batch is
	// one flat fan-out — a whole recovery is a single ReadAcross — so this
	// is the peak concurrency a caller offers the backend per call; size it
	// to the backend's connection budget. Fetch workers verify chunks
	// against their addresses as they arrive, so verification overlaps
	// backend latency too. 1 reads sequentially.
	ReadWorkers int
	// Writer distinguishes manifests from different agents sharing one
	// backend. Defaults to an id unique across processes (sequence number
	// plus a per-process pid/random tag), so two processes opening the
	// same backend with default options never collide on manifest keys.
	Writer string
	// ScopeToWriter restricts the store's manifest view — Rounds,
	// Manifests, ReadModule, ReadRound — to manifests written by Writer.
	// A fleet session sets it so each job sees only its own checkpoint
	// lineage on the shared backend (the dedup index still spans every
	// writer's chunks). Store-wide operations (Retain, Audit,
	// PhysicalBytes) always cover the whole backend regardless.
	ScopeToWriter bool
	// Shared, when non-nil, replaces the store's private presence index
	// with one shared among several Stores over the same backend:
	// chunks committed by any sharing writer dedup in all of them, and
	// GC sweep removals propagate to every writer immediately (the
	// fleet-wide no-over-claim invariant — see SharedPresence).
	Shared *SharedPresence
	// Guard, when non-nil, is read-locked for the duration of every
	// WriteRound and write-locked for the duration of every Retain, so
	// several writers sharing one backend can garbage-collect safely: a
	// GC can never sweep the not-yet-committed chunks of a round another
	// writer is persisting. Stores sharing a backend must share the
	// guard (the fleet service hands one to every session).
	Guard *sync.RWMutex
}

// DefaultChunkSize is the chunk length used when Options.ChunkSize is 0,
// and the one ChunkSizeFor gives a memory-speed backend.
const DefaultChunkSize = 64 << 10

// MaxCostChunkSize caps what ChunkSizeFor derives. A chunk of at most
// 1.25 × this stays one request, far below a remote's multipart
// threshold (8 MiB parts by default), and a sparse update rewrites at
// most this much per changed chunk.
const MaxCostChunkSize = 1 << 20

// ChunkSizeFor is the fixed chunk size for a backend whose requests cost
// latencySeconds of round trip and move bytesPerSecond per stream: the
// smallest power of two at least the bandwidth-delay product, clamped to
// [DefaultChunkSize, MaxCostChunkSize]. A chunk below the product spends
// longer waiting for its round trip than moving its bytes, so a read of
// many such chunks pays one latency wave per backend width; past the
// product a larger chunk only coarsens dedup. A memory-speed backend
// (latency 0) keeps DefaultChunkSize.
func ChunkSizeFor(latencySeconds, bytesPerSecond float64) int {
	bdp := latencySeconds * bytesPerSecond
	size := DefaultChunkSize
	for size < MaxCostChunkSize && float64(size) < bdp {
		size <<= 1
	}
	return size
}

// SizeChunksFor returns o with a fixed chunk size left at 0 set from
// the backend's storage.Coster report by ChunkSizeFor, or to
// DefaultChunkSize for a backend that reports none. An explicit size and
// CDC's average target are kept as they are.
func (o Options) SizeChunksFor(backend storage.PersistStore) Options {
	if o.ChunkSize != 0 || o.Chunking != ChunkingFixed {
		return o
	}
	o.ChunkSize = DefaultChunkSize
	if c, ok := backend.(storage.Coster); ok {
		o.ChunkSize = ChunkSizeFor(c.RequestCost())
	}
	return o
}

// DefaultReadWorkers is the read-side fan-out used when
// Options.ReadWorkers is 0.
const DefaultReadWorkers = 16

// DefaultWorkers is the striped-writer fan-out used when Options.Workers
// is 0: a round offers the backend what a read offers it.
const DefaultWorkers = DefaultReadWorkers

// maxDefaultHashWorkers caps the GOMAXPROCS-derived hashing fan-out:
// past a handful of cores the pipeline is put- or memory-bound, and a
// wider default would just add idle goroutines per round.
const maxDefaultHashWorkers = 8

var writerSeq atomic.Int64

// processTag disambiguates default writer ids across processes: the
// sequence counter alone is only process-unique, so two processes
// sharing one FSStore directory would both claim "w001" and overwrite
// each other's manifests. The tag mixes the pid (distinct among live
// processes on a host) with random bytes (distinct across pid reuse and
// across hosts).
var processTag = makeProcessTag()

func makeProcessTag() string {
	var b [4]byte
	if _, err := crand.Read(b[:]); err != nil {
		//moc:allow walltime entropy fallback when crypto/rand fails; seed material, not a timing dependency
		binary.LittleEndian.PutUint32(b[:], uint32(time.Now().UnixNano()))
	}
	return fmt.Sprintf("p%d-%s", os.Getpid(), hex.EncodeToString(b[:]))
}

func (o *Options) fillDefaults() error {
	if o.ChunkSize == 0 {
		o.ChunkSize = DefaultChunkSize
	}
	if o.ChunkSize < 0 {
		return fmt.Errorf("cas: negative chunk size")
	}
	if !o.Chunking.valid() {
		return fmt.Errorf("cas: unknown chunking mode %d", int(o.Chunking))
	}
	if o.Chunking == ChunkingCDC {
		if o.MinChunkSize == 0 {
			o.MinChunkSize = o.ChunkSize / 4
		}
		if o.MaxChunkSize == 0 {
			o.MaxChunkSize = o.ChunkSize * 4
		}
		if o.MinChunkSize < 1 || o.MinChunkSize > o.ChunkSize || o.MaxChunkSize < o.ChunkSize {
			return fmt.Errorf("cas: cdc chunk bounds must satisfy 1 <= min (%d) <= avg (%d) <= max (%d)",
				o.MinChunkSize, o.ChunkSize, o.MaxChunkSize)
		}
	} else if o.MinChunkSize != 0 || o.MaxChunkSize != 0 {
		return fmt.Errorf("cas: Min/MaxChunkSize only apply to ChunkingCDC")
	}
	if o.Workers == 0 {
		o.Workers = DefaultWorkers
	}
	if o.Workers < 0 {
		return fmt.Errorf("cas: negative worker count")
	}
	if o.HashWorkers == 0 {
		o.HashWorkers = runtime.GOMAXPROCS(0)
		if o.HashWorkers > maxDefaultHashWorkers {
			o.HashWorkers = maxDefaultHashWorkers
		}
	}
	if o.HashWorkers < 0 {
		return fmt.Errorf("cas: negative hash worker count")
	}
	if o.ReadWorkers == 0 {
		o.ReadWorkers = DefaultReadWorkers
	}
	if o.ReadWorkers < 0 {
		return fmt.Errorf("cas: negative read worker count")
	}
	if o.Writer == "" {
		o.Writer = fmt.Sprintf("w%03d-%s", writerSeq.Add(1), processTag)
	}
	if strings.ContainsAny(o.Writer, "./") {
		return fmt.Errorf("cas: writer id %q may not contain '.' or '/'", o.Writer)
	}
	return nil
}

// split cuts a payload with the configured chunker. Chunks alias blob.
func (o *Options) split(blob []byte) [][]byte {
	if o.Chunking == ChunkingCDC {
		return splitCDC(blob, o.MinChunkSize, o.ChunkSize, o.MaxChunkSize)
	}
	return splitChunks(blob, o.ChunkSize)
}

// Stats counts a store's write-side activity since Open.
type Stats struct {
	// RoundsWritten counts committed WriteRound calls.
	RoundsWritten int
	// ChunksWritten / BytesWritten count physical chunk Puts.
	ChunksWritten int64
	BytesWritten  int64
	// ChunksDeduped / BytesDeduped count chunk references satisfied by
	// chunks already present (bytes that were NOT rewritten).
	ChunksDeduped int64
	BytesDeduped  int64
	// LogicalBytes is the total payload volume presented to WriteRound.
	LogicalBytes int64
	// ChunksHashed counts the chunk digests the hash stage computed —
	// the pipeline's CPU-side work. Modules short-circuited by the
	// unchanged-module fast path contribute zero.
	ChunksHashed int64
	// ModulesUnchanged / BytesUnchanged count module payloads (and their
	// volume) that skipped chunking and hashing entirely because their
	// bytes matched the previous round's.
	ModulesUnchanged int64
	BytesUnchanged   int64
}

// DedupRatio is the fraction of presented bytes that deduplication
// avoided writing (0 when nothing was presented).
func (s Stats) DedupRatio() float64 {
	if s.LogicalBytes == 0 {
		return 0
	}
	return float64(s.BytesDeduped) / float64(s.LogicalBytes)
}

// moduleMemo is the unchanged-module fast path: the payload bytes a
// module persisted last and the chunk refs they produced. When a later
// round presents byte-identical payload, WriteRound reuses the refs and
// skips chunking and hashing for the whole module. Detection compares
// against the retained bytes directly rather than recomputing a
// whole-module digest: a digest check would charge every CHANGED module
// a second full hash pass just to learn it changed, while the direct
// comparison bails at the first differing byte and pays a fast memcmp
// only when the skip is about to win.
//
// The deliberate cost of that trade: the store permanently retains one
// private copy of each module's newest payload (reused in place across
// rounds), so resident memory grows by about one full checkpoint's
// volume — the same order as the snapshot tier already holds. The
// comparison also runs under the store mutex, briefly serializing
// concurrent writers on rounds with large unchanged modules. A
// deployment that cannot afford the resident copy would trade back to
// a digest (32 B/module, but a second hash pass per changed module).
type moduleMemo struct {
	data []byte
	refs []ChunkRef
}

// Store is a content-addressed chunk store over one PersistStore backend.
// It is safe for concurrent use; GC (Retain) must not race with writers.
type Store struct {
	backend storage.PersistStore
	opts    Options

	// present is the sharded dedup index of chunk addresses known to
	// exist in the backend (scanned at Open plus everything committed
	// since); it replaces per-chunk backend existence probes entirely.
	present *presenceIndex

	mu sync.Mutex
	// manifests caches decoded manifests by round, in writer order, for
	// the rounds this store has seen (at Open or written itself).
	manifests map[int][]*Manifest
	// memo holds each module's last-written payload and chunk refs (the
	// unchanged-module fast path).
	memo  map[string]*moduleMemo
	stats Stats
}

// Open scans the backend's manifests and chunk index and returns a store
// over it. A corrupt manifest fails the open: a backend that lies about
// commit points must not be trusted silently.
func Open(backend storage.PersistStore, opts Options) (*Store, error) {
	if err := opts.fillDefaults(); err != nil {
		return nil, err
	}
	// The presence seed must not interleave with a guarded GC sweep: a
	// chunk scan started before the sweep deletes chunk X would re-add X
	// to a SHARED index after the sweep removed it — an over-claim, the
	// one staleness direction the index must never have.
	if opts.Guard != nil {
		opts.Guard.RLock()
		defer opts.Guard.RUnlock()
	}
	s := &Store{
		backend:   backend,
		opts:      opts,
		present:   newPresenceIndex(),
		manifests: make(map[int][]*Manifest),
		memo:      make(map[string]*moduleMemo),
	}
	if opts.Shared != nil {
		s.present = opts.Shared.idx
	}
	manifests, chunks, err := scanBackend(backend, opts.ReadWorkers, true)
	if err != nil {
		return nil, err
	}
	for _, h := range chunks {
		s.present.Add(h)
	}
	for _, m := range manifests {
		if s.scopedOut(m) {
			continue
		}
		s.manifests[m.Round] = append(s.manifests[m.Round], m)
	}
	if obs.Enabled() {
		s.registerObs()
	}
	return s, nil
}

// scopedOut reports whether a manifest is hidden from this store's view
// by Options.ScopeToWriter.
func (s *Store) scopedOut(m *Manifest) bool {
	return s.opts.ScopeToWriter && m.Writer != s.opts.Writer
}

// Refresh re-reads the backend's manifests (and, for stores with a
// private presence index, its chunk set), replacing the in-memory
// caches. A coordination layer calls it on every open store after a
// store-wide GC ran through a *different* Store handle, so stale caches
// cannot serve dropped manifest entries. Stores on a shared presence
// index skip the chunk rescan: the GC's sweep already removed swept
// chunks from the index they share.
func (s *Store) Refresh() error {
	manifests, chunks, err := scanBackend(s.backend, s.opts.ReadWorkers, s.opts.Shared == nil)
	if err != nil {
		return err
	}
	byRound := make(map[int][]*Manifest)
	for _, m := range manifests {
		if s.scopedOut(m) {
			continue
		}
		byRound[m.Round] = append(byRound[m.Round], m)
	}
	var fresh *presenceIndex
	if s.opts.Shared == nil {
		fresh = newPresenceIndex()
		for _, h := range chunks {
			fresh.Add(h)
		}
	}
	s.mu.Lock()
	s.manifests = byRound
	if fresh != nil {
		s.present = fresh
	}
	s.mu.Unlock()
	return nil
}

// scanBackend loads every manifest and, when withChunks is set, lists the
// stored chunk set — the two scans a cold open pays. They are independent,
// so the chunk listing runs beside the manifest listing and loads: an
// open costs about three backend round trips, however many manifests
// there are up to width.
func scanBackend(backend storage.PersistStore, width int, withChunks bool) ([]*Manifest, []Hash, error) {
	if !withChunks {
		manifests, err := loadManifests(backend, width)
		return manifests, nil, err
	}
	var chunks []Hash
	var chunkErr error
	listed := make(chan struct{})
	go func() {
		defer close(listed)
		chunks, chunkErr = listChunks(backend)
	}()
	manifests, err := loadManifests(backend, width)
	<-listed
	if chunkErr != nil {
		return nil, nil, chunkErr
	}
	return manifests, chunks, err
}

// listChunks returns the address of every chunk the backend holds.
func listChunks(backend storage.PersistStore) ([]Hash, error) {
	keys, err := backend.Keys(chunkPrefix)
	if err != nil {
		return nil, fmt.Errorf("cas: scan chunks: %w", err)
	}
	out := make([]Hash, len(keys))
	for i, k := range keys {
		if out[i], err = ParseHash(strings.TrimPrefix(k, chunkPrefix)); err != nil {
			return nil, fmt.Errorf("cas: foreign key %q under chunk prefix", k)
		}
	}
	return out, nil
}

// loadManifests reads and decodes every manifest in the backend, sorted
// by (round, writer), fetching up to width of them at a time. Any
// unreadable, corrupt or misfiled manifest fails the load; of several,
// the lowest key's error is reported.
func loadManifests(backend storage.PersistStore, width int) ([]*Manifest, error) {
	keys, err := backend.Keys(manifestPrefix)
	if err != nil {
		return nil, fmt.Errorf("cas: scan manifests: %w", err)
	}
	out := make([]*Manifest, len(keys))
	// A manifest Get is a backend round trip whatever it carries, never the
	// memory-speed work fanOut's shortcut is for, so even two of them
	// overlap: the payload claims the shortcut's byte floor.
	err = fanOut(nil, "manifest", len(keys), width, minParallelBytes, func(i int) error {
		k := keys[i]
		round, writer, ok := parseManifestKey(k)
		if !ok {
			return fmt.Errorf("cas: foreign key %q under manifest prefix", k)
		}
		blob, err := backend.Get(k)
		if err != nil {
			return fmt.Errorf("cas: read manifest %s: %w", k, err)
		}
		m, err := DecodeManifest(blob)
		if err != nil {
			return fmt.Errorf("cas: manifest %s: %w", k, err)
		}
		if m.Round != round || m.Writer != writer {
			return fmt.Errorf("cas: manifest %s claims round %d writer %q", k, m.Round, m.Writer)
		}
		out[i] = m
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// minParallelTasks and minParallelBytes bound the batches fanOut runs on
// the calling goroutine: spawning workers for a few memory-speed requests
// costs more than it overlaps, unless the requests carry enough payload
// that verifying it — a SHA-256 pass over every byte — is worth a second
// core. A subset read of four full-size modules is a handful of chunks
// but a quarter of a megabyte to hash.
const (
	minParallelTasks = 8
	minParallelBytes = 128 << 10
)

// fanOut runs fn(0) … fn(n-1) with at most width calls in flight and
// returns when all started calls have. It is the one bounded worker loop
// of the read side: chunk fetches, manifest loads and the GC sweep all go
// through it. payload is the bytes the calls carry (0 when unknown). After
// a failure no further index is handed out; indices are handed out in
// order and a claimed index always runs, so of several failing calls the
// lowest index's error is the one reported, whatever the scheduling. Under
// a tracing span each worker records a child span named stage on its own
// lane.
func fanOut(sp *obs.Span, stage string, n, width int, payload int64, fn func(i int) error) error {
	if width > n {
		width = n
	}
	if width <= 1 || n < minParallelTasks && payload < minParallelBytes {
		wsp := sp.Child(stage)
		defer wsp.End()
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next     atomic.Int64
		failed   atomic.Bool
		wg       sync.WaitGroup
		errMu    sync.Mutex
		errIdx   = n
		firstErr error
	)
	for w := 0; w < width; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wsp := sp.Child(stage)
			if wsp != nil {
				wsp.Lane(stage + "-w" + strconv.Itoa(w))
			}
			defer wsp.End()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					failed.Store(true)
					errMu.Lock()
					if i < errIdx {
						errIdx, firstErr = i, err
					}
					errMu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	return firstErr
}

// Writer returns the id stamped on manifests this store writes.
func (s *Store) Writer() string { return s.opts.Writer }

// Chunking returns the chunker this store writes new rounds with.
func (s *Store) Chunking() Chunking { return s.opts.Chunking }

// Rounds returns the committed rounds this store knows of, ascending.
func (s *Store) Rounds() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]int, 0, len(s.manifests))
	for r := range s.manifests {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// Manifests returns every manifest this store knows of, sorted by round
// then writer.
func (s *Store) Manifests() []*Manifest {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*Manifest
	for _, ms := range s.manifests {
		out = append(out, ms...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Round != out[j].Round {
			return out[i].Round < out[j].Round
		}
		return out[i].Writer < out[j].Writer
	})
	return out
}

// ManifestsForRound returns the manifests committed for a round (one per
// writer), or nil.
func (s *Store) ManifestsForRound(round int) []*Manifest {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Manifest(nil), s.manifests[round]...)
}

// Stats returns a copy of the write-side counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// hashTask is a batch of chunks awaiting their digests; slots are their
// ChunkRefs in the manifest under construction, aligned with chunks
// (stable addresses: each entry's Chunks array is allocated once and
// never moved). Chunks travel in batches because a channel handoff is
// not free — at one batch per chunk the scheduler round-trips would
// rival the hash work for small chunks.
type hashTask struct {
	chunks [][]byte
	slots  []ChunkRef
}

// hashBatch bounds a hash task's chunk count: large enough to amortize
// the channel handoff, small enough that a round's chunks still spread
// across the hash workers.
const hashBatch = 32

// putTask is one distinct new chunk claimed for writing this round.
type putTask struct {
	hash Hash
	data []byte
}

// stage starts width workers that drain ch through fn and exit when ch is
// closed — the stream-shaped sibling of fanOut, and the one worker loop of
// the write side: WriteRound's hash pool and each of its put pools are a
// call. Once failed is set the workers keep receiving without calling fn,
// so a sender upstream never blocks on a stage that has given up and the
// pipeline always unwinds. Under a tracing span each worker records a child
// span named name on its own lane, lane-w<i>.
func stage[T any](sp *obs.Span, wg *sync.WaitGroup, failed *atomic.Bool, name, lane string, width int, ch <-chan T, fn func(T)) {
	for w := 0; w < width; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wsp := sp.Child(name)
			if wsp != nil {
				wsp.Lane(lane + "-w" + strconv.Itoa(w))
			}
			defer wsp.End()
			for t := range ch {
				if !failed.Load() {
					fn(t)
				}
			}
		}(w)
	}
}

// WriteRound persists one round's module payloads and commits them with
// a manifest. It runs as a streaming pipeline: the caller splits
// payloads and feeds chunks through a bounded channel to the hash
// workers, which digest them, consult the sharded presence index (the
// dedup filter — chunks already in the store are never rewritten), and
// forward each distinct new chunk to the striped put workers, so
// chunking, hashing, dedup filtering, and backend puts all overlap.
// Modules whose bytes are unchanged from their previous write skip the
// pipeline entirely and reuse their recorded chunk refs. The manifest
// Put is last, so a crash mid-round leaves at worst orphan chunks —
// never a committed round with missing data. An empty payload map
// commits an empty manifest (the round marker for a writer whose
// persist filter kept nothing).
//
// The put stage hands the backend chunk slices that alias the caller's
// blobs — no copy: storage.PersistStore.Put may not retain them, and the
// blobs outlive every put because WriteRound has not returned. The caller
// is free to reuse its buffers the moment it does.
func (s *Store) WriteRound(round int, modules map[string][]byte) (*Manifest, error) {
	if round < 0 {
		return nil, fmt.Errorf("cas: negative round %d", round)
	}
	sp := obs.Start("cas", "WriteRound").AttrInt("round", int64(round)).AttrInt("modules", int64(len(modules)))
	defer func() {
		if d := sp.End(); d > 0 {
			obsPersistRound.Observe(obs.Seconds(d))
		}
	}()
	// Multi-writer GC exclusion: hold the shared guard (when configured)
	// for the whole round, so a Retain running through any store over
	// this backend waits for the commit instead of sweeping chunks whose
	// manifest is still in flight.
	if g := s.opts.Guard; g != nil {
		g.RLock()
		defer g.RUnlock()
	}
	m := &Manifest{Round: round, Writer: s.opts.Writer, Version: ManifestVersion, Chunking: s.opts.Chunking}

	names := make([]string, 0, len(modules))
	for k := range modules {
		names = append(names, k)
	}
	sort.Strings(names)

	// Failure latch: the first stage error wins; later stages drain
	// their channels without doing work so the pipeline always unwinds.
	var failed atomic.Bool
	var errMu sync.Mutex
	var firstErr error
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		failed.Store(true)
	}

	hashCh := make(chan hashTask, 4*s.opts.HashWorkers)
	claims := newRoundClaims()

	// Against a sharded backend the put fan-out is partitioned per
	// shard: each shard gets its own queue and worker set, so a slow
	// shard backs up only its own queue while the others keep draining
	// — one degraded backend cannot stall the whole round, and adding
	// shards adds put parallelism. Queue choice is load partitioning
	// only; the backend routes every put by key itself.
	shardCount := 1
	var sharder storage.Sharder
	if sh, ok := s.backend.(storage.Sharder); ok {
		if n := sh.ShardCount(); n > 1 {
			sharder, shardCount = sh, n
		}
	}

	// Worker stages and their queues, created lazily on the first chunk
	// that actually needs hashing: a round whose modules all hit the
	// unchanged-module memo (or an empty round) commits without creating
	// a single goroutine, put queue or channel send.
	var putMu sync.Mutex
	putHashes := make([]Hash, 0, 64)
	var putBytes int64
	var putWG, hashWG sync.WaitGroup
	var putChs []chan putTask
	pipelineStarted := false
	startPipeline := func() {
		if pipelineStarted {
			return
		}
		pipelineStarted = true
		// Put stage: striped backend writers. Successful puts are
		// recorded so presence is extended only with chunks the backend
		// accepted. With a sharded backend the Workers budget is split
		// across the per-shard queues (at least one worker each).
		perShard := (s.opts.Workers + shardCount - 1) / shardCount
		putChs = make([]chan putTask, shardCount)
		for qi := range putChs {
			putChs[qi] = make(chan putTask, 4*s.opts.Workers)
			stage(sp, &putWG, &failed, "put", "put-s"+strconv.Itoa(qi), perShard, putChs[qi], func(t putTask) {
				if err := s.backend.Put(ChunkKey(t.hash), t.data); err != nil {
					fail(fmt.Errorf("cas: put chunk %s: %w", t.hash, err))
					return
				}
				putMu.Lock()
				putHashes = append(putHashes, t.hash)
				putBytes += int64(len(t.data))
				putMu.Unlock()
			})
		}
		// Hash stage: digest chunks, fill their manifest slots, and
		// claim distinct new chunks for the put stage.
		stage(sp, &hashWG, &failed, "hash", "hash", s.opts.HashWorkers, hashCh, func(t hashTask) {
			for i, c := range t.chunks {
				h := HashBytes(c)
				t.slots[i].Hash = h
				t.slots[i].Size = uint32(len(c))
				if !s.present.Has(h) && claims.Claim(h) {
					qi := 0
					if sharder != nil {
						if i := sharder.Locate(ChunkKey(h)); i >= 0 && i < shardCount {
							qi = i
						}
					}
					putChs[qi] <- putTask{hash: h, data: c}
				}
			}
		})
	}

	// Feed stage (this goroutine): resolve unchanged modules against the
	// memo, split the rest, and stream their chunks into the pipeline.
	var logical, refs, hashed, unchangedMods, unchangedBytes int64
	memoHit := make([]bool, len(names))
	fsp := sp.Child("feed")
	for mi, name := range names {
		blob := modules[name]
		e := ModuleEntry{Module: name, Size: int64(len(blob))}
		logical += int64(len(blob))
		if mrefs, ok := s.memoLookup(name, blob); ok {
			e.Chunks = mrefs
			refs += int64(len(mrefs))
			unchangedMods++
			unchangedBytes += int64(len(blob))
			memoHit[mi] = true
			m.Modules = append(m.Modules, e)
			continue
		}
		chunks := s.opts.split(blob)
		slots := make([]ChunkRef, len(chunks))
		e.Chunks = slots
		refs += int64(len(chunks))
		hashed += int64(len(chunks))
		m.Modules = append(m.Modules, e)
		if len(chunks) > 0 {
			startPipeline()
		}
		for off := 0; off < len(chunks); off += hashBatch {
			if failed.Load() {
				break
			}
			end := off + hashBatch
			if end > len(chunks) {
				end = len(chunks)
			}
			hashCh <- hashTask{chunks: chunks[off:end], slots: slots[off:end]}
		}
	}
	fsp.End()
	if pipelineStarted {
		close(hashCh)
		hashWG.Wait()
		for _, ch := range putChs {
			close(ch)
		}
		putWG.Wait()
	}
	if firstErr != nil {
		return nil, firstErr
	}

	// Commit point: the manifest write makes the round durable.
	csp := sp.Child("commit")
	if err := s.backend.Put(manifestKey(round, s.opts.Writer), EncodeManifest(m)); err != nil {
		csp.End()
		return nil, fmt.Errorf("cas: commit round %d: %w", round, err)
	}
	csp.End()

	for _, h := range putHashes {
		s.present.Add(h)
	}
	written := int64(len(putHashes))

	s.mu.Lock()
	// Refresh the memo for modules that went through the pipeline; hits
	// already match. Buffers are reused in place — same-shaped payloads
	// round after round make this allocation-free at steady state.
	for mi, name := range names {
		if memoHit[mi] {
			continue
		}
		mm := s.memo[name]
		if mm == nil {
			mm = &moduleMemo{}
			s.memo[name] = mm
		}
		mm.data = append(mm.data[:0], modules[name]...)
		mm.refs = append(mm.refs[:0], m.Modules[mi].Chunks...)
	}
	// Re-persisting a round replaces this writer's previous manifest.
	kept := s.manifests[round][:0]
	for _, prev := range s.manifests[round] {
		if prev.Writer != s.opts.Writer {
			kept = append(kept, prev)
		}
	}
	s.manifests[round] = append(kept, m)
	s.stats.RoundsWritten++
	s.stats.ChunksWritten += written
	s.stats.BytesWritten += putBytes
	s.stats.ChunksDeduped += refs - written
	s.stats.BytesDeduped += logical - putBytes
	s.stats.LogicalBytes += logical
	s.stats.ChunksHashed += hashed
	s.stats.ModulesUnchanged += unchangedMods
	s.stats.BytesUnchanged += unchangedBytes
	s.mu.Unlock()
	sp.AttrInt("chunks_written", written).AttrInt("bytes_put", putBytes)
	return m, nil
}

// memoLookup resolves the unchanged-module fast path: when blob is
// byte-identical to the module's last-written payload AND every
// recorded chunk is still present (a GC may have swept them since), it
// returns a private copy of the recorded refs.
func (s *Store) memoLookup(name string, blob []byte) ([]ChunkRef, bool) {
	s.mu.Lock()
	mm := s.memo[name]
	hit := mm != nil && len(mm.data) == len(blob) && bytes.Equal(mm.data, blob)
	var refs []ChunkRef
	if hit {
		refs = append(make([]ChunkRef, 0, len(mm.refs)), mm.refs...)
	}
	s.mu.Unlock()
	if !hit {
		return nil, false
	}
	for _, c := range refs {
		if !s.present.Has(c.Hash) {
			return nil, false
		}
	}
	return refs, true
}

// ErrModuleNotFound reports a module absent from a round's manifests.
var ErrModuleNotFound = errors.New("cas: module not persisted in round")

// ModuleAt names one module as committed in one round — the unit of a
// read plan.
type ModuleAt struct {
	Round  int
	Module string
}

// planned is a ModuleAt resolved to its manifest entry.
type planned struct {
	round int
	entry *ModuleEntry
}

// fetchTask locates one chunk of a read plan: the planned module it
// belongs to (and that module's position in the plan), and the chunk's
// index there.
type fetchTask struct {
	planned
	pi  int
	idx int
}

// startRead opens the tracing span of one public read call; the returned
// func ends it and feeds the restore-latency histogram.
func startRead(op string) (*obs.Span, func()) {
	sp := obs.Start("cas", op)
	return sp, func() {
		if d := sp.End(); d > 0 {
			obsRestoreRead.Observe(obs.Seconds(d))
		}
	}
}

// Entry returns the manifest entry a read of module in round resolves to,
// or nil — when several writers persisted one name in a round, writer
// order decides (the last wins). Manifests are replaced, never edited (a
// rewritten round, Refresh and Retain all install new ones), so the
// pointer identifies one committed payload for as long as it is held.
func (s *Store) Entry(round int, module string) *ModuleEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	var entry *ModuleEntry
	for _, m := range s.manifests[round] {
		if e := m.Lookup(module); e != nil {
			entry = e
		}
	}
	return entry
}

// readAt resolves each read to its manifest entry (see Entry) and fetches
// them as one plan; the i-th result is reads[i]'s payload as fetchPlan
// returns it.
func (s *Store) readAt(sp *obs.Span, reads []ModuleAt, join bool) ([][][]byte, error) {
	plan := make([]planned, len(reads))
	for i, r := range reads {
		entry := s.Entry(r.Round, r.Module)
		if entry == nil {
			return nil, fmt.Errorf("%w: %s@%06d", ErrModuleNotFound, r.Module, r.Round)
		}
		plan[i] = planned{round: r.Round, entry: entry}
	}
	return s.fetchPlan(sp, plan, join)
}

// ReadAcross fetches modules taken from different rounds — the shape of a
// PEC recovery, where each module's newest copy sits in whichever round
// last persisted it — as one read plan: every chunk of every named module
// joins a single task list fetched at Options.ReadWorkers width, so the
// read costs chunks ÷ width round trips however the chunks spread over
// modules and rounds. The i-th result is reads[i]'s payload as its
// verified chunks in order, never joined: from a storage.Viewer backend
// they are the backend's own views, read-only, so a caller decoding them
// (storage.DecodeTensorsInto) allocates nothing for the payload. A name
// absent from its round fails with ErrModuleNotFound. Every chunk is
// verified against its address and every total against the manifest.
func (s *Store) ReadAcross(reads []ModuleAt) ([][][]byte, error) {
	sp, done := startRead("ReadAcross")
	defer done()
	sp.AttrInt("modules", int64(len(reads)))
	return s.readAt(sp, reads, false)
}

// ReadModule reassembles one module's payload from a round: a read plan
// of one.
func (s *Store) ReadModule(round int, module string) ([]byte, error) {
	sp, done := startRead("ReadModule")
	defer done()
	sp.AttrInt("round", int64(round)).Attr("module", module)
	bufs, err := s.readAt(sp, []ModuleAt{{round, module}}, true)
	if err != nil {
		return nil, err
	}
	return bufs[0][0], nil
}

// ReadModules reassembles only the named modules from a round — the
// partial restore of the PEC read path: the requested experts' chunks
// are fetched, nothing else. It is a read plan within one round: writer
// precedence matches ReadModule, a requested module absent from the
// round fails with ErrModuleNotFound, duplicate names are read once.
func (s *Store) ReadModules(round int, modules []string) (map[string][]byte, error) {
	sp, done := startRead("ReadModules")
	defer done()
	sp.AttrInt("round", int64(round)).AttrInt("modules", int64(len(modules)))
	seen := make(map[string]bool, len(modules))
	reads := make([]ModuleAt, 0, len(modules))
	for _, m := range modules {
		if !seen[m] {
			seen[m] = true
			reads = append(reads, ModuleAt{round, m})
		}
	}
	bufs, err := s.readAt(sp, reads, true)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]byte, len(reads))
	for i, r := range reads {
		out[r.Module] = bufs[i][0]
	}
	return out, nil
}

// ReadRound reassembles every module committed for a round, across all
// writers (when several writers persisted the same module, writer order
// decides, matching ReadModule) — the read plan of the whole round.
func (s *Store) ReadRound(round int) (map[string][]byte, error) {
	sp, done := startRead("ReadRound")
	defer done()
	sp.AttrInt("round", int64(round))
	s.mu.Lock()
	manifests := len(s.manifests[round])
	at := make(map[string]int)
	var plan []planned
	for _, m := range s.manifests[round] {
		for i := range m.Modules {
			e := &m.Modules[i]
			if j, seen := at[e.Module]; seen {
				plan[j].entry = e
				continue
			}
			at[e.Module] = len(plan)
			plan = append(plan, planned{round: round, entry: e})
		}
	}
	s.mu.Unlock()
	if manifests == 0 {
		return nil, fmt.Errorf("cas: no manifests for round %06d", round)
	}
	bufs, err := s.fetchPlan(sp, plan, true)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]byte, len(plan))
	for name, i := range at {
		out[name] = bufs[i][0]
	}
	return out, nil
}

// fetchPlan fetches and verifies the planned entries — the task builder
// behind every read call — fanning all their chunk gets across one
// ReadWorkers-wide pool, and returns each entry's chunks in order.
// Backends implementing storage.Viewer serve chunk bytes without a
// defensive copy: verification only reads them. With join set, whichever
// worker lands a module's last chunk assembles it with bytes.Join — one
// copy into a buffer that is not zeroed first, returned as the module's
// only part. Zeroing every buffer up front was a serial pass whose memory
// had left the cache by the time it was filled, a quarter of a
// memory-speed recovery; zeroing on first touch was still a tenth; and
// joining after the fan-out instead of in it made the serving reads slower.
func (s *Store) fetchPlan(sp *obs.Span, plan []planned, join bool) ([][][]byte, error) {
	parts := make([][][]byte, len(plan))
	missing := make([]atomic.Int32, len(plan))
	var tasks []fetchTask
	var payload int64
	for pi, p := range plan {
		payload += p.entry.Size
		parts[pi] = make([][]byte, len(p.entry.Chunks))
		if join && len(p.entry.Chunks) == 0 {
			parts[pi] = [][]byte{{}}
		}
		missing[pi].Store(int32(len(p.entry.Chunks)))
		var off int64
		for i, c := range p.entry.Chunks {
			tasks = append(tasks, fetchTask{planned: p, idx: i, pi: pi})
			off += int64(c.Size)
		}
		if off != p.entry.Size {
			return nil, fmt.Errorf("cas: %s@%06d: chunks cover %d of %d bytes", p.entry.Module, p.round, off, p.entry.Size)
		}
	}

	viewer, _ := s.backend.(storage.Viewer)
	sp.AttrInt("chunks", int64(len(tasks)))
	err := fanOut(sp, "fetch", len(tasks), s.opts.ReadWorkers, payload, func(i int) error {
		t := &tasks[i]
		ref := t.entry.Chunks[t.idx]
		var data []byte
		var err error
		if viewer != nil {
			data, err = viewer.GetView(ChunkKey(ref.Hash))
		} else {
			data, err = s.backend.Get(ChunkKey(ref.Hash))
		}
		if err != nil {
			return fmt.Errorf("cas: %s@%06d chunk %d: %w", t.entry.Module, t.round, t.idx, err)
		}
		if got := HashBytes(data); got != ref.Hash {
			return fmt.Errorf("cas: %s@%06d chunk %d: content hash %s does not match address %s",
				t.entry.Module, t.round, t.idx, got, ref.Hash)
		}
		if uint32(len(data)) != ref.Size {
			return fmt.Errorf("cas: %s@%06d chunk %d: %d bytes, manifest says %d",
				t.entry.Module, t.round, t.idx, len(data), ref.Size)
		}
		parts[t.pi][t.idx] = data
		if missing[t.pi].Add(-1) == 0 && join {
			parts[t.pi] = [][]byte{bytes.Join(parts[t.pi], nil)}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return parts, nil
}

// GCStats reports what Retain removed.
type GCStats struct {
	// EntriesDropped counts superseded module entries removed from
	// manifests; ManifestsDeleted counts manifests left empty and
	// removed; ChunksDeleted / BytesFreed count unreferenced chunks swept.
	EntriesDropped   int
	ManifestsDeleted int
	ChunksDeleted    int
	BytesFreed       int64
}

// Removed is the total count of removed objects (entries + manifests +
// chunks).
func (g GCStats) Removed() int {
	return g.EntriesDropped + g.ManifestsDeleted + g.ChunksDeleted
}

// Retain is the refcount garbage collector. It keeps exactly the module
// entries for which live returns true, rewriting manifests that shrank
// and deleting ones left empty (manifests of keepRound survive even when
// empty — they anchor the latest complete round). It then recomputes
// chunk reference counts over the surviving manifests — rescanning the
// backend, so references from writers this store never saw are honored —
// and sweeps every chunk whose count reached zero. Writers must be
// quiesced while Retain runs (stores configured with a Guard enforce
// this themselves by write-locking it).
func (s *Store) Retain(live func(round int, module string) bool, keepRound int) (GCStats, error) {
	return s.RetainScoped(
		func(round int, _, module string) bool { return live == nil || live(round, module) },
		func(round int, _ string) bool { return round == keepRound },
	)
}

// NewestLiveness derives RetainScoped's callbacks from a manifest set:
// every writer for which judge returns true keeps, per module, only
// its newest round — what that writer's recovery would read — plus its
// latest round's manifest as the completeness anchor; writers judged
// false are kept untouched (only their owner may retire their
// entries). A nil judge judges every writer. It is the retention
// policy shared by the fleet service's online Retain (judging only
// registered jobs) and mocckpt's offline gc (judging everyone).
func NewestLiveness(manifests []*Manifest, judge func(writer string) bool) (live func(round int, writer, module string) bool, keepEmpty func(round int, writer string) bool) {
	judged := func(w string) bool { return judge == nil || judge(w) }
	newest := make(map[string]map[string]int) // writer → module → newest round
	latest := make(map[string]int)            // writer → latest round
	for _, m := range manifests {
		if !judged(m.Writer) {
			continue
		}
		nm := newest[m.Writer]
		if nm == nil {
			nm = make(map[string]int)
			newest[m.Writer] = nm
		}
		if cur, ok := latest[m.Writer]; !ok || m.Round > cur {
			latest[m.Writer] = m.Round
		}
		for _, e := range m.Modules {
			if cur, ok := nm[e.Module]; !ok || m.Round > cur {
				nm[e.Module] = m.Round
			}
		}
	}
	live = func(round int, writer, module string) bool {
		if !judged(writer) {
			return true
		}
		return round >= newest[writer][module]
	}
	keepEmpty = func(round int, writer string) bool {
		if !judged(writer) {
			return true
		}
		return round == latest[writer]
	}
	return live, keepEmpty
}

// RetainScoped is Retain with writer-aware liveness: live also receives
// the manifest's writer id, so a multi-writer deployment can judge only
// its own entries (returning true for every other writer's), and
// keepEmpty decides per (round, writer) which manifests survive even
// when emptied. It is the GC entry point for stores shared by several
// writers — the per-writer Retain above cannot distinguish two writers'
// same-named modules, which on a fleet store would let one job sweep
// another's older rounds.
func (s *Store) RetainScoped(live func(round int, writer, module string) bool, keepEmpty func(round int, writer string) bool) (GCStats, error) {
	if g := s.opts.Guard; g != nil {
		g.Lock()
		defer g.Unlock()
	}
	var st GCStats
	manifests, err := loadManifests(s.backend, s.opts.ReadWorkers)
	if err != nil {
		return st, err
	}
	surviving := make(map[int][]*Manifest)
	// dropped records what the manifests say each chunk of a dropped entry
	// weighs. Every chunk the sweep removes is either one of these or an
	// orphan no manifest lists, so the sweep reads no payload to size it.
	dropped := make(map[Hash]int64)
	for _, m := range manifests {
		kept := make([]ModuleEntry, 0, len(m.Modules))
		for _, e := range m.Modules {
			if live == nil || live(m.Round, m.Writer, e.Module) {
				kept = append(kept, e)
				continue
			}
			for _, c := range e.Chunks {
				dropped[c.Hash] = int64(c.Size)
			}
		}
		st.EntriesDropped += len(m.Modules) - len(kept)
		switch {
		case len(kept) == len(m.Modules):
			// Untouched.
		case len(kept) == 0 && (keepEmpty == nil || !keepEmpty(m.Round, m.Writer)):
			if err := s.backend.Delete(manifestKey(m.Round, m.Writer)); err != nil {
				return st, fmt.Errorf("cas: delete manifest %06d.%s: %w", m.Round, m.Writer, err)
			}
			st.ManifestsDeleted++
			continue
		default:
			m.Modules = kept
			if err := s.backend.Put(manifestKey(m.Round, m.Writer), EncodeManifest(m)); err != nil {
				return st, fmt.Errorf("cas: rewrite manifest %06d.%s: %w", m.Round, m.Writer, err)
			}
		}
		surviving[m.Round] = append(surviving[m.Round], m)
	}
	// The manifest phase is done: refresh the cache now, so a failure in
	// the sweep phase below cannot leave it pointing at deleted entries.
	cache := make(map[int][]*Manifest, len(surviving))
	for r, ms := range surviving {
		for _, m := range ms {
			if s.scopedOut(m) {
				continue
			}
			cache[r] = append(cache[r], m)
		}
	}
	s.mu.Lock()
	s.manifests = cache
	s.mu.Unlock()

	refs := make(map[Hash]int)
	for _, ms := range surviving {
		for _, m := range ms {
			for _, e := range m.Modules {
				for _, c := range e.Chunks {
					refs[c.Hash]++
				}
			}
		}
	}
	chunks, err := listChunks(s.backend)
	if err != nil {
		return st, err
	}
	// A private presence index is rebuilt from the post-GC state; a
	// shared one is shrunk in place by the per-chunk Removes below —
	// replacing it here would disconnect the other stores sharing it.
	var present *presenceIndex
	if s.opts.Shared == nil {
		present = newPresenceIndex()
	}
	var sweep []Hash
	for _, h := range chunks {
		switch {
		case refs[h] == 0:
			sweep = append(sweep, h)
		case present != nil:
			present.Add(h)
		}
	}
	// The sweep: each unreferenced chunk costs a Delete (an orphan a sizing
	// Get first), independent of every other chunk's, so they overlap up to
	// the read width. A failure stops the sweep with the totals of what was
	// removed.
	var deleted, freed atomic.Int64
	err = fanOut(nil, "sweep", len(sweep), s.opts.ReadWorkers, 0, func(i int) error {
		h := sweep[i]
		size, listed := dropped[h]
		if !listed {
			if blob, err := s.backend.Get(ChunkKey(h)); err == nil {
				size = int64(len(blob))
			}
		}
		// Drop the chunk from the dedup index BEFORE deleting it from the
		// backend: if this Retain errors out mid-sweep, an overclaiming
		// index would let a later WriteRound dedup against a chunk that
		// no longer exists and commit an unrecoverable round. The reverse
		// staleness (chunk present, index unaware) merely costs a
		// redundant idempotent write. The unchanged-module memo needs no
		// such step: its refs are revalidated against the presence index
		// at every use.
		s.present.Remove(h)
		if err := s.backend.Delete(ChunkKey(h)); err != nil {
			return fmt.Errorf("cas: sweep chunk %s: %w", h, err)
		}
		deleted.Add(1)
		freed.Add(size)
		return nil
	})
	st.ChunksDeleted, st.BytesFreed = int(deleted.Load()), freed.Load()
	if err != nil {
		return st, err
	}

	if present != nil {
		s.mu.Lock()
		s.present = present
		s.mu.Unlock()
	}
	return st, nil
}

// AuditReport is the refcount audit of Audit.
type AuditReport struct {
	Rounds    int
	Manifests int
	Modules   int
	// ChunksReferenced / ChunksStored compare the manifest-implied chunk
	// set with what the backend actually holds.
	ChunksReferenced int
	ChunksStored     int
	// RefTotal is the total reference count across manifests (≥
	// ChunksReferenced when rounds share chunks — the dedup evidence).
	RefTotal int
	// Missing lists referenced chunks absent from the backend (data
	// loss); Orphans lists stored chunks no manifest references (leak,
	// harmless, reclaimed by Retain).
	Missing []Hash
	Orphans []Hash
}

// Audit recomputes chunk reference counts from every manifest in the
// backend and cross-checks them against the stored chunk set. A non-empty
// Missing list means committed state is unrecoverable.
func (s *Store) Audit() (AuditReport, error) {
	var rep AuditReport
	manifests, err := loadManifests(s.backend, s.opts.ReadWorkers)
	if err != nil {
		return rep, err
	}
	rounds := make(map[int]bool)
	refs := make(map[Hash]int)
	for _, m := range manifests {
		rounds[m.Round] = true
		rep.Manifests++
		rep.Modules += len(m.Modules)
		for _, e := range m.Modules {
			for _, c := range e.Chunks {
				refs[c.Hash]++
				rep.RefTotal++
			}
		}
	}
	rep.Rounds = len(rounds)
	rep.ChunksReferenced = len(refs)
	chunks, err := listChunks(s.backend)
	if err != nil {
		return rep, err
	}
	stored := make(map[Hash]bool, len(chunks))
	for _, h := range chunks {
		stored[h] = true
		if refs[h] == 0 {
			rep.Orphans = append(rep.Orphans, h)
		}
	}
	rep.ChunksStored = len(stored)
	for h := range refs {
		if !stored[h] {
			rep.Missing = append(rep.Missing, h)
		}
	}
	sortHashes(rep.Missing)
	sortHashes(rep.Orphans)
	return rep, nil
}

func sortHashes(hs []Hash) {
	sort.Slice(hs, func(i, j int) bool { return hs[i].String() < hs[j].String() })
}

// PhysicalBytes sums the bytes the backend holds under the cas prefixes
// (chunks + manifests). Referenced chunk sizes come from the manifests
// themselves — the codec is deterministic, so re-encoding yields the
// stored manifest length — and only orphan chunks cost a payload read.
func (s *Store) PhysicalBytes() (int64, error) {
	manifests, err := loadManifests(s.backend, s.opts.ReadWorkers)
	if err != nil {
		return 0, err
	}
	var total int64
	sizes := make(map[Hash]int64)
	for _, m := range manifests {
		total += int64(len(EncodeManifest(m)))
		for _, e := range m.Modules {
			for _, c := range e.Chunks {
				sizes[c.Hash] = int64(c.Size)
			}
		}
	}
	chunks, err := listChunks(s.backend)
	if err != nil {
		return 0, err
	}
	for _, h := range chunks {
		if n, ok := sizes[h]; ok {
			total += n
			continue
		}
		b, err := s.backend.Get(ChunkKey(h)) // orphan: size unknown without reading
		if err != nil {
			return 0, err
		}
		total += int64(len(b))
	}
	return total, nil
}
