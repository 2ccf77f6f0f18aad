// Command mocckpt inspects, verifies, and garbage-collects MoC
// checkpoint directories (the content-addressed store layout written by
// moc.NewFSStore + System):
//
//	mocckpt -dir /path/to/ckpts list     # rounds, modules, volumes
//	mocckpt -dir /path/to/ckpts inspect  # chunk-level detail, dedup stats,
//	                                     # chunking mode + chunk-size histogram
//	mocckpt -dir /path/to/ckpts verify   # read back + refcount audit
//	mocckpt -dir /path/to/ckpts gc       # refcount GC of superseded state
//	mocckpt -dir /path/to/ckpts stats    # storage-stack replay: dedup,
//	                                     # cache hit rate, remote op costs
//	mocckpt -dir /path/to/ckpts restore  # many-reader restore probe:
//	                                     # per-tier hit ratios, p50/p99
//	                                     # time-to-restored-model
//	mocckpt -dir /path/to/ckpts jobs     # fleet job registry, per-job
//	                                     # volumes, cross-job dedup ratio
//	mocckpt -dir /path/to/ckpts top      # metrics-registry snapshot after
//	                                     # a read replay; -watch samples
//	                                     # per-tier counter rates live
//	mocckpt -dir /path/to/ckpts -shards 4 shards
//	                                     # per-shard distribution, balance
//	                                     # factor, misplaced keys
//	mocckpt chaos -preempt 100:30:3 ...  # validate a timed fault scenario
//	                                     # and print its replay timeline
//	                                     # (see chaos.go)
//	mocckpt trace -o trace.json          # persist/restore probe under the
//	                                     # span tracer; exports a Chrome
//	                                     # trace-event timeline (see top.go)
//
// Global flags go before the subcommand (mocckpt -h lists them):
// -shards N opens the shard-000, shard-001, ... subdirectories a
// sharded store writes as one store, -writer narrows list, inspect and
// stats to one job of a multi-job store, and -cache-mb, -latency-ms,
// -upload-mbps and -download-mbps shape the simulated storage stack
// that stats, restore and top replay through. "compact" is an alias of
// "gc". Each subcommand's function documents what it prints.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"moc/internal/core"
	"moc/internal/simtime"
	"moc/internal/storage"
	"moc/internal/storage/cache"
	"moc/internal/storage/cas"
	"moc/internal/storage/fleet"
	"moc/internal/storage/readserve"
	"moc/internal/storage/remote"
	"moc/internal/storage/replica"
	"moc/internal/storage/shard"
)

// cli is one invocation: where output goes, the global flags, the
// arguments after the subcommand, and — for a subcommand that reads a
// checkpoint directory — the opened store.
type cli struct {
	out, stderr                         io.Writer
	dir, writer                         string
	shards, cacheMB, l1MB               int
	latencyMS, uploadMBps, downloadMBps float64
	readers, restores, ticks            int
	watch                               bool
	intervalS                           float64
	args                                []string

	store  storage.PersistStore
	router *shard.Router // nil unless -shards opened a sharded store
}

// subcommands is every mocckpt subcommand. One with store set reads the
// -dir store and takes no arguments (its flags go before the
// subcommand); one without parses its own flags from c.args.
var subcommands = map[string]struct {
	store bool
	run   func(c *cli) error
}{
	"list":    {true, func(c *cli) error { return list(c, false) }},
	"inspect": {true, func(c *cli) error { return list(c, true) }},
	"verify":  {true, verify},
	"gc":      {true, gc},
	"compact": {true, gc},
	"stats":   {true, stats},
	"restore": {true, restoreProbe},
	"top":     {true, runTop},
	"jobs":    {true, jobs},
	"shards":  {true, shardsView},
	"chaos":   {false, runChaos},
	"trace":   {false, runTrace},
}

const usage = "usage: mocckpt [flags] -dir <path> {list|inspect|verify|gc|stats|restore|top|jobs|shards} | mocckpt chaos [flags] | mocckpt trace [flags]"

// usageError is a malformed command line: exit 2 rather than 1.
type usageError struct{ error }

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	c := &cli{out: stdout, stderr: stderr}
	fs := flag.NewFlagSet("mocckpt", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&c.dir, "dir", "", "checkpoint directory (FSStore root)")
	fs.IntVar(&c.shards, "shards", 0, "open <dir>/shard-000..shard-NNN as one consistent-hash sharded store (0 = unsharded)")
	fs.StringVar(&c.writer, "writer", "", "list/inspect/stats: restrict to one writer's manifests")
	fs.IntVar(&c.cacheMB, "cache-mb", 64, "stats: LRU chunk-cache capacity in MiB; restore: shared L2 capacity")
	fs.Float64Var(&c.latencyMS, "latency-ms", 20, "stats/restore/top: remote per-request latency in ms")
	fs.Float64Var(&c.uploadMBps, "upload-mbps", 256, "stats/restore/top: remote upload bandwidth in MiB/s")
	fs.Float64Var(&c.downloadMBps, "download-mbps", 512, "stats/restore/top: remote download bandwidth in MiB/s")
	fs.IntVar(&c.readers, "readers", 8, "restore: concurrent reader nodes")
	fs.IntVar(&c.restores, "restores", 3, "restore: sequential restores per reader")
	fs.IntVar(&c.l1MB, "l1-mb", 16, "restore: per-reader L1 cache capacity in MiB")
	fs.BoolVar(&c.watch, "watch", false, "top: sample the registry repeatedly while a replay loop drives load (default one-shot)")
	fs.Float64Var(&c.intervalS, "interval", 1.0, "top: -watch sampling interval in seconds")
	fs.IntVar(&c.ticks, "ticks", 5, "top: -watch samples before exiting")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	name := fs.Arg(0)
	sub, ok := subcommands[name]
	if !ok {
		if name != "" {
			fmt.Fprintf(stderr, "mocckpt: unknown command %q\n", name)
		}
		fmt.Fprintln(stderr, usage)
		return 2
	}
	c.args = fs.Args()[1:]
	if sub.store {
		if c.dir == "" {
			fmt.Fprintln(stderr, usage)
			return 2
		}
		// Go's flag parsing stops at the first positional argument, so
		// flags placed after the subcommand would be silently ignored —
		// and the cost-model numbers would silently lie. Reject them.
		if len(c.args) > 0 {
			fmt.Fprintf(stderr, "mocckpt: unexpected arguments after %q: %v (flags go before the subcommand)\n", name, c.args)
			return 2
		}
		var err error
		if c.store, c.router, err = openStore(c.dir, c.shards); err != nil {
			fmt.Fprintln(stderr, "mocckpt:", err)
			return 1
		}
	}
	if err := sub.run(c); err != nil {
		fmt.Fprintln(stderr, "mocckpt:", err)
		if errors.As(err, new(usageError)) {
			return 2
		}
		return 1
	}
	return 0
}

// openStore opens the directory as a plain FSStore, or — with -shards
// N > 1 — as the consistent-hash router over its shard-%03d
// subdirectories (the layout a fleet over NewShardedStore FSStore
// shards writes). Shard names derive from the directory names, so the
// router places every key exactly where the writing process did.
func openStore(dir string, shards int) (storage.PersistStore, *shard.Router, error) {
	if shards <= 1 {
		s, err := storage.NewFSStore(dir)
		return s, nil, err
	}
	stores := make([]storage.PersistStore, shards)
	for i := range stores {
		fs, err := storage.NewFSStore(filepath.Join(dir, fmt.Sprintf("shard-%03d", i)))
		if err != nil {
			return nil, nil, err
		}
		stores[i] = fs
	}
	r, err := shard.New(shard.Config{Stores: stores})
	if err != nil {
		return nil, nil, err
	}
	return r, r, nil
}

// shardsView prints each shard's slice of the keyspace: chunk counts
// and bytes, manifests, the balance factor, and misplaced keys — keys
// stored on a shard the ring no longer routes them to, the footprint an
// interrupted rebalance leaves behind.
func shardsView(c *cli) error {
	r := c.router
	if r == nil {
		return fmt.Errorf("the shards view needs -shards N (N > 1) to open a sharded store")
	}
	fmt.Fprintf(c.out, "%-12s %-8s %-14s %-10s %-8s %s\n",
		"shard", "chunks", "chunk-bytes", "manifests", "other", "misplaced")
	var totalBytes, maxBytes int64
	var totalMisplaced int
	n := r.ShardCount()
	for i := 0; i < n; i++ {
		keys, err := r.Shard(i).Keys("")
		if err != nil {
			return fmt.Errorf("shard %s: %w", r.ShardName(i), err)
		}
		var chunks, manifests, other, misplaced int
		var bytes int64
		for _, k := range keys {
			switch {
			case strings.HasPrefix(k, cas.ChunkPrefix):
				chunks++
				if blob, err := r.Shard(i).Get(k); err == nil {
					bytes += int64(len(blob))
				}
			case strings.HasPrefix(k, cas.ManifestPrefix):
				manifests++
			default:
				other++
			}
			if r.Locate(k) != i {
				misplaced++
			}
		}
		totalBytes += bytes
		totalMisplaced += misplaced
		if bytes > maxBytes {
			maxBytes = bytes
		}
		fmt.Fprintf(c.out, "%-12s %-8d %-14d %-10d %-8d %d\n",
			r.ShardName(i), chunks, bytes, manifests, other, misplaced)
	}
	if totalBytes > 0 {
		mean := float64(totalBytes) / float64(n)
		fmt.Fprintf(c.out, "\nbalance factor: %.2f (max/mean chunk bytes; 1.00 = perfectly even)\n",
			float64(maxBytes)/mean)
	}
	if totalMisplaced > 0 {
		fmt.Fprintf(c.out, "%d keys sit on shards the ring does not route them to — an interrupted\nrebalance; re-run the membership change and Rebalance to finish it\n", totalMisplaced)
	}
	return nil
}

// list prints the per-round manifest summary; detailed mode adds
// per-module chunk breakdowns and store-wide dedup accounting.
func list(c *cli, detailed bool) error {
	cs, err := cas.Open(c.store, cas.Options{})
	if err != nil {
		return err
	}
	all, err := c.manifests(cs)
	if err != nil || len(all) == 0 {
		return err
	}
	fmt.Fprintf(c.out, "%-8s %-10s %-8s %-8s %-12s %s\n", "round", "writers", "modules", "chunks", "bytes", "status")
	var acct dedupAccounting
	for len(all) > 0 {
		n := 1
		for n < len(all) && all[n].Round == all[0].Round {
			n++
		}
		ms := all[:n]
		all = all[n:]
		var modules, chunks int
		var logical int64
		for _, m := range ms {
			modules += len(m.Modules)
			logical += m.LogicalBytes()
			for _, e := range m.Modules {
				chunks += len(e.Chunks)
			}
			acct.add(m)
		}
		fmt.Fprintf(c.out, "%-8d %-10d %-8d %-8d %-12d complete\n", ms[0].Round, len(ms), modules, chunks, logical)
		if detailed {
			for _, m := range ms {
				for _, e := range m.Modules {
					fmt.Fprintf(c.out, "    %-40s %8d bytes  %4d chunks  (writer %s)\n",
						e.Module, e.Size, len(e.Chunks), m.Writer)
				}
			}
		}
	}
	logical, physical := acct.totals()
	fmt.Fprintf(c.out, "\n%d unique chunks; ", len(acct.refs))
	printDedupLine(c.out, logical, physical)
	acct.printWriterBreakdown(c.out)
	if detailed {
		fmt.Fprintf(c.out, "chunking: %s\n", acct.chunkingModes())
		acct.printHistogram(c.out)
	}
	return nil
}

// manifests returns the store's manifests in (round, writer) order,
// only -writer's when it is set, and says so when there are none.
func (c *cli) manifests(cs *cas.Store) ([]*cas.Manifest, error) {
	all := cs.Manifests()
	kept := all[:0]
	for _, m := range all {
		if c.writer == "" || m.Writer == c.writer {
			kept = append(kept, m)
		}
	}
	switch {
	case len(all) == 0:
		fmt.Fprintln(c.out, "no checkpoints")
	case len(kept) == 0:
		return nil, fmt.Errorf("no manifests for writer %q", c.writer)
	}
	return kept, nil
}

// jobs prints the fleet job registry and each job's storage footprint
// on the shared store, ending with the cross-job dedup summary: the
// chunk volume the shared store holds versus what the same jobs would
// hold on per-job independent stores.
func jobs(c *cli) error {
	svc, err := fleet.Open(c.store, fleet.Config{})
	if err != nil {
		return err
	}
	st, err := svc.Stats()
	if err != nil {
		return err
	}
	if len(st.Jobs) == 0 {
		fmt.Fprintln(c.out, "no jobs (empty store)")
		return nil
	}
	if len(svc.Jobs()) == 0 {
		fmt.Fprintln(c.out, "no fleet registry; showing per-writer footprints")
	}
	now := simtime.WallNow()
	fmt.Fprintf(c.out, "%-16s %-16s %-6s %-14s %-8s %-14s %-14s %s\n",
		"job", "parent", "epoch", "lease", "rounds", "logical", "chunk-bytes", "exclusive")
	for _, j := range st.Jobs {
		id, parent := j.ID, j.Parent
		if !j.Registered {
			id = j.ID + "*" // unregistered writer sharing the store
		}
		if parent == "" {
			parent = "-"
		}
		// The lease column distinguishes a live lease (time remaining
		// before liveness runs out) from the orphan state a crash or
		// preemption leaves: EXPIRED means the job was attached at least
		// once, its lease ran out, and nobody has adopted it.
		lease := "-"
		switch {
		case j.LeaseHeld:
			left := time.Unix(0, j.LeaseExpiresUnixNano).Sub(now).Truncate(time.Second)
			lease = fmt.Sprintf("held %s", left)
		case j.Registered && j.Epoch > 0:
			lease = "EXPIRED"
		}
		fmt.Fprintf(c.out, "%-16s %-16s %-6d %-14s %-8d %-14d %-14d %d\n",
			id, parent, j.Epoch, lease, j.Rounds, j.LogicalBytes, j.ChunkBytes, j.ExclusiveChunkBytes)
	}
	fmt.Fprintf(c.out, "\nshared store: %d chunk bytes; independent per-job stores would hold %d",
		st.PhysicalChunkBytes, st.IndependentChunkBytes)
	if st.IndependentChunkBytes > 0 {
		fmt.Fprintf(c.out, " (cross-job dedup %.1f%%)", 100*st.CrossJobDedupRatio)
	}
	fmt.Fprintln(c.out)
	fmt.Fprint(c.out, "dedup: ")
	printDedupLine(c.out, st.LogicalBytes, st.PhysicalChunkBytes)
	return nil
}

// verify reads back every module's newest copy through a recovery
// agent, audits chunk refcounts, and re-hashes every stored chunk.
func verify(c *cli) error {
	agent, err := core.NewAgent(storage.NewSnapshotStore(), c.store, 2)
	if err != nil {
		return err
	}
	defer agent.Close()
	n, rep, err := agent.VerifyAudit()
	if err != nil {
		return err
	}
	fmt.Fprintf(c.out, "OK: %d recoverable blobs verified (latest complete round %d)\n",
		n, agent.LatestCompleteRound())
	fmt.Fprintf(c.out, "refcount audit: %d rounds, %d manifests, %d module entries\n",
		rep.Rounds, rep.Manifests, rep.Modules)
	fmt.Fprintf(c.out, "  %d chunks stored, %d referenced (%d references total)\n",
		rep.ChunksStored, rep.ChunksReferenced, rep.RefTotal)
	if len(rep.Orphans) > 0 {
		fmt.Fprintf(c.out, "  %d orphan chunks (unreferenced; reclaim with 'gc')\n", len(rep.Orphans))
	}
	// The recoverable-blob pass reads each module NAME's newest copy;
	// on a multi-job store several writers reuse the same names, so
	// chunks exclusive to another job's lineage are never read back.
	// Re-hash every stored chunk so corruption anywhere is caught.
	return verifyChunks(c.out, c.store)
}

// verifyChunks re-hashes every stored chunk against its content
// address — the exhaustive sweep the fleet scrub daemon runs a bounded
// window of per pass.
func verifyChunks(w io.Writer, store storage.PersistStore) error {
	keys, err := store.Keys(cas.ChunkPrefix)
	if err != nil {
		return err
	}
	var corrupt []string
	for _, k := range keys {
		want, err := cas.ParseHash(strings.TrimPrefix(k, cas.ChunkPrefix))
		if err != nil {
			return fmt.Errorf("foreign key %q under chunk prefix", k)
		}
		blob, err := store.Get(k)
		if err != nil {
			return fmt.Errorf("read chunk %s: %w", k, err)
		}
		if cas.HashBytes(blob) != want {
			corrupt = append(corrupt, want.String())
		}
	}
	if len(corrupt) > 0 {
		return fmt.Errorf("%d of %d stored chunks fail their content address (first %s)",
			len(corrupt), len(keys), corrupt[0])
	}
	fmt.Fprintf(w, "  %d stored chunks re-hashed against their addresses\n", len(keys))
	return nil
}

// gc is the offline collection: every writer keeps, per module, its
// newest persisted copy (what that writer's recovery would read) plus
// its latest round's manifest as the completeness anchor; chunks then
// live by refcount across all surviving manifests. The liveness is
// writer-scoped — on a multi-job store, one job's rounds never count
// against another's, matching the fleet service's Retain — but unlike
// the online service this admin tool judges every writer: the store is
// assumed quiesced.
func gc(c *cli) error {
	cs, err := cas.Open(c.store, cas.Options{})
	if err != nil {
		return err
	}
	before, err := cs.PhysicalBytes()
	if err != nil {
		return err
	}
	live, keepEmpty := cas.NewestLiveness(cs.Manifests(), nil)
	st, err := cs.RetainScoped(live, keepEmpty)
	if err != nil {
		return err
	}
	after, err := cs.PhysicalBytes()
	if err != nil {
		return err
	}
	fmt.Fprintf(c.out, "gc: %d manifest entries dropped, %d manifests deleted, %d chunks swept\n",
		st.EntriesDropped, st.ManifestsDeleted, st.ChunksDeleted)
	fmt.Fprintf(c.out, "    %d -> %d physical bytes\n", before, after)
	return nil
}

// dedupAccounting accumulates chunk references across manifests: chunks
// shared between rounds (or writers) are the dedup evidence.
type dedupAccounting struct {
	refs      map[cas.Hash]int64
	chunkSize map[cas.Hash]int64
	rounds    map[int]bool
	modes     map[string]int // manifest count per chunking mode
	writers   map[string]*writerAcct
	modules   int
	manifests int
}

// writerAcct is one writer's share of the accounting — the per-job view
// of a multi-writer store.
type writerAcct struct {
	manifests int
	modules   int
	logical   int64
	chunks    map[cas.Hash]int64
}

func (d *dedupAccounting) add(m *cas.Manifest) {
	if d.refs == nil {
		d.refs = map[cas.Hash]int64{}
		d.chunkSize = map[cas.Hash]int64{}
		d.rounds = map[int]bool{}
		d.modes = map[string]int{}
		d.writers = map[string]*writerAcct{}
	}
	d.rounds[m.Round] = true
	d.manifests++
	d.modules += len(m.Modules)
	d.modes[fmt.Sprintf("%s (manifest v%d)", m.Chunking, m.Version)]++
	w := d.writers[m.Writer]
	if w == nil {
		w = &writerAcct{chunks: map[cas.Hash]int64{}}
		d.writers[m.Writer] = w
	}
	w.manifests++
	w.modules += len(m.Modules)
	w.logical += m.LogicalBytes()
	for _, e := range m.Modules {
		for _, c := range e.Chunks {
			d.refs[c.Hash]++
			d.chunkSize[c.Hash] = int64(c.Size)
			w.chunks[c.Hash] = int64(c.Size)
		}
	}
}

// printWriterBreakdown prints one line per writer — the per-job view of
// a multi-job store — with each writer's unique chunk bytes and the
// subset no other writer shares. Single-writer stores print nothing.
func (d *dedupAccounting) printWriterBreakdown(w io.Writer) {
	if len(d.writers) <= 1 {
		return
	}
	chunkWriters := map[cas.Hash]int{}
	for _, wa := range d.writers {
		for h := range wa.chunks {
			chunkWriters[h]++
		}
	}
	names := make([]string, 0, len(d.writers))
	for name := range d.writers {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "per-writer breakdown (%d writers share the chunk namespace):\n", len(names))
	for _, name := range names {
		wa := d.writers[name]
		var unique, exclusive int64
		for h, size := range wa.chunks {
			unique += size
			if chunkWriters[h] == 1 {
				exclusive += size
			}
		}
		fmt.Fprintf(w, "  %-24s %3d manifests  %4d modules  %12d logical  %12d chunk bytes (%d exclusive)\n",
			name, wa.manifests, wa.modules, wa.logical, unique, exclusive)
	}
}

// chunkingModes names the chunker(s) that wrote the store's manifests —
// normally one, but a store migrated between modes shows both.
func (d *dedupAccounting) chunkingModes() string {
	names := make([]string, 0, len(d.modes))
	for name := range d.modes {
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, name := range names {
		parts[i] = fmt.Sprintf("%s × %d", name, d.modes[name])
	}
	return strings.Join(parts, ", ")
}

// printHistogram prints a power-of-two histogram of unique chunk sizes.
func (d *dedupAccounting) printHistogram(w io.Writer) {
	if len(d.chunkSize) == 0 {
		return
	}
	buckets := map[int]int{} // log2 bucket -> unique chunk count
	maxCount := 0
	for _, size := range d.chunkSize {
		b := 0
		for s := size; s > 1; s >>= 1 {
			b++
		}
		buckets[b]++
		if buckets[b] > maxCount {
			maxCount = buckets[b]
		}
	}
	order := make([]int, 0, len(buckets))
	for b := range buckets {
		order = append(order, b)
	}
	sort.Ints(order)
	fmt.Fprintln(w, "unique chunk sizes:")
	for _, b := range order {
		bar := strings.Repeat("#", (buckets[b]*40+maxCount-1)/maxCount)
		fmt.Fprintf(w, "  %10s–%-10s %6d %s\n", sizeLabel(1<<b), sizeLabel(1<<(b+1)), buckets[b], bar)
	}
}

// sizeLabel formats a byte count compactly (1.0K, 64K, 2.0M).
func sizeLabel(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%gM", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%gK", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// totals returns the referenced (logical) and unique (physical) chunk
// byte volumes.
func (d *dedupAccounting) totals() (logical, physical int64) {
	for h, n := range d.refs {
		logical += n * d.chunkSize[h]
		physical += d.chunkSize[h]
	}
	return logical, physical
}

// printDedupLine prints "L logical -> P physical chunk bytes (dedup X%)".
func printDedupLine(w io.Writer, logical, physical int64) {
	fmt.Fprintf(w, "%d logical -> %d physical chunk bytes", logical, physical)
	if logical > 0 {
		fmt.Fprintf(w, " (dedup %.1f%%)", 100*float64(logical-physical)/float64(logical))
	}
	fmt.Fprintln(w)
}

// stats replays every committed module through the simulated storage
// stack — the directory as an object store with a cost model, fronted by
// an LRU chunk cache — and prints dedup, cache, and remote counters.
// The first pass is the cold-cache recovery; the second replays it warm.
// -writer restricts the accounting and the replay to one writer's
// manifests.
func stats(c *cli) error {
	rs, err := c.remote(0)
	if err != nil {
		return err
	}
	// A single-backend replica layer rides along purely for its health
	// accounting: per-backend latency EWMAs and slow-skip routing
	// counters feed the health block below.
	rep, err := replica.New(rs)
	if err != nil {
		return err
	}
	cs, err := cache.New(rep, int64(c.cacheMB)<<20)
	if err != nil {
		return err
	}
	store, err := cas.Open(cs, cas.Options{})
	if err != nil {
		return err
	}
	manifests, err := c.manifests(store)
	if err != nil || len(manifests) == 0 {
		return err
	}

	var acct dedupAccounting
	for _, m := range manifests {
		acct.add(m)
	}
	logical, physical := acct.totals()
	fmt.Fprintf(c.out, "store: %d rounds, %d manifests, %d module entries, %d unique chunks\n",
		len(acct.rounds), acct.manifests, acct.modules, len(acct.refs))
	fmt.Fprintf(c.out, "chunking: %s\n", acct.chunkingModes())
	fmt.Fprint(c.out, "dedup: ")
	printDedupLine(c.out, logical, physical)
	acct.printWriterBreakdown(c.out)
	acct.printHistogram(c.out)

	// Replay: read every module of every round, cold then warm.
	coldBase, coldCache := rs.Metrics(), cs.Stats()
	if err := replay(store, manifests); err != nil {
		return err
	}
	coldM, coldC := rs.Metrics(), cs.Stats()
	if err := replay(store, manifests); err != nil {
		return err
	}
	warmM, warmC := rs.Metrics(), cs.Stats()

	coldReads := (coldC.Hits + coldC.Misses) - (coldCache.Hits + coldCache.Misses)
	warmReads := (warmC.Hits + warmC.Misses) - (coldC.Hits + coldC.Misses)
	fmt.Fprintf(c.out, "cold replay: %d chunk reads, cache hit rate %.1f%%, %d remote gets, %d bytes down, %.3f sim s\n",
		coldReads,
		hitRate(coldC.Hits-coldCache.Hits, coldReads),
		coldM.GetOps-coldBase.GetOps,
		coldM.BytesDownloaded-coldBase.BytesDownloaded,
		coldM.SimSeconds-coldBase.SimSeconds)
	fmt.Fprintf(c.out, "warm replay: %d chunk reads, cache hit rate %.1f%%, %d remote gets, %d bytes down, %.3f sim s\n",
		warmReads,
		hitRate(warmC.Hits-coldC.Hits, warmReads),
		warmM.GetOps-coldM.GetOps,
		warmM.BytesDownloaded-coldM.BytesDownloaded,
		warmM.SimSeconds-coldM.SimSeconds)
	fmt.Fprintf(c.out, "cache: %d entries, %d/%d bytes used, %d insertions, %d evictions\n",
		warmC.Entries, warmC.Bytes, warmC.Capacity, warmC.Insertions, warmC.Evictions)
	fmt.Fprintf(c.out, "remote totals: %d gets, %d lists, %d retries, %d injected failures, %.3f sim s\n",
		warmM.GetOps, warmM.ListOps, warmM.Retries, warmM.InjectedFailures, warmM.SimSeconds)
	printHealth(c.out, warmM, rep, c.router)
	return persistProbe(c.out, store, manifests)
}

// remote wraps the -dir store in the object-store cost model stats,
// restore and top replay through. The model treats zero as "use the
// default", so a zero flag would silently charge the default cost
// instead of none: reject it rather than lie in the printed numbers.
func (c *cli) remote(sleepScale float64) (*remote.Store, error) {
	if c.cacheMB <= 0 || c.latencyMS <= 0 || c.uploadMBps <= 0 || c.downloadMBps <= 0 {
		return nil, errors.New("-cache-mb, -latency-ms, -upload-mbps and -download-mbps must be positive (use a small value like 0.001 to model a near-free remote)")
	}
	return remote.New(remote.Config{
		Inner:          c.store,
		LatencySeconds: c.latencyMS / 1000,
		UploadBps:      c.uploadMBps * (1 << 20),
		DownloadBps:    c.downloadMBps * (1 << 20),
		SleepScale:     sleepScale,
	})
}

// replay reads every module of every manifest.
func replay(store *cas.Store, manifests []*cas.Manifest) error {
	for _, m := range manifests {
		for _, e := range m.Modules {
			if _, err := store.ReadModule(m.Round, e.Module); err != nil {
				return fmt.Errorf("replay %s@%06d: %w", e.Module, m.Round, err)
			}
		}
	}
	return nil
}

// printHealth is the stats health block: the degradation counters of
// the remote cost model, the replica layer's slow-path accounting, and
// — against a sharded store — the chunk balance factor.
func printHealth(w io.Writer, m remote.Metrics, rep *replica.Store, router *shard.Router) {
	fmt.Fprintln(w, "health:")
	fmt.Fprintf(w, "  remote:  %d degraded ops, %d retries, %d injected failures\n",
		m.DegradedOps, m.Retries, m.InjectedFailures)
	lats := rep.BackendLatencies()
	parts := make([]string, len(lats))
	for i, l := range lats {
		parts[i] = fmt.Sprintf("%.2fms", l*1000)
	}
	fmt.Fprintf(w, "  replica: %d backend(s), %d slow skips, latency EWMA [%s]\n",
		len(lats), rep.SlowSkips(), strings.Join(parts, " "))
	if router == nil {
		return
	}
	balance, shards, err := shardChunkBalance(router)
	if err != nil {
		fmt.Fprintf(w, "  shards:  balance unavailable: %v\n", err)
		return
	}
	fmt.Fprintf(w, "  shards:  balance factor %.2f over %d shards (max/mean chunks; 1.00 = even)\n",
		balance, shards)
}

// shardChunkBalance lists each shard's chunk keys and reports the
// max/mean chunk-count ratio (1.0 = perfectly even).
func shardChunkBalance(r *shard.Router) (float64, int, error) {
	n := r.ShardCount()
	var total, max int
	for i := 0; i < n; i++ {
		keys, err := r.Shard(i).Keys(cas.ChunkPrefix)
		if err != nil {
			return 0, n, fmt.Errorf("shard %s: %w", r.ShardName(i), err)
		}
		total += len(keys)
		if len(keys) > max {
			max = len(keys)
		}
	}
	if total == 0 {
		return 1, n, nil
	}
	return float64(max) / (float64(total) / float64(n)), n, nil
}

// persistProbe measures the persist pipeline on this store's own data:
// the newest round's modules are written into a fresh in-memory store
// (same chunking mode) twice. The first write chunks, hashes, and puts
// everything — the pipeline's cold MB/s; the second presents
// byte-identical payloads, so it exercises the unchanged-module fast
// path. The stage counters printed are the store's pipeline telemetry.
func persistProbe(w io.Writer, store *cas.Store, manifests []*cas.Manifest) error {
	newest := manifests[len(manifests)-1]
	mods, err := store.ReadRound(newest.Round)
	if err != nil {
		return fmt.Errorf("persist probe: read round %06d: %w", newest.Round, err)
	}
	if len(mods) == 0 {
		return nil
	}
	var logical int64
	for _, blob := range mods {
		logical += int64(len(blob))
	}
	probe, err := cas.Open(storage.NewMemStore(), cas.Options{Chunking: newest.Chunking})
	if err != nil {
		return fmt.Errorf("persist probe: %w", err)
	}
	start := simtime.WallNow()
	if _, err := probe.WriteRound(0, mods); err != nil {
		return fmt.Errorf("persist probe: %w", err)
	}
	cold := simtime.WallSince(start)
	start = simtime.WallNow()
	if _, err := probe.WriteRound(1, mods); err != nil {
		return fmt.Errorf("persist probe: %w", err)
	}
	unchanged := simtime.WallSince(start)
	st := probe.Stats()
	fmt.Fprintf(w, "persist probe (round %06d replayed into a fresh %s-chunked memory store):\n",
		newest.Round, newest.Chunking)
	fmt.Fprintf(w, "  cold round:      %8.1f MB/s (%d modules, %d bytes, every chunk new)\n",
		mbps(logical, cold), len(mods), logical)
	fmt.Fprintf(w, "  unchanged round: %8.1f MB/s (whole-module fast path, zero chunk hashes)\n",
		mbps(logical, unchanged))
	fmt.Fprintf(w, "  pipeline: %d chunks hashed, %d written, %d deduped, %d modules skipped unchanged\n",
		st.ChunksHashed, st.ChunksWritten, st.ChunksDeduped, st.ModulesUnchanged)
	return nil
}

// restoreProbe drives the read-serving tier against the store's newest
// round: `readers` reader nodes — each a private L1 over one shared
// warm L2 over the directory behind the object-store cost model —
// concurrently restore the round `restores` times each. The remote
// model really sleeps its simulated cost (SleepScale 1), so the printed
// time-to-restored-model percentiles reflect the configured latency and
// bandwidth; the tier counters show where each read was absorbed.
func restoreProbe(c *cli) error {
	if c.l1MB <= 0 || c.readers <= 0 || c.restores <= 0 {
		return errors.New("restore: -l1-mb, -readers and -restores must be positive")
	}
	rs, err := c.remote(1)
	if err != nil {
		return err
	}
	tier, err := readserve.New(rs, readserve.Config{L1Bytes: int64(c.l1MB) << 20, L2Bytes: int64(c.cacheMB) << 20})
	if err != nil {
		return err
	}
	// Pick the newest round through the raw directory, without charging
	// the cost model for the index scan.
	idx, err := cas.Open(c.store, cas.Options{})
	if err != nil {
		return err
	}
	rounds := idx.Rounds()
	if len(rounds) == 0 {
		fmt.Fprintln(c.out, "no checkpoints")
		return nil
	}
	round := rounds[len(rounds)-1]

	pools := make([]*readserve.Pool, c.readers)
	for i := range pools {
		node, err := tier.NewNode()
		if err != nil {
			return err
		}
		cs, err := cas.Open(node, cas.Options{})
		if err != nil {
			return fmt.Errorf("reader %d: %w", i, err)
		}
		pool, err := readserve.NewPool(cs)
		if err != nil {
			return err
		}
		pools[i] = pool
	}

	var (
		mu        sync.Mutex
		durations []time.Duration
		firstErr  error
	)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for _, pool := range pools {
		wg.Add(1)
		go func(p *readserve.Pool) {
			defer wg.Done()
			<-start
			for r := 0; r < c.restores; r++ {
				t0 := simtime.WallNow()
				_, err := p.ReadRound(round)
				d := simtime.WallSince(t0)
				mu.Lock()
				durations = append(durations, d)
				if err != nil && firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}(pool)
	}
	close(start)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}

	sort.Slice(durations, func(i, j int) bool { return durations[i] < durations[j] })
	st := tier.Stats()
	m := rs.Metrics()
	fmt.Fprintf(c.out, "restore probe: round %06d, %d readers × %d restores (L1 %d MiB/node, L2 %d MiB shared)\n",
		round, c.readers, c.restores, c.l1MB, c.cacheMB)
	fmt.Fprintf(c.out, "time-to-restored-model: p50 %s  p99 %s  max %s\n",
		pctl(durations, 50), pctl(durations, 99), durations[len(durations)-1].Round(time.Microsecond))
	fmt.Fprintf(c.out, "L1 (per-reader): %5.1f%% hit ratio (%d hits / %d misses), %d coalesced\n",
		100*st.L1HitRatio(), st.L1Hits, st.L1Misses, st.L1Coalesced)
	fmt.Fprintf(c.out, "L2 (shared):     %5.1f%% hit ratio (%d hits / %d misses), %d coalesced, %d promotions\n",
		100*st.L2HitRatio(), st.L2Hits, st.L2Misses, st.L2Coalesced, st.Promotions)
	fmt.Fprintf(c.out, "backend: %d gets (%d cold, %d repeat), %d bytes down, %.3f sim s\n",
		st.BackendGets, m.ColdGets, m.RepeatGets, m.BytesDownloaded, m.SimSeconds)
	return nil
}

// pctl returns the p-th percentile of sorted durations, rounded for
// display.
func pctl(sorted []time.Duration, p int) time.Duration {
	i := len(sorted) * p / 100
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i].Round(time.Microsecond)
}

func mbps(n int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds() / (1 << 20)
}

func hitRate(hits, total int64) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(hits) / float64(total)
}
