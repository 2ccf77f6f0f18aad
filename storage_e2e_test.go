package moc_test

// End-to-end acceptance tests for the content-addressed, replicated
// checkpoint store underneath the MoC pipeline: dedup of unchanged state,
// bit-identical recovery through manifests after node failure and after
// replica loss, and refcount GC that removes only unreferenced chunks.

import (
	"math"
	"reflect"
	"testing"

	moc "moc"
	"moc/internal/storage/cas"
	"moc/internal/storage/storagetest"
)

// pecConfig checkpoints with PEC (rounds persist rotating expert subsets).
func pecConfig() moc.Config {
	return moc.Config{
		Layers: 3, Hidden: 24, Experts: 4, TopK: 2,
		Vocab: 32, Window: 6, BatchSize: 16,
		LR: 0.01, Seed: 5,
		Interval: 5, KSnapshot: 2, KPersist: 1, Variant: moc.VariantWO,
	}
}

// fullConfig checkpoints everything each round, so a recovery right after
// a checkpoint must reproduce the live state exactly.
func fullConfig() moc.Config {
	cfg := pecConfig()
	cfg.KSnapshot, cfg.KPersist = 0, 0
	cfg.Variant = moc.VariantFull
	return cfg
}

func TestConsecutiveIdenticalRoundsDedupToZeroNewBytes(t *testing.T) {
	// Two consecutive checkpoint rounds with identical state: every
	// shared chunk is persisted exactly once, so the second round writes
	// zero new chunk bytes.
	store := moc.NewMemStore()
	cfg := pecConfig()
	cfg.Interval = 0 // manual checkpoints only
	sys, err := moc.NewSystem(cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if _, err := sys.RunTo(10); err != nil {
		t.Fatal(err)
	}
	if err := sys.CheckpointNow(); err != nil { // bootstrap full round
		t.Fatal(err)
	}
	if err := sys.FlushCheckpoints(); err != nil {
		t.Fatal(err)
	}
	afterRound0 := sys.Stats()
	if err := sys.CheckpointNow(); err != nil { // identical state, PEC subset
		t.Fatal(err)
	}
	if err := sys.FlushCheckpoints(); err != nil {
		t.Fatal(err)
	}
	afterRound1 := sys.Stats()
	if afterRound1.Checkpoints != 2 {
		t.Fatalf("checkpoints %d, want 2", afterRound1.Checkpoints)
	}
	if afterRound1.LogicalBytesPersisted <= afterRound0.LogicalBytesPersisted {
		t.Fatalf("second round presented no payload: %+v", afterRound1)
	}
	if got, was := afterRound1.PhysicalBytesPersisted, afterRound0.PhysicalBytesPersisted; got != was {
		t.Fatalf("identical round wrote %d new chunk bytes", got-was)
	}
	if afterRound1.DedupRatio <= 0 {
		t.Fatalf("dedup ratio %v, want > 0", afterRound1.DedupRatio)
	}
}

// lossesClose reports near-identical evaluation metrics (recovery is
// bit-exact, so they must match to float tolerance).
func lossesClose(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestRecoverBitIdenticalThroughManifestsAfterNodeFailure(t *testing.T) {
	store := moc.NewMemStore()
	sys, err := moc.NewSystem(fullConfig(), store)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if _, err := sys.RunTo(20); err != nil {
		t.Fatal(err)
	}
	if err := sys.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	lossBefore, accBefore, err := sys.Evaluate(64)
	if err != nil {
		t.Fatal(err)
	}
	// Node failure: in-memory snapshots die, the model restores from the
	// manifest-committed checkpoint (captured at the current iteration,
	// so the restored state must match the live state bit for bit).
	if err := sys.InjectFault(); err != nil {
		t.Fatal(err)
	}
	lossAfter, accAfter, err := sys.Evaluate(64)
	if err != nil {
		t.Fatal(err)
	}
	if !lossesClose(lossBefore, lossAfter) || !lossesClose(accBefore, accAfter) {
		t.Fatalf("recovery not bit-identical: loss %v->%v acc %v->%v",
			lossBefore, lossAfter, accBefore, accAfter)
	}
	// A fresh process resuming from the same store (manifest-driven
	// restore from persistent storage only) lands on the same state too.
	resume := fullConfig()
	resume.Resume = true
	sys2, err := moc.NewSystem(resume, store)
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	lossResumed, _, err := sys2.Evaluate(64)
	if err != nil {
		t.Fatal(err)
	}
	if !lossesClose(lossBefore, lossResumed) {
		t.Fatalf("resume not bit-identical: loss %v->%v", lossBefore, lossResumed)
	}
}

func TestRecoverBitIdenticalAfterReplicaBackendLoss(t *testing.T) {
	backendA := moc.NewFlakyStore(moc.NewMemStore())
	backendB := moc.NewMemStore()
	store, err := moc.NewReplicatedStore(backendA, backendB)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := moc.NewSystem(fullConfig(), store)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if _, err := sys.RunTo(20); err != nil {
		t.Fatal(err)
	}
	if err := sys.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	if err := sys.FlushCheckpoints(); err != nil {
		t.Fatal(err)
	}
	lossBefore, _, err := sys.Evaluate(64)
	if err != nil {
		t.Fatal(err)
	}
	// Lose the first replica, then a node fault: recovery must be served
	// bit-identically by the survivor.
	backendA.Fail()
	if err := sys.InjectFault(); err != nil {
		t.Fatalf("recovery with one replica down: %v", err)
	}
	lossAfter, _, err := sys.Evaluate(64)
	if err != nil {
		t.Fatal(err)
	}
	if !lossesClose(lossBefore, lossAfter) {
		t.Fatalf("replica-loss recovery not bit-identical: loss %v->%v", lossBefore, lossAfter)
	}
	// Training and checkpointing continue against the survivor; the
	// healed replica converges via anti-entropy and the store verifies.
	if _, err := sys.RunTo(30); err != nil {
		t.Fatal(err)
	}
	backendA.Heal()
	if copied, err := store.Sync(); err != nil || copied == 0 {
		t.Fatalf("anti-entropy after the outage copied %d keys (err %v), want > 0", copied, err)
	}
	if _, err := sys.VerifyStorage(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoteCachedPersistAndRecoveryEndToEnd(t *testing.T) {
	// The full storage stack under the checkpoint pipeline: CAS chunks
	// flow write-through an LRU cache into a simulated object store with
	// latency, bandwidth, multipart, and injected transient failures.
	// Persist must pay remote puts (with retries); a node-loss recovery
	// with the cache warm must pay ZERO remote gets; losing the cache
	// tier too (a replacement node) must recover bit-identically from
	// the remote alone, paying downloads.
	remoteStore, err := moc.NewRemoteStore(moc.RemoteConfig{
		LatencySeconds: 0.005,
		UploadBps:      256 << 20,
		DownloadBps:    512 << 20,
		PartSize:       2 << 10, // tiny threshold so module chunks go multipart
		FailureRate:    0.05,    // deterministic (seeded) transient failures
		Seed:           9,
		MaxRetries:     8,
	})
	if err != nil {
		t.Fatal(err)
	}
	cached, err := moc.NewCachedStore(remoteStore, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := moc.NewSystem(fullConfig(), cached)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if _, err := sys.RunTo(20); err != nil {
		t.Fatal(err)
	}
	if err := sys.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	if err := sys.FlushCheckpoints(); err != nil {
		t.Fatal(err)
	}

	// Persist-side metrics: real uploads, multipart engagement, and the
	// injected failures retried away — all deterministic under the seed.
	persisted := remoteStore.Metrics()
	if persisted.PutOps == 0 || persisted.BytesUploaded == 0 {
		t.Fatalf("no remote uploads recorded: %+v", persisted)
	}
	if persisted.MultipartPuts == 0 || persisted.PartsUploaded < 2*persisted.MultipartPuts {
		t.Fatalf("multipart path not engaged: %+v", persisted)
	}
	if persisted.InjectedFailures == 0 || persisted.Retries == 0 {
		t.Fatalf("failure injection idle at rate 0.05: %+v", persisted)
	}
	if persisted.SimSeconds <= 0 {
		t.Fatalf("no simulated persist cost: %+v", persisted)
	}

	lossBefore, _, err := sys.Evaluate(64)
	if err != nil {
		t.Fatal(err)
	}

	// Node loss with the cache warm: recovery reads every chunk from
	// the cache, performing zero remote Get ops.
	getsBefore := remoteStore.Metrics().GetOps
	if err := sys.InjectFault(); err != nil {
		t.Fatal(err)
	}
	if gets := remoteStore.Metrics().GetOps - getsBefore; gets != 0 {
		t.Fatalf("warm-cache recovery performed %d remote gets, want 0", gets)
	}
	cs := cached.CacheStats()
	if cs.Hits == 0 {
		t.Fatalf("recovery bypassed the cache: %+v", cs)
	}
	lossWarm, _, err := sys.Evaluate(64)
	if err != nil {
		t.Fatal(err)
	}
	if !lossesClose(lossBefore, lossWarm) {
		t.Fatalf("warm recovery not bit-identical: loss %v->%v", lossBefore, lossWarm)
	}

	// Replacement node: the cache tier is lost too. Resume must come
	// entirely out of the remote store — remote gets and download bytes
	// are paid, and the state is still bit-identical.
	cached.Drop()
	cold := remoteStore.Metrics()
	resume := fullConfig()
	resume.Resume = true
	sys2, err := moc.NewSystem(resume, cached)
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	after := remoteStore.Metrics()
	if after.GetOps == cold.GetOps || after.BytesDownloaded == cold.BytesDownloaded {
		t.Fatalf("cold recovery paid no remote reads: %+v -> %+v", cold, after)
	}
	lossCold, _, err := sys2.Evaluate(64)
	if err != nil {
		t.Fatal(err)
	}
	if !lossesClose(lossBefore, lossCold) {
		t.Fatalf("cold remote recovery not bit-identical: loss %v->%v", lossBefore, lossCold)
	}
}

func TestGCRemovesOnlyUnreferencedChunks(t *testing.T) {
	// PEC rounds persist rotating subsets, so after retention the GC has
	// real superseded entries to drop — but nothing recovery needs.
	// Storage-only recovery keeps the restored state independent of
	// which node a fault hits.
	store := moc.NewMemStore()
	sys, err := moc.NewSystem(pecConfig(), store)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if _, err := sys.RunTo(60); err != nil {
		t.Fatal(err)
	}
	// Pin the model to the recovered state so both fault injections
	// below restore the identical assembly.
	if err := sys.InjectFault(); err != nil {
		t.Fatal(err)
	}
	lossBefore, _, err := sys.Evaluate(64)
	if err != nil {
		t.Fatal(err)
	}
	verifiedBefore, err := sys.VerifyStorage()
	if err != nil {
		t.Fatal(err)
	}
	removed, err := sys.CompactStorage()
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("gc found nothing despite superseded PEC rounds")
	}
	// Everything recovery could need still verifies — VerifyStorage's
	// refcount audit fails on any missing referenced chunk — and the
	// recoverable set is unchanged.
	verifiedAfter, err := sys.VerifyStorage()
	if err != nil {
		t.Fatalf("verify after gc: %v", err)
	}
	if verifiedAfter != verifiedBefore {
		t.Fatalf("recoverable set changed: %d -> %d blobs", verifiedBefore, verifiedAfter)
	}
	if err := sys.InjectFault(); err != nil {
		t.Fatal(err)
	}
	lossAfter, _, err := sys.Evaluate(64)
	if err != nil {
		t.Fatal(err)
	}
	if !lossesClose(lossBefore, lossAfter) {
		t.Fatalf("recovery changed by gc: loss %v->%v", lossBefore, lossAfter)
	}
}

// The benchmark's two layered stacks keep Put's contract end to end:
// cold_recover's cache over a remote store, and fleet_mixed's shard
// router over replicated pairs, bare and behind a read tier node.
func TestPublicCompositionsDoNotRetainPuts(t *testing.T) {
	remote, err := moc.NewRemoteStoreOver(moc.NewMemStore(), moc.RemoteConfig{MaxConcurrent: 8})
	if err != nil {
		t.Fatal(err)
	}
	cached, err := moc.NewCachedStore(remote, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]moc.PersistStore, 4)
	for i := range shards {
		if shards[i], err = moc.NewReplicatedStore(moc.NewMemStore(), moc.NewMemStore()); err != nil {
			t.Fatal(err)
		}
	}
	sharded, err := moc.NewShardedStore(moc.ShardConfig{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	tier, err := moc.NewReadTier(sharded, moc.ReadTierConfig{})
	if err != nil {
		t.Fatal(err)
	}
	node, err := tier.NewNode()
	if err != nil {
		t.Fatal(err)
	}
	for name, store := range map[string]moc.PersistStore{
		"cold_recover": cached, "fleet_mixed": sharded, "fleet_mixed/read-tier": node,
	} {
		t.Run(name, func(t *testing.T) { storagetest.CheckPutDoesNotRetain(t, store) })
	}
}

// A System writing through a backend that reports no request cost —
// MemStore, FSStore, a wrapper that does not forward the report — cuts
// fixed chunks at cas.DefaultChunkSize, and CDC keeps its default target
// even over a remote: every manifest entry it commits is the one a
// default-options store cuts from the same payload.
func TestSystemKeepsDefaultChunksWithoutACost(t *testing.T) {
	fs, err := moc.NewFSStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	remote, err := moc.NewRemoteStoreOver(moc.NewMemStore(), moc.RemoteConfig{LatencySeconds: 0.004})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		store    moc.PersistStore
		chunking moc.Chunking
	}{
		{"mem", moc.NewMemStore(), moc.ChunkingFixed},
		{"fs", fs, moc.ChunkingFixed},
		{"mem-cdc", moc.NewMemStore(), moc.ChunkingCDC},
		{"remote-cdc", remote, moc.ChunkingCDC},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := moc.Config{
				Layers: 2, Hidden: 64, Experts: 4, TopK: 2, BatchSize: 8,
				Interval: 4, Variant: moc.VariantFull, Chunking: tc.chunking, Seed: 3,
			}
			sys, err := moc.NewSystemOn(cfg, tc.store, moc.PretrainCorpus(256))
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.CheckpointNow(); err != nil {
				t.Fatal(err)
			}
			if err := sys.Close(); err != nil {
				t.Fatal(err)
			}
			mode := cas.ChunkingFixed
			if tc.chunking == moc.ChunkingCDC {
				mode = cas.ChunkingCDC
			}
			store, err := cas.Open(tc.store, cas.Options{})
			if err != nil {
				t.Fatal(err)
			}
			m := store.ManifestsForRound(0)[0]
			multi := 0
			for _, e := range m.Modules {
				blob, err := store.ReadModule(0, e.Module)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := cas.Open(moc.NewMemStore(), cas.Options{Chunking: mode})
				if err != nil {
					t.Fatal(err)
				}
				want, err := ref.WriteRound(0, map[string][]byte{e.Module: blob})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(e.Chunks, want.Modules[0].Chunks) {
					t.Fatalf("%s: %d chunks, a default-options store cuts %d", e.Module, len(e.Chunks), len(want.Modules[0].Chunks))
				}
				if len(e.Chunks) > 1 {
					multi++
				}
			}
			if multi == 0 {
				t.Fatalf("no module spans two chunks: the test cannot tell chunk sizes apart")
			}
		})
	}
}

// costless hides a backend's request cost, as a wrapper that forwards
// only the PersistStore methods does: a System writing through it sizes
// its chunks for memory speed.
type costless struct{ moc.PersistStore }

// A cold resume issues one remote Get per manifest and one per chunk of
// every module it recovers, and the chunk count follows from the module
// sizes and the chunk size C the writing System chose: fixed chunking
// cuts L bytes into ⌊L/C⌋ chunks when the remainder is under C/4 (it
// rides in the last full chunk), ⌈L/C⌉ otherwise, none for an empty
// payload and at least one for any other. The model is the benchmark's
// cold_recover shape. Written straight through the remote, C is the
// remote's bandwidth-delay rule and every module is one chunk; written
// through a wrapper that hides the cost, C is 64 KiB, and the expert,
// embedding and head payloads run a few hundred bytes to 2 KB past a
// multiple of it, which exercises the tail rule. SleepScale 0 keeps the
// remote's clock virtual.
func TestColdResumeGetsFollowModuleSizes(t *testing.T) {
	for _, tc := range []struct {
		name      string
		wrap      func(moc.PersistStore) moc.PersistStore
		chunkSize int
		tailRule  bool
	}{
		{"remote", func(s moc.PersistStore) moc.PersistStore { return s }, cas.MaxCostChunkSize, false},
		{"no-cost", func(s moc.PersistStore) moc.PersistStore { return costless{s} }, cas.DefaultChunkSize, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem := moc.NewMemStore()
			remote, err := moc.NewRemoteStoreOver(mem, moc.RemoteConfig{LatencySeconds: 0.004, MaxConcurrent: 8})
			if err != nil {
				t.Fatal(err)
			}
			backend := tc.wrap(remote)
			if c := (cas.Options{}).SizeChunksFor(backend).ChunkSize; c != tc.chunkSize {
				t.Fatalf("the rule sizes chunks at %d over this stack, want %d", c, tc.chunkSize)
			}
			cfg := moc.Config{
				Layers: 2, Hidden: 64, Experts: 16, TopK: 2, BatchSize: 8, AuxLossCoeff: 0.01,
				KSnapshot: 4, KPersist: 2, TwoLevelRecovery: true, Interval: 4, Seed: 7,
			}
			corpus := moc.PretrainCorpus(256)
			sys, err := moc.NewSystemOn(cfg, backend, corpus)
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.CheckpointNow(); err != nil { // the full bootstrap round
				t.Fatal(err)
			}
			if _, err := sys.RunTo(16); err != nil {
				t.Fatal(err)
			}
			if err := sys.FlushCheckpoints(); err != nil {
				t.Fatal(err)
			}
			if err := sys.Close(); err != nil {
				t.Fatal(err)
			}

			// The prediction, from the committed manifests: a resume reads
			// every module's newest copy. Every chunk the System cut shows
			// the size it chose.
			store, err := cas.Open(mem, cas.Options{})
			if err != nil {
				t.Fatal(err)
			}
			manifests := store.Manifests()
			newest := map[string]int{}
			size := map[string]int64{}
			c := int64(tc.chunkSize)
			for _, m := range manifests {
				for _, e := range m.Modules {
					if r, ok := newest[e.Module]; !ok || m.Round > r {
						newest[e.Module], size[e.Module] = m.Round, e.Size
					}
					for i, ref := range e.Chunks {
						if last := i == len(e.Chunks)-1; !last && int64(ref.Size) != c || last && 4*int64(ref.Size) >= 5*c {
							t.Fatalf("round %d %s chunk %d/%d is %d bytes; chunk size %d", m.Round, e.Module, i, len(e.Chunks), ref.Size, c)
						}
					}
				}
			}
			want, everyTailAChunk := int64(len(manifests)), int64(len(manifests))
			for _, l := range size {
				n := l / c
				if l%c >= c/4 || n == 0 && l > 0 {
					n++
				}
				want += n
				everyTailAChunk += (l + c - 1) / c
			}
			if tc.tailRule && everyTailAChunk == want {
				t.Fatalf("no module of %d has a short tail: the test no longer exercises the tail rule", len(size))
			}
			if !tc.tailRule && want != int64(len(manifests)+len(size)) {
				t.Fatalf("%d manifests and %d modules predict %d Gets; at chunk size %d every module should be one chunk", len(manifests), len(size), want, c)
			}

			remote.ResetMetrics()
			cfg.Resume = true
			fresh, err := moc.NewSystemOn(cfg, backend, corpus)
			if err != nil {
				t.Fatal(err)
			}
			defer fresh.Close()
			if got := remote.Metrics().GetOps; got != want {
				t.Fatalf("cold resume issued %d remote Gets; %d manifests and %d module sizes predict %d (%d with every tail a chunk of its own)",
					got, len(manifests), len(size), want, everyTailAChunk)
			}
			if it := fresh.Iteration(); it != 16 {
				t.Fatalf("resumed at iteration %d, want 16", it)
			}
		})
	}
}
