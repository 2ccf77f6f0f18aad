package moc

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"moc/internal/core"
	"moc/internal/storage"
	"moc/internal/storage/cas"
	"moc/internal/train"
)

// initThenRestore is the reference a restarted or forked System must match
// bit for bit: a model initialized in full from its seed, then overwritten
// with the recovered state.
func initThenRestore(t *testing.T, tcfg train.Config, rec map[string]core.RecoveredModule) *train.Model {
	t.Helper()
	ref, err := train.New(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Restore(rec); err != nil {
		t.Fatal(err)
	}
	return ref
}

// sameNextLosses steps the system and the reference model ten iterations
// over the same batches; with gate noise on, equal losses mean equal
// weights, equal optimizer state and an equal seed stream.
func sameNextLosses(t *testing.T, what string, s *System, ref *train.Model) {
	t.Helper()
	tc := ref.Config()
	for i := 0; i < 10; i++ {
		batch := s.corpus.Batch(s.cfg.Seed, ref.Iteration(), tc.BatchSize, tc.Window)
		want, err := ref.TrainBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if got != want.Loss {
			t.Fatalf("%s: step %d loss %v, init-then-restore gives %v", what, i, got, want.Loss)
		}
	}
}

func TestResumeAndForkMatchInitThenRestore(t *testing.T) {
	cfg := overlapConfig()
	cfg.GateNoise = 0.1
	cfg.Interval, cfg.KSnapshot, cfg.KPersist = 5, 2, 1 // PEC: the newest round lacks experts
	store := NewMemStore()
	first, err := NewSystem(cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	steps(t, first, 23)
	if err := first.FlushCheckpoints(); err != nil {
		t.Fatal(err)
	}

	payload := first.model.Capture(nil, train.VariantFull())
	forkRec := make(map[string]core.RecoveredModule, len(payload))
	for k, b := range payload {
		forkRec[k] = core.RecoveredModule{Blob: b}
	}
	child, err := first.ForkOn(nil, Config{Interval: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer child.Close()
	if child.Iteration() != 23 {
		t.Fatalf("fork at iteration %d, want 23", child.Iteration())
	}
	sameNextLosses(t, "fork", child, initThenRestore(t, first.model.Config(), forkRec))
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}

	agent, err := core.NewAgent(storage.NewSnapshotStore(), store, 3)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := agent.Recover(nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := initThenRestore(t, first.model.Config(), rec)
	if err := agent.Close(); err != nil {
		t.Fatal(err)
	}
	cfg.Resume = true
	resumed, err := NewSystem(cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	if resumed.Iteration() != 20 {
		t.Fatalf("resumed at iteration %d, want 20", resumed.Iteration())
	}
	sameNextLosses(t, "resume", resumed, ref)
}

// TestInjectFaultRestoresFromLentSnapshots: a two-level recovery restores
// surviving experts straight from the snapshot level's buffers and ends the
// loan. The model it leaves — held-out loss, then five steps across the
// next checkpoint, whose captures draw on the pool the lent buffers return
// to — is the one a twin system reaches by restoring from private copies.
func TestInjectFaultRestoresFromLentSnapshots(t *testing.T) {
	cfg := overlapConfig()
	cfg.GateNoise = 0.1
	cfg.Interval, cfg.KSnapshot, cfg.KPersist = 5, 2, 1
	cfg.TwoLevelRecovery = true
	sys, ref := overlapSystem(t, cfg), overlapSystem(t, cfg)
	steps(t, sys, 23)
	steps(t, ref, 23)

	if err := sys.InjectFault(); err != nil {
		t.Fatal(err)
	}
	// The twin recovers as InjectFault does for failed node 0, by hand and
	// from copies.
	if err := ref.FlushCheckpoints(); err != nil {
		t.Fatal(err)
	}
	rec, err := ref.agent.Recover(func(module string) bool {
		name := strings.TrimSuffix(strings.TrimSuffix(module, "/w"), "/opt")
		if _, e, ok := ref.model.IsExpertModule(name); ok {
			return ref.expertNode(e) != 0
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	lent := 0
	for k, m := range rec {
		if m.FromSnapshot {
			lent++
		}
		m.Blob = append([]byte(nil), m.Blob...)
		rec[k] = m
	}
	ref.agent.ReleaseRecovered()
	if lent == 0 || lent == len(rec) {
		t.Fatalf("%d of %d modules came from the snapshot level: the recovery is not two-level", lent, len(rec))
	}
	if _, err := ref.model.Restore(rec); err != nil {
		t.Fatal(err)
	}

	if sys.Iteration() != ref.Iteration() {
		t.Fatalf("recovered to iteration %d, the twin to %d", sys.Iteration(), ref.Iteration())
	}
	gotLoss, gotAcc, err := sys.Evaluate(64)
	if err != nil {
		t.Fatal(err)
	}
	wantLoss, wantAcc, err := ref.Evaluate(64)
	if err != nil {
		t.Fatal(err)
	}
	if gotLoss != wantLoss || gotAcc != wantAcc {
		t.Fatalf("evaluates to %v/%v after the fault, restored from copies %v/%v", gotLoss, gotAcc, wantLoss, wantAcc)
	}
	for i := 0; i < 5; i++ {
		got, err := sys.Step()
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Step()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("step %d after the fault: loss %v, restored from copies %v", i, got, want)
		}
	}
	for _, s := range []*System{sys, ref} {
		if err := s.FlushCheckpoints(); err != nil {
			t.Fatal(err)
		}
	}
	if a, b := sys.Stats().Checkpoints, ref.Stats().Checkpoints; a != b || a < 5 {
		t.Fatalf("%d checkpoints after the fault, the twin %d, want the same and the one at iteration 25 among them", a, b)
	}
}

// TestStorageRecoveryDecodesFromChunkViews: on the bench's full_persist
// shape — full checkpoints, no snapshot level, so every module comes back
// from storage — an InjectFault decodes straight from the store's chunk
// views and allocates under 1 MB, where joining each module first
// allocated the model's size again (12.1 MB). A flipped bit in a chunk the
// recovery reads still fails the fault closed, with no parameter written.
func TestStorageRecoveryDecodesFromChunkViews(t *testing.T) {
	cfg := Config{Layers: 3, Hidden: 96, Experts: 8, TopK: 2, BatchSize: 4, AuxLossCoeff: 0.01, Interval: 2, Seed: 1}
	store := NewMemStore()
	sys, err := NewSystem(cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	steps(t, sys, 8)
	if err := sys.InjectFault(); err != nil { // the first fault sets up what later ones reuse
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := sys.InjectFault(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("a storage-served fault allocated %.1f MB, want under 1", float64(grew)/1e6)
	}

	cs, err := cas.Open(store, cas.Options{})
	if err != nil {
		t.Fatal(err)
	}
	latest := sys.agent.LatestCompleteRound()
	victim := cas.ChunkKey(cs.ManifestsForRound(latest)[0].Modules[0].Chunks[0].Hash)
	data, err := store.Get(victim)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x08
	if err := store.Put(victim, data); err != nil {
		t.Fatal(err)
	}
	state, iter := sys.model.CloneState(), sys.Iteration()
	if err := sys.InjectFault(); err == nil || !strings.Contains(err.Error(), "does not match address") {
		t.Fatalf("recovery over a flipped chunk: %v", err)
	}
	if sys.Iteration() != iter || !reflect.DeepEqual(sys.model.CloneState(), state) {
		t.Fatal("a failed recovery wrote the model")
	}
}

// TestRemoteResumeUpgradesA64KiBStore: a store written at 64 KiB chunks
// (a MemStore reports no request cost) resumes bit-identically through a
// System over a remote, which cuts larger chunks. Its first round of the
// same state re-uploads, whole and once, each module the larger size cuts
// differently: every module of at least 1.25 × 64 KiB, since a smaller
// one is one identical chunk either way. The round after that uploads
// nothing but its manifest.
func TestRemoteResumeUpgradesA64KiBStore(t *testing.T) {
	cfg := Config{
		Layers: 2, Hidden: 64, Experts: 4, TopK: 2, BatchSize: 8,
		Interval: 4, Variant: VariantFull, Seed: 7,
	}
	mem := NewMemStore()
	first, err := NewSystem(cfg, mem)
	if err != nil {
		t.Fatal(err)
	}
	steps(t, first, 6)
	if err := first.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	if err := first.FlushCheckpoints(); err != nil {
		t.Fatal(err)
	}
	want := first.model.Capture(nil, train.VariantFull())
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}

	remote, err := NewRemoteStoreOver(mem, RemoteConfig{LatencySeconds: 0.004})
	if err != nil {
		t.Fatal(err)
	}
	if (cas.Options{}).SizeChunksFor(remote).ChunkSize == cas.DefaultChunkSize {
		t.Fatal("the remote sizes chunks at the default: nothing to upgrade")
	}
	cfg.Resume = true
	resumed, err := NewSystem(cfg, remote)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	got := resumed.model.Capture(nil, train.VariantFull())
	if !reflect.DeepEqual(got, want) {
		t.Fatal("resume through the remote is not bit-identical to the state the 64 KiB store holds")
	}
	recut := int64(0)
	for _, blob := range want {
		if len(blob) >= cas.DefaultChunkSize*5/4 {
			recut++
		}
	}
	if recut == 0 {
		t.Fatal("no module spans two 64 KiB chunks: the test cannot see the upgrade")
	}
	for i, wantPuts := range []int64{recut + 1, 1} {
		remote.ResetMetrics()
		if err := resumed.CheckpointNow(); err != nil {
			t.Fatal(err)
		}
		if err := resumed.FlushCheckpoints(); err != nil {
			t.Fatal(err)
		}
		if puts := remote.Metrics().PutOps; puts != wantPuts {
			t.Fatalf("round %d after the resume put %d objects, want %d (%d re-cut modules, one manifest)", i+1, puts, wantPuts, recut)
		}
	}
}
