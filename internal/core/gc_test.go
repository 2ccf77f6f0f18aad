package core

import (
	"fmt"
	"strings"
	"testing"

	"moc/internal/storage"
	"moc/internal/storage/cas"
)

func TestCompactKeepsRecoverableState(t *testing.T) {
	a, _, persist := newTestAgent(t, 3)
	rounds := []CheckpointData{
		blobData("ne", "ne@0", "e0", "e0@0", "e1", "e1@0"), // bootstrap full
		blobData("ne", "ne@1", "e0", "e0@1"),
		blobData("ne", "ne@2", "e1", "e1@2"),
		blobData("ne", "ne@3", "e0", "e0@3"),
	}
	for r, data := range rounds {
		d := data
		if !a.TrySnapshot(r, func() (CheckpointData, error) { return d, nil }, nil) {
			t.Fatalf("round %d refused", r)
		}
		if err := a.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	before, err := a.Recover(nil)
	if err != nil {
		t.Fatal(err)
	}
	sizeBefore, err := a.PersistedBytes()
	if err != nil {
		t.Fatal(err)
	}
	deleted, err := a.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if deleted == 0 {
		t.Fatal("compact found nothing despite superseded blobs")
	}
	sizeAfter, err := a.PersistedBytes()
	if err != nil {
		t.Fatal(err)
	}
	if sizeAfter >= sizeBefore {
		t.Fatalf("compact did not shrink the store: %d -> %d", sizeBefore, sizeAfter)
	}
	after, err := a.Recover(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("module set changed: %d -> %d", len(before), len(after))
	}
	for k, b := range before {
		g, ok := after[k]
		if !ok || string(payload(g)) != string(payload(b)) || g.Round != b.Round {
			t.Fatalf("recovery changed for %s: %+v vs %+v", k, g, b)
		}
	}
	// Superseded copies are really gone: ne@0..2 and e0@0..1 are no
	// longer readable through any manifest.
	for _, gone := range []struct {
		round  int
		module string
	}{
		{0, "ne"}, {1, "ne"}, {2, "ne"}, {0, "e0"}, {1, "e0"},
	} {
		if _, err := a.Store().ReadModule(gone.round, gone.module); err == nil {
			t.Fatalf("superseded %s@%d survived compact", gone.module, gone.round)
		}
	}
	// The refcount audit is clean: no orphan chunks left behind, nothing
	// referenced is missing.
	rep, err := a.Store().Audit()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Orphans) != 0 || len(rep.Missing) != 0 {
		t.Fatalf("audit after compact: %d orphans, %d missing", len(rep.Orphans), len(rep.Missing))
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	_ = persist
}

func TestCompactIdempotent(t *testing.T) {
	a, _, _ := newTestAgent(t, 3)
	a.TrySnapshot(0, func() (CheckpointData, error) { return blobData("ne", "x"), nil }, nil)
	a.TrySnapshot(0, func() (CheckpointData, error) { return nil, nil }, nil) // skipped (busy) or no-op
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Compact(); err != nil {
		t.Fatal(err)
	}
	d2, err := a.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if d2 != 0 {
		t.Fatalf("second compact deleted %d blobs", d2)
	}
	a.Close()
}

func TestCompactThenReopen(t *testing.T) {
	persist := storage.NewMemStore()
	a, err := NewAgent(storage.NewSnapshotStore(), persist, 3)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 5; r++ {
		r := r
		a.TrySnapshot(r, func() (CheckpointData, error) {
			return blobData("ne", "ne@"+string(rune('0'+r))), nil
		}, nil)
		if err := a.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Compact(); err != nil {
		t.Fatal(err)
	}
	a.Close()
	b, err := NewAgent(storage.NewSnapshotStore(), persist, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	rec, err := b.Recover(nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(payload(rec["ne"])) != "ne@4" {
		t.Fatalf("reopened recovery after compact: %+v", rec["ne"])
	}
}

// TestCompactJudgesOnlyItsOwnWriter: two agents persist the same module
// names under their own writer ids on one backend. Compaction retires the
// compacting agent's superseded copies and leaves every manifest of the
// other writer — a separate lineage — as it was.
func TestCompactJudgesOnlyItsOwnWriter(t *testing.T) {
	persist := storage.NewMemStore()
	agents := map[string]*Agent{}
	for _, w := range []string{"a", "b"} {
		ag, err := NewAgentWithOptions(storage.NewSnapshotStore(), persist, 3, cas.Options{Writer: w, ScopeToWriter: true})
		if err != nil {
			t.Fatal(err)
		}
		defer ag.Close()
		for r := 0; r < 3; r++ {
			blob := fmt.Sprintf("%s:ne@%d", w, r)
			if !ag.TrySnapshot(r, func() (CheckpointData, error) { return blobData("ne", blob), nil }, nil) {
				t.Fatalf("%s round %d refused", w, r)
			}
			if err := ag.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		agents[w] = ag
	}
	st, err := agents["a"].CompactStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.EntriesDropped != 2 {
		t.Fatalf("compact dropped %d entries, want a's two superseded copies", st.EntriesDropped)
	}
	for r := 0; r < 3; r++ {
		_, errA := agents["a"].Store().ReadModule(r, "ne")
		if (errA == nil) != (r == 2) {
			t.Fatalf("a's ne@%d readable=%v after compact, want only the newest", r, errA == nil)
		}
		if got, err := agents["b"].Store().ReadModule(r, "ne"); err != nil || string(got) != fmt.Sprintf("b:ne@%d", r) {
			t.Fatalf("b's ne@%d after a's compact: %q %v", r, got, err)
		}
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	a, _, persist := newTestAgent(t, 3)
	good1 := storage.EncodeTensors(map[string][]float32{"w": {1, 2, 3}})
	good2 := storage.EncodeTensors(map[string][]float32{"w": {4, 5, 6}})
	a.TrySnapshot(0, func() (CheckpointData, error) {
		return CheckpointData{"m1": good1, "m2": good2}, nil
	}, nil)
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	n, err := a.Verify()
	if err != nil || n != 2 {
		t.Fatalf("verify clean store: n=%d err=%v", n, err)
	}
	// Corrupt m2's chunk behind the agent's back: the content-address
	// check must catch it and name the module.
	m := a.Store().ManifestsForRound(0)[0]
	e := m.Lookup("m2")
	if e == nil || len(e.Chunks) == 0 {
		t.Fatalf("manifest lacks m2: %+v", m)
	}
	bad := append([]byte(nil), good2...)
	bad[len(bad)-1] ^= 0xff
	if err := persist.Put(cas.ChunkKey(e.Chunks[0].Hash), bad); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Verify(); err == nil || !strings.Contains(err.Error(), "m2") {
		t.Fatalf("verify missed corruption: %v", err)
	}
	a.Close()
}

func TestVerifyAuditDetectsMissingChunk(t *testing.T) {
	a, _, persist := newTestAgent(t, 3)
	a.TrySnapshot(0, func() (CheckpointData, error) {
		return CheckpointData{"m": storage.EncodeTensors(map[string][]float32{"w": {1}})}, nil
	}, nil)
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	m := a.Store().ManifestsForRound(0)[0]
	if err := persist.Delete(cas.ChunkKey(m.Modules[0].Chunks[0].Hash)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Verify(); err == nil {
		t.Fatal("verify missed a missing chunk")
	}
	a.Close()
}

func TestPersistDedupsUnchangedModules(t *testing.T) {
	// The PEC round shape: the non-expert module's bytes repeat across
	// rounds while experts rotate. Unchanged payloads must persist zero
	// new chunk bytes.
	a, _, persist := newTestAgent(t, 3)
	ne := storage.EncodeTensors(map[string][]float32{"w": {1, 2, 3, 4}})
	experts := []CheckpointData{
		{"ne": ne, "e0": storage.EncodeTensors(map[string][]float32{"w": {10}})},
		{"ne": ne, "e1": storage.EncodeTensors(map[string][]float32{"w": {11}})},
		{"ne": ne, "e0": storage.EncodeTensors(map[string][]float32{"w": {10}})},
	}
	for r, data := range experts {
		d := data
		if !a.TrySnapshot(r, func() (CheckpointData, error) { return d, nil }, nil) {
			t.Fatalf("round %d refused", r)
		}
		if err := a.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	st := a.StorageStats()
	// Rounds 1 and 2 re-present ne (and round 2 re-presents e0@0's exact
	// bytes): all of it deduped.
	wantDeduped := int64(2*len(ne)) + int64(len(experts[0]["e0"]))
	if st.BytesDeduped != wantDeduped {
		t.Fatalf("deduped %d bytes, want %d (stats %+v)", st.BytesDeduped, wantDeduped, st)
	}
	// Physically, each unique payload is stored exactly once.
	var chunkBytes int64
	keys, _ := persist.Keys("cas/chunks/")
	for _, k := range keys {
		b, _ := persist.Get(k)
		chunkBytes += int64(len(b))
	}
	wantPhysical := int64(len(ne)) + int64(len(experts[0]["e0"])) + int64(len(experts[1]["e1"]))
	if chunkBytes != wantPhysical {
		t.Fatalf("physical chunk bytes %d, want %d", chunkBytes, wantPhysical)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}
