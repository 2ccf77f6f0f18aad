package cas

import (
	"bytes"
	"sync"
	"testing"

	"moc/internal/rng"
	"moc/internal/storage"
)

func fillBlob(seed uint64, n int) []byte {
	b := make([]byte, n)
	rng.New(seed).Fill(b)
	return b
}

func TestSharedPresenceDedupsAcrossStores(t *testing.T) {
	// Two writers over one backend with a shared presence index: the
	// second writer's identical round persists zero new chunk bytes
	// WITHOUT reopening (its store never saw the first writer's commit
	// through a backend scan — only through the shared index).
	backend := storage.NewMemStore()
	shared := NewSharedPresence()
	a, err := Open(backend, Options{ChunkSize: 1 << 10, Writer: "a", Shared: shared})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(backend, Options{ChunkSize: 1 << 10, Writer: "b", Shared: shared})
	if err != nil {
		t.Fatal(err)
	}
	mods := map[string][]byte{"m": fillBlob(1, 8<<10)}
	if _, err := a.WriteRound(0, mods); err != nil {
		t.Fatal(err)
	}
	if _, err := b.WriteRound(0, mods); err != nil {
		t.Fatal(err)
	}
	if st := b.Stats(); st.BytesWritten != 0 || st.BytesDeduped != int64(8<<10) {
		t.Fatalf("second writer did not dedup through the shared index: %+v", st)
	}
	if shared.Len() != 8 {
		t.Fatalf("shared index holds %d chunks, want 8", shared.Len())
	}
}

func TestScopeToWriterHidesOtherWritersManifests(t *testing.T) {
	backend := storage.NewMemStore()
	a, err := Open(backend, Options{ChunkSize: 1 << 10, Writer: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.WriteRound(0, map[string][]byte{"m": fillBlob(1, 2<<10)}); err != nil {
		t.Fatal(err)
	}
	scoped, err := Open(backend, Options{ChunkSize: 1 << 10, Writer: "b", ScopeToWriter: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := scoped.Rounds(); len(got) != 0 {
		t.Fatalf("scoped store sees foreign rounds: %v", got)
	}
	if _, err := scoped.ReadModule(0, "m"); err == nil {
		t.Fatal("scoped store read a foreign writer's module")
	}
	own := map[string][]byte{"m": fillBlob(2, 2<<10)}
	if _, err := scoped.WriteRound(0, own); err != nil {
		t.Fatal(err)
	}
	got, err := scoped.ReadModule(0, "m")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, own["m"]) {
		t.Fatal("scoped store resolved the module through a foreign manifest")
	}
	// The unscoped view still merges writers (one recovery over several writers' manifests).
	unscoped, err := Open(backend, Options{ChunkSize: 1 << 10, Writer: "c"})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(unscoped.ManifestsForRound(0)); got != 2 {
		t.Fatalf("unscoped store sees %d manifests, want 2", got)
	}
}

func TestRetainScopedJudgesPerWriter(t *testing.T) {
	// Two writers reuse the same module NAME for different lineages —
	// the fleet situation. Writer-scoped retention keeps each writer's
	// newest copy; writer b's round 0, older than a's newest, must
	// survive a collection that drops a's superseded rounds.
	backend := storage.NewMemStore()
	a, err := Open(backend, Options{ChunkSize: 1 << 10, Writer: "a"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(backend, Options{ChunkSize: 1 << 10, Writer: "b"})
	if err != nil {
		t.Fatal(err)
	}
	bBlob := fillBlob(99, 4<<10)
	if _, err := b.WriteRound(0, map[string][]byte{"w": bBlob}); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		if _, err := a.WriteRound(r, map[string][]byte{"w": fillBlob(uint64(r), 4<<10)}); err != nil {
			t.Fatal(err)
		}
	}
	newestOfA := 2
	st, err := a.RetainScoped(
		func(round int, writer, module string) bool {
			return writer != "a" || round >= newestOfA
		},
		func(round int, writer string) bool { return writer != "a" || round == newestOfA },
	)
	if err != nil {
		t.Fatal(err)
	}
	if st.EntriesDropped != 2 || st.ChunksDeleted == 0 {
		t.Fatalf("collection shape: %+v", st)
	}
	got, err := b.ReadModule(0, "w")
	if err != nil {
		t.Fatalf("writer b's round 0 swept by a's collection: %v", err)
	}
	if !bytes.Equal(got, bBlob) {
		t.Fatal("writer b's module corrupted")
	}
	rep, err := a.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Missing) != 0 {
		t.Fatalf("audit after scoped retain: %d missing", len(rep.Missing))
	}
}

func TestGuardSerializesWriteRoundAgainstRetain(t *testing.T) {
	// Smoke test of the guard contract: concurrent WriteRounds and
	// guarded Retains on one backend never sweep a committing round's
	// chunks (the -race build additionally checks the locking).
	backend := storage.NewMemStore()
	var guard sync.RWMutex
	shared := NewSharedPresence()
	w, err := Open(backend, Options{ChunkSize: 1 << 10, Writer: "w", Shared: shared, Guard: &guard})
	if err != nil {
		t.Fatal(err)
	}
	g, err := Open(backend, Options{ChunkSize: 1 << 10, Writer: "g", Shared: shared, Guard: &guard})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 8
	done := make(chan error, 1)
	go func() {
		for r := 0; r < rounds; r++ {
			if _, err := w.WriteRound(r, map[string][]byte{"w": fillBlob(uint64(r), 8<<10)}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	keepNewest := func(round int, writer, module string) bool { return writer != "w" || round >= rounds-1 }
	keepAnchor := func(round int, writer string) bool { return true }
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			if _, err := g.RetainScoped(keepNewest, keepAnchor); err != nil {
				t.Fatal(err)
			}
			if _, err := w.ReadModule(rounds-1, "w"); err != nil {
				t.Fatalf("newest round lost to concurrent retain: %v", err)
			}
			rep, err := g.Audit()
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Missing) != 0 {
				t.Fatalf("%d referenced chunks missing after concurrent retain", len(rep.Missing))
			}
			return
		default:
			if _, err := g.RetainScoped(keepNewest, keepAnchor); err != nil {
				t.Fatal(err)
			}
		}
	}
}
