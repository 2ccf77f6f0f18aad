package fleet

import (
	"bytes"
	"strings"
	"sync/atomic"
	"testing"

	"moc/internal/storage"
	"moc/internal/storage/cas"
	"moc/internal/storage/readserve"
	"moc/internal/storage/storagetest"
)

// chunkCounting counts backend Gets of chunk keys — the traffic the
// read tier exists to absorb.
type chunkCounting struct {
	storage.PersistStore
	chunkGets atomic.Int64
}

func (c *chunkCounting) Get(key string) ([]byte, error) {
	if strings.HasPrefix(key, cas.ChunkPrefix) {
		c.chunkGets.Add(1)
	}
	return c.PersistStore.Get(key)
}

func TestReadTierServesSessionChunkReads(t *testing.T) {
	backend := &chunkCounting{PersistStore: storage.NewMemStore()}
	svc, err := Open(backend, Config{ReadTier: &readserve.Config{L1Bytes: 1 << 20, L2Bytes: 1 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	base, err := svc.AcquireOrRegister("base", "")
	if err != nil {
		t.Fatal(err)
	}
	baseStore, err := base.Open(cas.Options{ChunkSize: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	mods := map[string][]byte{
		"embed": blob(1, 8<<10),
		"ffn":   blob(2, 8<<10),
	}
	if _, err := baseStore.WriteRound(0, mods); err != nil {
		t.Fatal(err)
	}

	// The persist write-through warmed the tier, so reading the round
	// back performs zero backend chunk gets.
	before := backend.chunkGets.Load()
	got, err := baseStore.ReadRound(0)
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range mods {
		if !bytes.Equal(got[name], data) {
			t.Fatalf("module %s corrupt through the read tier", name)
		}
	}
	if n := backend.chunkGets.Load(); n != before {
		t.Fatalf("warm read fetched %d chunks from the backend", n-before)
	}

	// A fork sharing the base's bytes reads the same warm chunks.
	fork, err := svc.AcquireOrRegister("ft", "base")
	if err != nil {
		t.Fatal(err)
	}
	forkStore, err := fork.Open(cas.Options{ChunkSize: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := forkStore.WriteRound(0, mods); err != nil {
		t.Fatal(err)
	}
	before = backend.chunkGets.Load()
	if _, err := forkStore.ReadRound(0); err != nil {
		t.Fatal(err)
	}
	if n := backend.chunkGets.Load(); n != before {
		t.Fatalf("fork's warm read fetched %d chunks", n-before)
	}

	st, err := svc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.ReadTier == nil {
		t.Fatal("fleet stats missing the read tier")
	}
	if st.ReadTier.L1Hits == 0 || st.ReadTier.Nodes == 0 {
		t.Fatalf("read tier stats empty: %+v", st.ReadTier)
	}

	// Retain deletes chunks below the tier, so the sweep must drop both
	// cache levels: the next read re-fetches from the backend instead of
	// serving possibly-collected entries.
	if _, err := svc.Retain(); err != nil {
		t.Fatal(err)
	}
	before = backend.chunkGets.Load()
	got, err = baseStore.ReadRound(0)
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range mods {
		if !bytes.Equal(got[name], data) {
			t.Fatalf("module %s corrupt after retain", name)
		}
	}
	if n := backend.chunkGets.Load(); n == before {
		t.Fatal("Retain did not drop the read tier: read served stale cache")
	}
}

func TestReadTierNodeIsStablePerJob(t *testing.T) {
	// Releasing and re-acquiring a job must reuse its tier node rather
	// than leaking a fresh L1 per acquire.
	backend := storage.NewMemStore()
	svc, err := Open(backend, Config{ReadTier: &readserve.Config{}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		sess, err := svc.AcquireOrRegister("job", "")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Open(cas.Options{ChunkSize: 1 << 10}); err != nil {
			t.Fatal(err)
		}
		if err := sess.Release(); err != nil {
			t.Fatal(err)
		}
	}
	st, err := svc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.ReadTier.Nodes != 1 {
		t.Fatalf("job accumulated %d tier nodes across re-acquires, want 1", st.ReadTier.Nodes)
	}
}

func TestFleetWithoutReadTierHasNoTierStats(t *testing.T) {
	svc, err := Open(storage.NewMemStore(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := svc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.ReadTier != nil {
		t.Fatalf("tier stats without a tier: %+v", st.ReadTier)
	}
}

// A session's fenced backend forwards the caller's buffer as it got it:
// chunk keys through the job's tier node when there is one, straight to
// the shared backend otherwise.
func TestSessionBackendPutDoesNotRetain(t *testing.T) {
	for name, cfg := range map[string]Config{"read-tier": {ReadTier: &readserve.Config{}}, "bare": {}} {
		t.Run(name, func(t *testing.T) {
			svc, err := Open(storage.NewMemStore(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := svc.AcquireOrRegister("job", "")
			if err != nil {
				t.Fatal(err)
			}
			storagetest.CheckPutDoesNotRetain(t, sess.Backend())
		})
	}
}
