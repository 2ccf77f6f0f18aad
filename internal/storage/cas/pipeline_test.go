package cas

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"moc/internal/storage"
)

// TestUnchangedModuleSkipsHashing is the regression test for the
// whole-module short circuit: a round re-presenting byte-identical
// module payloads must compute ZERO chunk hashes — the bug was
// re-hashing every chunk of every module every round even when nothing
// changed.
func TestUnchangedModuleSkipsHashing(t *testing.T) {
	for _, mode := range []Chunking{ChunkingFixed, ChunkingCDC} {
		t.Run(mode.String(), func(t *testing.T) {
			s, err := Open(storage.NewMemStore(), Options{ChunkSize: 1 << 10, Chunking: mode})
			if err != nil {
				t.Fatal(err)
			}
			mods := map[string][]byte{
				"a": randBlob(t, 1, 10<<10),
				"b": randBlob(t, 2, 4<<10),
			}
			if _, err := s.WriteRound(0, mods); err != nil {
				t.Fatal(err)
			}
			base := s.Stats()
			if base.ChunksHashed == 0 {
				t.Fatal("first round hashed no chunks — the counter is broken")
			}
			if base.ModulesUnchanged != 0 {
				t.Fatalf("first round claimed %d unchanged modules", base.ModulesUnchanged)
			}

			// Same bytes, fresh buffers: identity must be by content, not
			// by slice.
			again := map[string][]byte{
				"a": append([]byte(nil), mods["a"]...),
				"b": append([]byte(nil), mods["b"]...),
			}
			if _, err := s.WriteRound(1, again); err != nil {
				t.Fatal(err)
			}
			st := s.Stats()
			if hashed := st.ChunksHashed - base.ChunksHashed; hashed != 0 {
				t.Fatalf("unchanged round hashed %d chunks, want 0", hashed)
			}
			if st.ModulesUnchanged != 2 {
				t.Fatalf("ModulesUnchanged = %d, want 2", st.ModulesUnchanged)
			}
			if st.ChunksWritten != base.ChunksWritten {
				t.Fatal("unchanged round wrote chunks")
			}

			// One changed module: only its chunks are re-hashed, and the
			// round still reads back correctly.
			again["a"] = append([]byte(nil), mods["a"]...)
			again["a"][17] ^= 0xFF
			if _, err := s.WriteRound(2, again); err != nil {
				t.Fatal(err)
			}
			st2 := s.Stats()
			if st2.ModulesUnchanged != 3 { // +1: module b again
				t.Fatalf("ModulesUnchanged = %d, want 3", st2.ModulesUnchanged)
			}
			if st2.ChunksHashed == st.ChunksHashed {
				t.Fatal("changed module was not re-hashed")
			}
			got, err := s.ReadModule(2, "a")
			if err != nil || !bytes.Equal(got, again["a"]) {
				t.Fatalf("read changed module: %v", err)
			}
			got, err = s.ReadModule(2, "b")
			if err != nil || !bytes.Equal(got, mods["b"]) {
				t.Fatalf("read unchanged module: %v", err)
			}
		})
	}
}

// TestUnchangedFastPathRevalidatesAfterGC: the memo's recorded refs may
// point at chunks a Retain swept; the fast path must notice and fall
// back to a full write rather than commit a manifest referencing
// missing chunks.
func TestUnchangedFastPathRevalidatesAfterGC(t *testing.T) {
	backend := storage.NewMemStore()
	s, err := Open(backend, Options{ChunkSize: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	blob := randBlob(t, 3, 8<<10)
	if _, err := s.WriteRound(0, map[string][]byte{"m": blob}); err != nil {
		t.Fatal(err)
	}
	// Drop everything: round 0's entries die, chunks are swept, but the
	// memo still remembers blob's refs.
	if _, err := s.Retain(func(int, string) bool { return false }, -1); err != nil {
		t.Fatal(err)
	}
	if keys, _ := backend.Keys(chunkPrefix); len(keys) != 0 {
		t.Fatalf("GC left %d chunks", len(keys))
	}
	m, err := s.WriteRound(1, map[string][]byte{"m": blob})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Modules) != 1 || len(m.Modules[0].Chunks) == 0 {
		t.Fatal("round 1 manifest is empty")
	}
	got, err := s.ReadModule(1, "m")
	if err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("read after GC + rewrite: %v", err)
	}
	if rep, err := s.Audit(); err != nil || len(rep.Missing) != 0 {
		t.Fatalf("audit: %v missing=%d", err, len(rep.Missing))
	}
}

// ownedSpy records which put entry point the store used and whether the
// handed slices aliased the caller's buffers.
type ownedSpy struct {
	*storage.MemStore
	mu        sync.Mutex
	putOwned  int
	putCopied int
}

func (o *ownedSpy) Put(key string, data []byte) error {
	o.mu.Lock()
	o.putCopied++
	o.mu.Unlock()
	return o.MemStore.Put(key, data)
}

func (o *ownedSpy) PutOwned(key string, data []byte) error {
	o.mu.Lock()
	o.putOwned++
	o.mu.Unlock()
	return o.MemStore.Put(key, data)
}

// TestZeroCopyPutUsesOwnedPath: against an OwnedPutter backend every
// chunk put goes through PutOwned, and the round survives the caller
// scribbling over its buffers afterwards (the backend copied during the
// call, as the contract requires).
func TestZeroCopyPutUsesOwnedPath(t *testing.T) {
	spy := &ownedSpy{MemStore: storage.NewMemStore()}
	s, err := Open(spy, Options{ChunkSize: 1 << 10, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	buf := randBlob(t, 4, 8<<10)
	want := append([]byte(nil), buf...)
	if _, err := s.WriteRound(0, map[string][]byte{"m": buf}); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 0x55 // caller reuses its buffer after WriteRound returned
	}
	spy.mu.Lock()
	putOwned, putCopied := spy.putOwned, spy.putCopied
	spy.mu.Unlock()
	if putOwned != 8 {
		t.Fatalf("PutOwned called %d times, want 8 (one per chunk)", putOwned)
	}
	// The manifest commit is the only plain Put.
	if putCopied != 1 {
		t.Fatalf("plain Put called %d times, want 1 (the manifest)", putCopied)
	}
	got, err := s.ReadModule(0, "m")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("round corrupted by caller buffer reuse: %v", err)
	}
}

// TestReadRoundReassemblesAllModules covers the round-level parallel
// read path, including the multi-writer merge.
func TestReadRoundReassemblesAllModules(t *testing.T) {
	backend := storage.NewMemStore()
	a, err := Open(backend, Options{ChunkSize: 512, Writer: "wa", ReadWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(backend, Options{ChunkSize: 512, Writer: "wb"})
	if err != nil {
		t.Fatal(err)
	}
	modsA := map[string][]byte{"a0": randBlob(t, 5, 3000), "a1": randBlob(t, 6, 700)}
	modsB := map[string][]byte{"b0": randBlob(t, 7, 5000)}
	if _, err := a.WriteRound(4, modsA); err != nil {
		t.Fatal(err)
	}
	if _, err := b.WriteRound(4, modsB); err != nil {
		t.Fatal(err)
	}
	// Reopen so one store sees both writers' manifests.
	r, err := Open(backend, Options{ChunkSize: 512, ReadWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadRound(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("ReadRound returned %d modules, want 3", len(got))
	}
	for name, want := range modsA {
		if !bytes.Equal(got[name], want) {
			t.Fatalf("module %s corrupted", name)
		}
	}
	for name, want := range modsB {
		if !bytes.Equal(got[name], want) {
			t.Fatalf("module %s corrupted", name)
		}
	}
	if _, err := r.ReadRound(9); err == nil {
		t.Fatal("ReadRound of an absent round succeeded")
	}
}

// TestPresenceIndexBasics exercises the sharded set directly.
func TestPresenceIndexBasics(t *testing.T) {
	p := newPresenceIndex()
	var hs []Hash
	for i := 0; i < 300; i++ { // > presenceShards, so every shard is hit
		hs = append(hs, HashBytes([]byte(fmt.Sprintf("chunk-%d", i))))
	}
	for _, h := range hs {
		if p.Has(h) {
			t.Fatal("empty index claims presence")
		}
		p.Add(h)
	}
	if p.Len() != len(hs) {
		t.Fatalf("Len = %d, want %d", p.Len(), len(hs))
	}
	for _, h := range hs {
		if !p.Has(h) {
			t.Fatal("added hash missing")
		}
	}
	p.Remove(hs[0])
	if p.Has(hs[0]) || p.Len() != len(hs)-1 {
		t.Fatal("Remove did not take")
	}
}

// TestPipelineWorkerOptionValidation: the new pipeline knobs reject
// negative values and default sensibly.
func TestPipelineWorkerOptionValidation(t *testing.T) {
	for _, opts := range []Options{{HashWorkers: -1}, {ReadWorkers: -2}} {
		if _, err := Open(storage.NewMemStore(), opts); err == nil {
			t.Fatalf("Open accepted %+v", opts)
		}
	}
	s, err := Open(storage.NewMemStore(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.opts.HashWorkers < 1 || s.opts.ReadWorkers < 1 {
		t.Fatalf("defaults not filled: %+v", s.opts)
	}
}

// TestDedupStatsUnchangedByPipeline: the pipelined WriteRound must
// account dedup exactly as the sequential engine did — same counters on
// the same round sequence, whatever the worker widths.
func TestDedupStatsUnchangedByPipeline(t *testing.T) {
	round0 := map[string][]byte{
		"x": randBlob(t, 8, 7<<10),
		"y": randBlob(t, 9, 3<<10),
	}
	// Round 1 rewrites x in place (partial chunk overlap) and leaves y.
	x1 := append([]byte(nil), round0["x"]...)
	copy(x1[2048:], randBlob(t, 10, 1024))
	round1 := map[string][]byte{"x": x1, "y": round0["y"]}

	var ref Stats
	for i, cfg := range []Options{
		{ChunkSize: 1 << 10, Workers: 1, HashWorkers: 1},
		{ChunkSize: 1 << 10, Workers: 4, HashWorkers: 4},
		{ChunkSize: 1 << 10, Workers: 8, HashWorkers: 2},
	} {
		s, err := Open(storage.NewMemStore(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.WriteRound(0, round0); err != nil {
			t.Fatal(err)
		}
		if _, err := s.WriteRound(1, round1); err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		if i == 0 {
			ref = st
			if st.ChunksDeduped == 0 {
				t.Fatal("workload produced no dedup — test is vacuous")
			}
			continue
		}
		if st != ref {
			t.Fatalf("stats differ across worker widths:\n%+v\n%+v", st, ref)
		}
	}
}

// retainingViewStore retains slices and serves views of them — the
// degenerate combination: PutOwned absent (so the store must copy) but
// GetView present. It proves the read path's views and the write path's
// copies are decided independently.
type retainingViewStore struct {
	mu    sync.Mutex
	blobs map[string][]byte
}

func (r *retainingViewStore) Put(key string, data []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.blobs[key] = data //moc:allow retainput adversarial fake: retains on purpose so tests prove callers copy
	return nil
}

func (r *retainingViewStore) Get(key string) ([]byte, error) {
	b, err := r.GetView(key)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), b...), nil
}

func (r *retainingViewStore) GetView(key string) ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, ok := r.blobs[key]
	if !ok {
		return nil, fmt.Errorf("%w: %s", storage.ErrNotFound, key)
	}
	return b, nil
}

func (r *retainingViewStore) Delete(key string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.blobs, key)
	return nil
}

func (r *retainingViewStore) Keys(prefix string) ([]string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for k := range r.blobs {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	return out, nil
}

func TestViewerBackendWithoutOwnedPutter(t *testing.T) {
	s, err := Open(&retainingViewStore{blobs: map[string][]byte{}}, Options{ChunkSize: 1 << 10, ReadWorkers: 3})
	if err != nil {
		t.Fatal(err)
	}
	buf := randBlob(t, 11, 6<<10)
	want := append([]byte(nil), buf...)
	if _, err := s.WriteRound(0, map[string][]byte{"m": buf}); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 0xEE
	}
	got, err := s.ReadModule(0, "m")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("retaining backend corrupted by caller reuse — the copy-on-put fallback failed: %v", err)
	}
	// The returned payload must be private: scribbling on it must not
	// corrupt the backend's retained chunks.
	for i := range got {
		got[i] = 0x11
	}
	got2, err := s.ReadModule(0, "m")
	if err != nil || !bytes.Equal(got2, want) {
		t.Fatalf("reader's buffer aliases the backend: %v", err)
	}
}
