package cas

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
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

// aliasSpy counts the Puts whose data is a sub-slice of blob starting on a
// chunk boundary, and the others.
type aliasSpy struct {
	*storage.MemStore
	blob      []byte
	chunkSize int
	mu        sync.Mutex
	aliased   int
	other     int
}

func (a *aliasSpy) Put(key string, data []byte) error {
	aliases := false
	for off := 0; off < len(a.blob) && len(data) > 0; off += a.chunkSize {
		aliases = aliases || &data[0] == &a.blob[off]
	}
	a.mu.Lock()
	if aliases {
		a.aliased++
	} else {
		a.other++
	}
	a.mu.Unlock()
	return a.MemStore.Put(key, data)
}

// TestWriteRoundPutsChunksWithoutCopying: the put stage has one path, and
// on it every chunk reaches the backend as a slice of the caller's blob —
// against any backend, since Put may not retain. The round survives the
// caller scribbling over its buffer afterwards.
func TestWriteRoundPutsChunksWithoutCopying(t *testing.T) {
	buf := randBlob(t, 4, 8<<10)
	want := append([]byte(nil), buf...)
	spy := &aliasSpy{MemStore: storage.NewMemStore(), blob: buf, chunkSize: 1 << 10}
	s, err := Open(spy, Options{ChunkSize: spy.chunkSize, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.WriteRound(0, map[string][]byte{"m": buf}); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 0x55 // caller reuses its buffer after WriteRound returned
	}
	spy.mu.Lock()
	aliased, other := spy.aliased, spy.other
	spy.mu.Unlock()
	if aliased != 8 {
		t.Fatalf("%d chunk puts aliased the caller's blob, want 8 (one per chunk)", aliased)
	}
	if other != 1 {
		t.Fatalf("%d puts of other bytes, want 1 (the manifest)", other)
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

// viewCounter is a backend whose only optional capability is
// storage.Viewer, counting the views it hands out.
type viewCounter struct {
	*storage.MemStore
	views atomic.Int64
}

func (v *viewCounter) GetView(key string) ([]byte, error) {
	v.views.Add(1)
	return v.MemStore.GetView(key)
}

// TestViewerBackendReadsArePrivate: the read path takes a Viewer's views
// whatever else the backend offers, and what it returns is the reader's
// own: scribbling on it must not reach the backend's chunks.
func TestViewerBackendReadsArePrivate(t *testing.T) {
	backend := &viewCounter{MemStore: storage.NewMemStore()}
	s, err := Open(backend, Options{ChunkSize: 1 << 10, ReadWorkers: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := randBlob(t, 11, 6<<10)
	if _, err := s.WriteRound(0, map[string][]byte{"m": want}); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadModule(0, "m")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read back: %v", err)
	}
	if backend.views.Load() != 6 {
		t.Fatalf("read path took %d views, want 6 (one per chunk)", backend.views.Load())
	}
	for i := range got {
		got[i] = 0x11
	}
	got2, err := s.ReadModule(0, "m")
	if err != nil || !bytes.Equal(got2, want) {
		t.Fatalf("reader's buffer aliases the backend: %v", err)
	}
}
