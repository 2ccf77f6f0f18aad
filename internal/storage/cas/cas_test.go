package cas

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"sync/atomic"
	"testing"

	"moc/internal/storage"
)

func testStore(t *testing.T, opts Options) (*Store, *storage.MemStore) {
	t.Helper()
	backend := storage.NewMemStore()
	s, err := Open(backend, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s, backend
}

func payload(seed byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i%13)
	}
	return b
}

func TestManifestCodecRoundTrip(t *testing.T) {
	m := &Manifest{
		Round:   42,
		Writer:  "w007",
		Version: ManifestVersion,
		Modules: []ModuleEntry{
			{Module: "a/w", Size: 10, Chunks: []ChunkRef{{HashBytes([]byte("x")), 6}, {HashBytes([]byte("y")), 4}}},
			{Module: "empty", Size: 0},
			{Module: "z/opt", Size: 3, Chunks: []ChunkRef{{HashBytes([]byte("z")), 3}}},
		},
	}
	out, err := DecodeManifest(EncodeManifest(m))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, out) {
		t.Fatalf("round trip changed manifest:\n got %+v\nwant %+v", out, m)
	}
}

func TestManifestCodecDeterministicAndSorted(t *testing.T) {
	unsorted := &Manifest{Round: 1, Writer: "w", Modules: []ModuleEntry{
		{Module: "b", Size: 0}, {Module: "a", Size: 0},
	}}
	b1 := EncodeManifest(unsorted)
	b2 := EncodeManifest(&Manifest{Round: 1, Writer: "w", Modules: []ModuleEntry{
		{Module: "a", Size: 0}, {Module: "b", Size: 0},
	}})
	if !bytes.Equal(b1, b2) {
		t.Fatal("encoding depends on entry order")
	}
	out, err := DecodeManifest(b1)
	if err != nil {
		t.Fatal(err)
	}
	if out.Modules[0].Module != "a" {
		t.Fatalf("decoded entries not sorted: %+v", out.Modules)
	}
}

func TestManifestCodecRejectsCorruption(t *testing.T) {
	blob := EncodeManifest(&Manifest{Round: 3, Writer: "w1", Modules: []ModuleEntry{
		{Module: "m", Size: 5, Chunks: []ChunkRef{{HashBytes([]byte("hello")), 5}}},
	}})
	for i := range blob {
		bad := append([]byte(nil), blob...)
		bad[i] ^= 0x01
		if _, err := DecodeManifest(bad); err == nil {
			t.Fatalf("single-bit corruption at byte %d undetected", i)
		}
	}
	for n := 0; n < len(blob); n++ {
		if _, err := DecodeManifest(blob[:n]); err == nil {
			t.Fatalf("truncation to %d bytes undetected", n)
		}
	}
	// A chunk list that does not sum to the payload size must be rejected
	// even with a valid CRC.
	lying := EncodeManifest(&Manifest{Round: 3, Writer: "w1", Modules: []ModuleEntry{
		{Module: "m", Size: 99, Chunks: []ChunkRef{{HashBytes([]byte("hello")), 5}}},
	}})
	if _, err := DecodeManifest(lying); err == nil {
		t.Fatal("chunk-size/payload-size mismatch undetected")
	}
}

func TestSplitChunks(t *testing.T) {
	// With C = 64 a remainder under C/4 = 16 rides in the last full chunk.
	for _, tc := range []struct {
		n, size int
		want    []int
	}{
		{0, 64, nil},
		{1, 64, []int{1}}, {15, 64, []int{15}}, {16, 64, []int{16}}, {63, 64, []int{63}}, // L < C
		{64, 64, []int{64}}, {192, 64, []int{64, 64, 64}}, // kC
		{65, 64, []int{65}}, {193, 64, []int{64, 64, 65}}, // kC + 1
		{79, 64, []int{79}}, {207, 64, []int{64, 64, 79}}, // kC + C/4 − 1
		{80, 64, []int{64, 16}}, {208, 64, []int{64, 64, 64, 16}}, // kC + C/4
		{5, 4, []int{4, 1}}, {13, 4, []int{4, 4, 4, 1}}, // C/4 = 1: no remainder is short enough
		{21, 10, []int{10, 11}}, {22, 10, []int{10, 10, 2}}, // C/4 rounds down
	} {
		got := splitChunks(payload(1, tc.n), tc.size)
		var sizes []int
		total := 0
		for _, c := range got {
			sizes = append(sizes, len(c))
			total += len(c)
		}
		if !reflect.DeepEqual(sizes, tc.want) || total != tc.n || len(got) != fixedChunkCount(tc.n, tc.size) {
			t.Fatalf("split %d/%d: sizes %v, want %v (count rule says %d)", tc.n, tc.size, sizes, tc.want, fixedChunkCount(tc.n, tc.size))
		}
	}
}

// costOf reports a fixed request cost.
type costOf struct {
	storage.PersistStore
	lat, bps float64
}

func (c costOf) RequestCost() (float64, float64) { return c.lat, c.bps }

func TestChunkSizeFor(t *testing.T) {
	const gib = 1 << 30
	for _, tc := range []struct {
		lat, bps float64
		want     int
	}{
		{0, gib, DefaultChunkSize},          // memory speed
		{0.004, 0, DefaultChunkSize},        // no bandwidth reported
		{1e-6, 1e9, DefaultChunkSize},       // 1 KB product
		{0.001, 64 << 10, DefaultChunkSize}, // 64 B product
		{1, 64 << 10, DefaultChunkSize},     // exactly the default
		{1, 64<<10 + 1, 128 << 10},          // one byte past it: the next power of two
		{0.004, 32 << 20, 256 << 10},        // 134 218 B product, just past 128 KiB
		{0.004, gib, MaxCostChunkSize},      // 4 MiB product: the cap
		{0.020, 256 << 20, MaxCostChunkSize},
		{-1, gib, DefaultChunkSize},
	} {
		if got := ChunkSizeFor(tc.lat, tc.bps); got != tc.want {
			t.Errorf("ChunkSizeFor(%v, %v) = %d, want %d", tc.lat, tc.bps, got, tc.want)
		}
	}
	mem := storage.NewMemStore()
	remote := costOf{mem, 0.004, gib}
	for _, tc := range []struct {
		name    string
		backend storage.PersistStore
		opts    Options
		want    int
	}{
		{"MemStore", mem, Options{}, DefaultChunkSize},
		{"4 ms × 1 GiB/s", remote, Options{}, MaxCostChunkSize},
		{"explicit size", remote, Options{ChunkSize: 4 << 10}, 4 << 10},
		{"CDC", remote, Options{Chunking: ChunkingCDC}, 0},
	} {
		if got := tc.opts.SizeChunksFor(tc.backend).ChunkSize; got != tc.want {
			t.Errorf("%s: SizeChunksFor sets ChunkSize %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	s, _ := testStore(t, Options{ChunkSize: 16})
	modules := map[string][]byte{
		"big":   payload(1, 100),
		"small": payload(2, 5),
		"empty": {},
	}
	if _, err := s.WriteRound(0, modules); err != nil {
		t.Fatal(err)
	}
	for name, want := range modules {
		got, err := s.ReadModule(0, name)
		if err != nil {
			t.Fatalf("read %s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: round trip changed payload", name)
		}
	}
	if _, err := s.ReadModule(0, "missing"); !errors.Is(err, ErrModuleNotFound) {
		t.Fatalf("missing module error = %v", err)
	}
	if _, err := s.ReadModule(9, "big"); !errors.Is(err, ErrModuleNotFound) {
		t.Fatalf("missing round error = %v", err)
	}
}

func TestDedupAcrossRounds(t *testing.T) {
	// Two consecutive rounds with identical payloads: the second round
	// must persist each shared chunk exactly once in total — zero new
	// chunk bytes.
	s, backend := testStore(t, Options{ChunkSize: 32, Workers: 1})
	modules := map[string][]byte{
		"nonexpert": payload(3, 200),
		"expert0":   payload(4, 96),
	}
	if _, err := s.WriteRound(0, modules); err != nil {
		t.Fatal(err)
	}
	puts0, bytes0 := backend.Stats()
	if _, err := s.WriteRound(1, modules); err != nil {
		t.Fatal(err)
	}
	puts1, bytes1 := backend.Stats()
	// Round 1 may only have written its manifest: one Put, no chunk.
	if puts1-puts0 != 1 {
		t.Fatalf("identical round caused %d backend puts, want 1 (manifest only)", puts1-puts0)
	}
	st := s.Stats()
	if st.ChunksWritten == 0 || st.ChunksDeduped != st.ChunksWritten {
		t.Fatalf("dedup counters: %+v", st)
	}
	if st.BytesDeduped != 296 || st.LogicalBytes != 592 {
		t.Fatalf("byte counters: %+v", st)
	}
	if got := st.DedupRatio(); got != 0.5 {
		t.Fatalf("dedup ratio %v, want 0.5", got)
	}
	// Each unique chunk is stored exactly once: physical chunk bytes
	// equal one round's logical volume.
	var chunkBytes int64
	keys, _ := backend.Keys(chunkPrefix)
	for _, k := range keys {
		b, _ := backend.Get(k)
		chunkBytes += int64(len(b))
	}
	if chunkBytes != 296 {
		t.Fatalf("chunk bytes %d, want 296 (each shared chunk stored once)", chunkBytes)
	}
	_ = bytes0
	_ = bytes1
}

func TestPartialDedupWithinBlob(t *testing.T) {
	// Changing one chunk's worth of a payload rewrites only that chunk.
	s, _ := testStore(t, Options{ChunkSize: 10, Workers: 2})
	v0 := payload(5, 100)
	if _, err := s.WriteRound(0, map[string][]byte{"m": v0}); err != nil {
		t.Fatal(err)
	}
	v1 := append([]byte(nil), v0...)
	v1[55] ^= 0xff // dirties exactly chunk 5
	if _, err := s.WriteRound(1, map[string][]byte{"m": v1}); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.ChunksWritten != 11 { // 10 for round 0 + 1 dirty chunk
		t.Fatalf("chunks written %d, want 11", st.ChunksWritten)
	}
	got, err := s.ReadModule(1, "m")
	if err != nil || !bytes.Equal(got, v1) {
		t.Fatalf("read back v1: %v", err)
	}
}

func TestParallelStripedWriters(t *testing.T) {
	// Many chunks across many workers must all land, and the round must
	// read back intact.
	s, _ := testStore(t, Options{ChunkSize: 8, Workers: 8})
	modules := map[string][]byte{}
	for i := 0; i < 20; i++ {
		modules[fmt.Sprintf("m%02d", i)] = payload(byte(i), 57)
	}
	if _, err := s.WriteRound(0, modules); err != nil {
		t.Fatal(err)
	}
	for name, want := range modules {
		got, err := s.ReadModule(0, name)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("read %s: %v", name, err)
		}
	}
	rep, err := s.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Missing) != 0 || len(rep.Orphans) != 0 {
		t.Fatalf("audit after parallel write: %+v", rep)
	}
}

func TestWriteRoundFailureLeavesNoCommit(t *testing.T) {
	backend := storage.NewMemStore()
	s, err := Open(backend, Options{ChunkSize: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	failing := &failAfterStore{MemStore: backend}
	failing.allow.Store(2)
	s.backend = failing
	if _, err := s.WriteRound(0, map[string][]byte{"m": payload(1, 64)}); err == nil {
		t.Fatal("write succeeded against failing backend")
	}
	// No manifest committed: the round does not exist.
	if rounds := s.Rounds(); len(rounds) != 0 {
		t.Fatalf("failed round committed: %v", rounds)
	}
	keys, _ := backend.Keys(manifestPrefix)
	if len(keys) != 0 {
		t.Fatalf("manifest present after failed round: %v", keys)
	}
}

// failAfterStore lets allow Puts through, then fails. The counter is
// atomic: WriteRound's striped workers call Put concurrently.
type failAfterStore struct {
	*storage.MemStore
	allow atomic.Int32
}

func (f *failAfterStore) Put(key string, data []byte) error {
	if f.allow.Add(-1) < 0 {
		return fmt.Errorf("backend lost")
	}
	return f.MemStore.Put(key, data)
}

func TestReadDetectsChunkCorruption(t *testing.T) {
	s, backend := testStore(t, Options{ChunkSize: 16})
	want := payload(9, 40)
	if _, err := s.WriteRound(0, map[string][]byte{"m": want}); err != nil {
		t.Fatal(err)
	}
	m := s.ManifestsForRound(0)[0]
	h := m.Modules[0].Chunks[1].Hash
	bad := payload(9, 16)
	bad[0] ^= 0xff
	if err := backend.Put(ChunkKey(h), bad); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadModule(0, "m"); err == nil {
		t.Fatal("corrupt chunk undetected")
	}
}

func TestReopenRebuildsIndexAndDedups(t *testing.T) {
	backend := storage.NewMemStore()
	s1, err := Open(backend, Options{ChunkSize: 32, Writer: "a"})
	if err != nil {
		t.Fatal(err)
	}
	want := payload(7, 80)
	if _, err := s1.WriteRound(4, map[string][]byte{"m": want}); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(backend, Options{ChunkSize: 32, Writer: "b"})
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Rounds(); len(got) != 1 || got[0] != 4 {
		t.Fatalf("reopened rounds: %v", got)
	}
	got, err := s2.ReadModule(4, "m")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("reopened read: %v", err)
	}
	// A new writer persisting identical content dedups against the
	// chunks scanned at open.
	puts0, _ := backend.Stats()
	if _, err := s2.WriteRound(5, map[string][]byte{"m": want}); err != nil {
		t.Fatal(err)
	}
	puts1, _ := backend.Stats()
	if puts1-puts0 != 1 {
		t.Fatalf("reopen dedup missed: %d puts", puts1-puts0)
	}
}

func TestRetainRefcountGC(t *testing.T) {
	s, backend := testStore(t, Options{ChunkSize: 32, Writer: "w"})
	shared := payload(1, 64) // lives in every round
	for r := 0; r < 3; r++ {
		mods := map[string][]byte{
			"shared": shared,
			"only":   payload(byte(10+r), 64), // unique per round
		}
		if _, err := s.WriteRound(r, mods); err != nil {
			t.Fatal(err)
		}
	}
	// Keep only round 2's view of each module.
	live := func(round int, module string) bool { return round == 2 }
	st, err := s.Retain(live, 2)
	if err != nil {
		t.Fatal(err)
	}
	if st.EntriesDropped != 4 || st.ManifestsDeleted != 2 {
		t.Fatalf("gc stats: %+v", st)
	}
	// The shared chunks survive (still referenced by round 2); the two
	// superseded unique payloads are swept.
	if st.ChunksDeleted != 4 || st.BytesFreed != 128 {
		t.Fatalf("sweep stats: %+v", st)
	}
	got, err := s.ReadModule(2, "shared")
	if err != nil || !bytes.Equal(got, shared) {
		t.Fatalf("live module lost by gc: %v", err)
	}
	rep, err := s.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Missing) != 0 || len(rep.Orphans) != 0 {
		t.Fatalf("audit after gc: missing %d orphans %d", len(rep.Missing), len(rep.Orphans))
	}
	// Idempotent.
	st2, err := s.Retain(live, 2)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Removed() != 0 {
		t.Fatalf("second gc removed %d objects", st2.Removed())
	}
	_ = backend
}

func TestRetainHonorsForeignWriters(t *testing.T) {
	// Two writers share a backend; GC driven through one store must not
	// sweep chunks only the other writer's manifests reference.
	backend := storage.NewMemStore()
	a, err := Open(backend, Options{ChunkSize: 32, Writer: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.WriteRound(0, map[string][]byte{"ma": payload(1, 64)}); err != nil {
		t.Fatal(err)
	}
	b, err := Open(backend, Options{ChunkSize: 32, Writer: "b"})
	if err != nil {
		t.Fatal(err)
	}
	onlyB := payload(2, 64)
	if _, err := b.WriteRound(1, map[string][]byte{"mb": onlyB}); err != nil {
		t.Fatal(err)
	}
	// Store a has never seen writer b's round-1 manifest; keep everything
	// alive and sweep — nothing may disappear.
	if _, err := a.Retain(nil, 1); err != nil {
		t.Fatal(err)
	}
	got, err := b.ReadModule(1, "mb")
	if err != nil || !bytes.Equal(got, onlyB) {
		t.Fatalf("foreign writer's data swept: %v", err)
	}
}

func TestAuditDetectsMissingAndOrphans(t *testing.T) {
	s, backend := testStore(t, Options{ChunkSize: 16})
	if _, err := s.WriteRound(0, map[string][]byte{"m": payload(1, 48)}); err != nil {
		t.Fatal(err)
	}
	// Delete a referenced chunk behind the store's back, and drop in an
	// orphan.
	m := s.ManifestsForRound(0)[0]
	if err := backend.Delete(ChunkKey(m.Modules[0].Chunks[0].Hash)); err != nil {
		t.Fatal(err)
	}
	orphan := payload(9, 10)
	if err := backend.Put(ChunkKey(HashBytes(orphan)), orphan); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Missing) != 1 || len(rep.Orphans) != 1 {
		t.Fatalf("audit: %+v", rep)
	}
}

func TestOpenRejectsCorruptManifest(t *testing.T) {
	backend := storage.NewMemStore()
	s, err := Open(backend, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.WriteRound(0, map[string][]byte{"m": payload(1, 10)}); err != nil {
		t.Fatal(err)
	}
	keys, _ := backend.Keys(manifestPrefix)
	blob, _ := backend.Get(keys[0])
	blob[len(blob)/2] ^= 0xff
	if err := backend.Put(keys[0], blob); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(backend, Options{}); err == nil {
		t.Fatal("corrupt manifest accepted at open")
	}
}

func TestWriterIDValidation(t *testing.T) {
	backend := storage.NewMemStore()
	for _, bad := range []string{"a.b", "a/b"} {
		if _, err := Open(backend, Options{Writer: bad}); err == nil {
			t.Fatalf("writer %q accepted", bad)
		}
	}
}

func TestManifestCodecRejectsGarbageTrailerWithValidCRC(t *testing.T) {
	// Garbage appended inside the CRC frame: the checksum is valid, so
	// only the structural trailing-bytes check can catch it.
	blob := EncodeManifest(&Manifest{Round: 1, Writer: "w1", Modules: []ModuleEntry{
		{Module: "m", Size: 5, Chunks: []ChunkRef{{HashBytes([]byte("hello")), 5}}},
	}})
	body := append(append([]byte(nil), blob[:len(blob)-4]...), 0xde, 0xad, 0xbe, 0xef)
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc32.ChecksumIEEE(body))
	bad := append(body, tail[:]...)
	if _, err := DecodeManifest(bad); err == nil {
		t.Fatal("garbage trailer with recomputed CRC undetected")
	}
}

func TestOpenFailsCleanlyOnCorruptManifest(t *testing.T) {
	// A corrupted committed manifest must fail the store open (the path
	// every recovery rides on) with an error — never a panic, never a
	// silently shortened view of the store.
	corruptions := []struct {
		name    string
		corrupt func(blob []byte) []byte
	}{
		{"truncated frame", func(blob []byte) []byte {
			return blob[:len(blob)/2]
		}},
		{"bad CRC", func(blob []byte) []byte {
			bad := append([]byte(nil), blob...)
			bad[len(bad)/3] ^= 0x40
			return bad
		}},
		{"garbage trailer", func(blob []byte) []byte {
			body := append(append([]byte(nil), blob[:len(blob)-4]...), 1, 2, 3)
			var tail [4]byte
			binary.LittleEndian.PutUint32(tail[:], crc32.ChecksumIEEE(body))
			return append(body, tail[:]...)
		}},
		{"empty blob", func([]byte) []byte {
			return nil
		}},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			s, backend := testStore(t, Options{ChunkSize: 8, Writer: "w1"})
			if _, err := s.WriteRound(0, map[string][]byte{"m": payload(1, 40)}); err != nil {
				t.Fatal(err)
			}
			key := manifestKey(0, "w1")
			blob, err := backend.Get(key)
			if err != nil {
				t.Fatal(err)
			}
			if err := backend.Put(key, tc.corrupt(blob)); err != nil {
				t.Fatal(err)
			}
			if _, err := Open(backend, Options{}); err == nil {
				t.Fatal("Open trusted a corrupt manifest")
			}
			// The already-open store detects it too on its next full
			// manifest scan (the GC and audit paths).
			if _, err := s.Audit(); err == nil {
				t.Fatal("Audit trusted a corrupt manifest")
			}
			if _, err := s.Retain(nil, 0); err == nil {
				t.Fatal("Retain trusted a corrupt manifest")
			}
		})
	}
}
