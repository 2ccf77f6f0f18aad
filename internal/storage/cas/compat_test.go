package cas

// Regression coverage for the CAS correctness sweep: manifest format
// compatibility (v1 stores written before content-defined chunking),
// cross-process default writer ids, the copy-on-put contract, and
// manifest-key parsing.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"moc/internal/storage"
)

// splitShortTails cuts a payload the way fixed chunking did before short
// remainders rode in the last full chunk: every remainder, however short,
// a chunk of its own.
func splitShortTails(blob []byte, size int) [][]byte {
	var out [][]byte
	for len(blob) > size {
		out = append(out, blob[:size])
		blob = blob[size:]
	}
	if len(blob) > 0 {
		out = append(out, blob)
	}
	return out
}

// writeLegacyStore populates a backend the way earlier builds did: chunks
// cut with short tails under the chunk prefix, and a manifest of the given
// version as the commit point (1 is the pre-CDC format: legacy magic, no
// version field).
func writeLegacyStore(t *testing.T, backend storage.PersistStore, round int, writer string, version int, modules map[string][]byte, chunkSize int) *Manifest {
	t.Helper()
	m := &Manifest{Round: round, Writer: writer, Version: version}
	for name, blob := range modules {
		e := ModuleEntry{Module: name, Size: int64(len(blob))}
		for _, chunk := range splitShortTails(blob, chunkSize) {
			h := HashBytes(chunk)
			e.Chunks = append(e.Chunks, ChunkRef{Hash: h, Size: uint32(len(chunk))})
			if err := backend.Put(ChunkKey(h), append([]byte(nil), chunk...)); err != nil {
				t.Fatal(err)
			}
		}
		m.Modules = append(m.Modules, e)
	}
	sort.Slice(m.Modules, func(i, j int) bool { return m.Modules[i].Module < m.Modules[j].Module })
	blob := EncodeManifest(m)
	if got := binary.LittleEndian.Uint32(blob); version == 1 && got != manifestMagic {
		t.Fatalf("v1 encoder wrote magic %#x, want legacy %#x", got, manifestMagic)
	}
	if err := backend.Put(manifestKey(round, writer), blob); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestV1ManifestRoundTripThroughNewCodec(t *testing.T) {
	// A store directory written before this PR (v1 manifests, fixed-size
	// chunks) must open, read, audit, retain, and dedup correctly.
	backend := storage.NewMemStore()
	old := payload(3, 300)
	writeLegacyStore(t, backend, 0, "legacy", 1, map[string][]byte{"m": old, "gone": payload(4, 64)}, 64)

	s, err := Open(backend, Options{ChunkSize: 64, Writer: "new"})
	if err != nil {
		t.Fatalf("open over v1 store: %v", err)
	}
	got, err := s.ReadModule(0, "m")
	if err != nil || !bytes.Equal(got, old) {
		t.Fatalf("read v1 round: %v", err)
	}
	ms := s.ManifestsForRound(0)
	if len(ms) != 1 || ms[0].Version != 1 || ms[0].Chunking != ChunkingFixed {
		t.Fatalf("decoded v1 manifest: %+v", ms[0])
	}
	rep, err := s.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Missing) != 0 || len(rep.Orphans) != 0 {
		t.Fatalf("audit of v1 store: %+v", rep)
	}

	// A new (v2) writer dedups against v1 chunks.
	puts0, _ := backend.Stats()
	if _, err := s.WriteRound(1, map[string][]byte{"m": old}); err != nil {
		t.Fatal(err)
	}
	puts1, _ := backend.Stats()
	if puts1-puts0 != 1 {
		t.Fatalf("v2 round over identical v1 content caused %d puts, want 1 (manifest only)", puts1-puts0)
	}

	// GC that shrinks the v1 manifest rewrites it in its own version
	// (byte-compatible with what an older build could read) and sweeps
	// the superseded chunk.
	st, err := s.Retain(func(round int, module string) bool { return module != "gone" }, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.EntriesDropped != 1 || st.ChunksDeleted != 1 {
		t.Fatalf("gc of v1 store: %+v", st)
	}
	blob, err := backend.Get(manifestKey(0, "legacy"))
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint32(blob); got != manifestMagic {
		t.Fatalf("gc rewrote v1 manifest with magic %#x", got)
	}
	rewritten, err := DecodeManifest(blob)
	if err != nil || rewritten.Lookup("m") == nil || rewritten.Lookup("gone") != nil {
		t.Fatalf("rewritten v1 manifest: %+v err %v", rewritten, err)
	}
	if got, err := s.ReadModule(0, "m"); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("v1 round unreadable after gc: %v", err)
	}
}

// TestShortTailStoreReadsAndUpgrades: a store whose fixed chunking cut
// every remainder as a chunk of its own reads back bit for bit through
// the recovery read (ReadAcross), and the first round written over it
// with unchanged payloads uploads exactly one chunk per module whose tail
// was short — the merged last chunk — and nothing for the others.
func TestShortTailStoreReadsAndUpgrades(t *testing.T) {
	const c = 64
	modules := map[string][]byte{
		"short":      payload(1, 3*c+5),   // 5-byte tail: merges
		"short-edge": payload(2, c+c/4-1), // 15-byte tail: merges
		"long":       payload(3, 2*c+c/4), // 16-byte tail: stays its own chunk
		"whole":      payload(4, 2*c),     // no tail
		"tiny":       payload(5, 7),       // shorter than a chunk
		"empty":      {},
	}
	merged := map[string]bool{"short": true, "short-edge": true}
	backend := storage.NewMemStore()
	old := writeLegacyStore(t, backend, 0, "old", ManifestVersion, modules, c)
	if n := len(old.Lookup("short").Chunks); n != 4 {
		t.Fatalf("legacy store cut %q into %d chunks, want 4 (a short tail of its own)", "short", n)
	}

	s, err := Open(backend, Options{ChunkSize: c, Writer: "new"})
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(modules))
	for name := range modules {
		names = append(names, name)
	}
	sort.Strings(names)
	readsOf := func(round int) []ModuleAt {
		reads := make([]ModuleAt, len(names))
		for i, name := range names {
			reads[i] = ModuleAt{Round: round, Module: name}
		}
		return reads
	}
	recovered := func(round int) {
		t.Helper()
		parts, err := s.ReadAcross(readsOf(round))
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for i, name := range names {
			if got := bytes.Join(parts[i], nil); !bytes.Equal(got, modules[name]) {
				t.Fatalf("round %d: %s recovered %d bytes that differ from the %d written", round, name, len(got), len(modules[name]))
			}
		}
	}
	recovered(0)

	var wantBytes int64
	for name := range merged {
		wantBytes += int64(c + len(modules[name])%c)
	}
	puts0, _ := backend.Stats()
	m, err := s.WriteRound(1, modules)
	if err != nil {
		t.Fatal(err)
	}
	puts1, _ := backend.Stats()
	if st := s.Stats(); st.ChunksWritten != int64(len(merged)) || st.BytesWritten != wantBytes || puts1-puts0 != len(merged)+1 {
		t.Fatalf("first round over the short-tail store wrote %d chunks (%d bytes) in %d puts, want %d merged last chunks (%d bytes) plus the manifest",
			st.ChunksWritten, st.BytesWritten, puts1-puts0, len(merged), wantBytes)
	}
	for _, e := range m.Modules {
		if want := fixedChunkCount(int(e.Size), c); len(e.Chunks) != want {
			t.Fatalf("%s: %d chunks in the new manifest, want %d", e.Module, len(e.Chunks), want)
		}
		if prev := old.Lookup(e.Module); merged[e.Module] != (len(prev.Chunks) != len(e.Chunks)) {
			t.Fatalf("%s: %d legacy chunks, %d now", e.Module, len(prev.Chunks), len(e.Chunks))
		}
	}
	recovered(1)

	// Nothing further to upload once the merged chunks are stored.
	if _, err := s.WriteRound(2, modules); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.ChunksWritten != int64(len(merged)) {
		t.Fatalf("second round over the short-tail store wrote %d more chunks", st.ChunksWritten-int64(len(merged)))
	}
	recovered(0)
	if rep, err := s.Audit(); err != nil || len(rep.Missing) != 0 || len(rep.Orphans) != 0 {
		t.Fatalf("audit of the mixed store: %+v %v", rep, err)
	}
}

func TestUnknownManifestVersionFailsCleanly(t *testing.T) {
	// A well-formed frame claiming a future version must be rejected with
	// a version error — at decode and at store open — never misparsed.
	var w manifestWriter
	w.put(manifestMagicV2)
	w.put(99) // future version
	w.put(uint32(ChunkingFixed))
	w.put(7)                   // round
	w.put(1)                   // writer len
	w.buf = append(w.buf, 'w') // writer
	w.put(0)                   // module count
	w.put(crc32.ChecksumIEEE(w.buf))

	_, err := DecodeManifest(w.buf)
	if err == nil || !strings.Contains(err.Error(), "version 99") {
		t.Fatalf("future version decode error = %v", err)
	}
	backend := storage.NewMemStore()
	if err := backend.Put(manifestKey(7, "w"), w.buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(backend, Options{}); err == nil {
		t.Fatal("Open accepted a future-version manifest")
	}
}

func TestManifestV2PreservesChunkingMode(t *testing.T) {
	for _, mode := range []Chunking{ChunkingFixed, ChunkingCDC} {
		m := &Manifest{Round: 1, Writer: "w", Version: ManifestVersion, Chunking: mode}
		out, err := DecodeManifest(EncodeManifest(m))
		if err != nil {
			t.Fatal(err)
		}
		if out.Chunking != mode || out.Version != ManifestVersion {
			t.Fatalf("mode %v round-tripped as %v (v%d)", mode, out.Chunking, out.Version)
		}
	}
	// An unknown chunking value inside a current-version frame is data
	// this build cannot have written — reject it.
	m := &Manifest{Round: 1, Writer: "w", Version: ManifestVersion, Chunking: Chunking(7)}
	if _, err := DecodeManifest(EncodeManifest(m)); err == nil {
		t.Fatal("unknown chunking mode accepted")
	}
}

func TestParseManifestKeyRejectsEmptyWriter(t *testing.T) {
	if _, _, ok := parseManifestKey(manifestPrefix + "000001."); ok {
		t.Fatal("empty writer component parsed ok")
	}
	if _, w, ok := parseManifestKey(manifestPrefix + "000001.w1"); !ok || w != "w1" {
		t.Fatalf("valid key rejected: ok=%v writer=%q", ok, w)
	}
	// A malformed key in the backend must fail the open, not silently
	// shadow (or be shadowed by) real manifests.
	backend := storage.NewMemStore()
	blob := EncodeManifest(&Manifest{Round: 1, Writer: "", Version: ManifestVersion})
	if err := backend.Put(manifestPrefix+"000001.", blob); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(backend, Options{}); err == nil {
		t.Fatal("Open accepted a manifest key with an empty writer")
	}
}

func TestDefaultWriterUniqueAcrossProcesses(t *testing.T) {
	// The default writer id must carry a per-process tag: the sequence
	// counter alone restarts at 1 in every process, so two processes
	// sharing one FSStore directory would collide on manifest keys.
	opts := Options{}
	if err := opts.fillDefaults(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(opts.Writer, processTag) {
		t.Fatalf("default writer %q lacks the process tag %q", opts.Writer, processTag)
	}
	if !strings.Contains(processTag, strconv.Itoa(os.Getpid())) {
		t.Fatalf("process tag %q lacks the pid", processTag)
	}

	// Simulate two processes (distinct process tags, both with a fresh
	// "w001"-style sequence) writing the same round into one shared
	// FSStore directory: both manifests must survive and read back.
	dir := t.TempDir()
	savedTag := processTag
	defer func() { processTag = savedTag }()

	writers := make([]string, 2)
	for i := range writers {
		processTag = fmt.Sprintf("p%d-deadbeef", 1000+i)
		fs, err := storage.NewFSStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Open(fs, Options{ChunkSize: 32})
		if err != nil {
			t.Fatal(err)
		}
		writers[i] = s.Writer()
		if _, err := s.WriteRound(5, map[string][]byte{fmt.Sprintf("m%d", i): payload(byte(i), 64)}); err != nil {
			t.Fatal(err)
		}
	}
	if writers[0] == writers[1] {
		t.Fatalf("both processes claimed writer %q", writers[0])
	}
	fs, err := storage.NewFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := fs.Keys(manifestPrefix)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 {
		t.Fatalf("shared dir holds %d manifests, want 2: %v", len(keys), keys)
	}
	s, err := Open(fs, Options{ChunkSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	for i := range writers {
		got, err := s.ReadModule(5, fmt.Sprintf("m%d", i))
		if err != nil || !bytes.Equal(got, payload(byte(i), 64)) {
			t.Fatalf("process %d's module lost: %v", i, err)
		}
	}
}

func TestWriteRoundDoesNotAliasCallerBuffer(t *testing.T) {
	// A caller that reuses its checkpoint buffer after WriteRound returns
	// must not corrupt the chunks the backend holds.
	for _, mode := range []Chunking{ChunkingFixed, ChunkingCDC} {
		t.Run(mode.String(), func(t *testing.T) {
			s, err := Open(storage.NewMemStore(), Options{ChunkSize: 1 << 10, Chunking: mode, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 16<<10)
			rngFill(buf, 1)
			want := append([]byte(nil), buf...)
			if _, err := s.WriteRound(0, map[string][]byte{"m": buf}); err != nil {
				t.Fatal(err)
			}
			// The caller reuses its buffer for the next round's capture.
			for i := range buf {
				buf[i] = 0xAA
			}
			got, err := s.ReadModule(0, "m")
			if err != nil {
				t.Fatalf("read after caller buffer reuse: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("backend served chunks corrupted by the caller's buffer reuse")
			}
		})
	}
}

func rngFill(b []byte, seed byte) {
	for i := range b {
		b[i] = seed + byte(i*7%251)
	}
}
