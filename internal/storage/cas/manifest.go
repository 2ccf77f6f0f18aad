package cas

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"
)

// Manifest format versions. v1 ("MoCm" magic) is the legacy fixed-size
// layout with no version field — stores written before content-defined
// chunking hold these, and they must keep decoding forever. v2 ("MoC2"
// magic) adds an explicit version word and the chunking mode that
// produced the boundaries. Chunk references carry explicit per-chunk
// lengths in both versions, so the read path never assumes a fixed
// chunk size; the recorded mode is provenance for tooling (mocckpt) and
// future format evolution. Versions newer than ManifestVersion fail to
// decode cleanly rather than being misparsed.
const (
	manifestMagic   = 0x4d6f436d // v1 "MoCm"
	manifestMagicV2 = 0x4d6f4332 // v2 "MoC2"

	// ManifestVersion is the format EncodeManifest writes for newly
	// created manifests (Manifest.Version 0 or 2).
	ManifestVersion = 2
)

// ChunkRef references one chunk of a module payload.
type ChunkRef struct {
	Hash Hash
	Size uint32
}

// ModuleEntry lists the chunks reassembling one module's payload for a
// round, in order.
type ModuleEntry struct {
	Module string
	// Size is the payload length; it must equal the sum of chunk sizes.
	Size   int64
	Chunks []ChunkRef
}

// Manifest is one writer's record of one checkpoint round: which modules
// it persisted and the chunks holding their bytes. Its presence in the
// store is the round's commit point for that writer.
type Manifest struct {
	Round  int
	Writer string
	// Version is the manifest format version: 1 for legacy fixed-size
	// manifests, ManifestVersion for current ones. EncodeManifest treats
	// 0 as ManifestVersion; a decoded manifest re-encodes in its own
	// version, so GC rewrites of old stores stay byte-compatible.
	Version int
	// Chunking is the chunker that produced the boundaries (always
	// ChunkingFixed for v1 manifests).
	Chunking Chunking
	// Modules is sorted by module name.
	Modules []ModuleEntry
}

// Lookup returns the entry for a module, or nil.
func (m *Manifest) Lookup(module string) *ModuleEntry {
	i := sort.Search(len(m.Modules), func(i int) bool { return m.Modules[i].Module >= module })
	if i < len(m.Modules) && m.Modules[i].Module == module {
		return &m.Modules[i]
	}
	return nil
}

// LogicalBytes sums the module payload sizes.
func (m *Manifest) LogicalBytes() int64 {
	var n int64
	for _, e := range m.Modules {
		n += e.Size
	}
	return n
}

// manifestWriter accumulates the encoded body.
type manifestWriter struct{ buf []byte }

func (w *manifestWriter) put(v uint32) {
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], v)
	w.buf = append(w.buf, u32[:]...)
}

func (w *manifestWriter) put64(v uint64) {
	var u64 [8]byte
	binary.LittleEndian.PutUint64(u64[:], v)
	w.buf = append(w.buf, u64[:]...)
}

// EncodeManifest serializes a manifest into a self-describing blob with a
// trailing CRC32, mirroring the tensor codec's framing. Entries are
// written in sorted module order so encoding is deterministic. The
// manifest's Version picks the wire format (0 means current); decoded v1
// manifests therefore re-encode byte-identically when GC rewrites them.
func EncodeManifest(m *Manifest) []byte {
	entries := append([]ModuleEntry(nil), m.Modules...)
	sort.Slice(entries, func(i, j int) bool { return entries[i].Module < entries[j].Module })

	var w manifestWriter
	if m.Version == 1 {
		w.put(manifestMagic)
	} else {
		w.put(manifestMagicV2)
		w.put(ManifestVersion)
		w.put(uint32(m.Chunking))
	}
	w.put(uint32(m.Round))
	w.put(uint32(len(m.Writer)))
	w.buf = append(w.buf, m.Writer...)
	w.put(uint32(len(entries)))
	for _, e := range entries {
		w.put(uint32(len(e.Module)))
		w.buf = append(w.buf, e.Module...)
		w.put64(uint64(e.Size))
		w.put(uint32(len(e.Chunks)))
		for _, c := range e.Chunks {
			w.buf = append(w.buf, c.Hash[:]...)
			w.put(c.Size)
		}
	}
	w.put(crc32.ChecksumIEEE(w.buf))
	return w.buf
}

// DecodeManifest parses a blob produced by EncodeManifest (either
// version), verifying the checksum and structural integrity (including
// that every entry's chunk sizes sum to its payload size). Blobs claiming
// a format version newer than this build supports are rejected with a
// clear error instead of being misparsed.
func DecodeManifest(blob []byte) (*Manifest, error) {
	if len(blob) < 20 { // magic + round + writer len + count + crc
		return nil, fmt.Errorf("cas: manifest too short (%d bytes)", len(blob))
	}
	body, tail := blob[:len(blob)-4], blob[len(blob)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("cas: manifest checksum mismatch")
	}
	pos := 0
	next := func() (uint32, error) {
		if pos+4 > len(body) {
			return 0, fmt.Errorf("cas: truncated manifest at offset %d", pos)
		}
		v := binary.LittleEndian.Uint32(body[pos:])
		pos += 4
		return v, nil
	}
	next64 := func() (uint64, error) {
		if pos+8 > len(body) {
			return 0, fmt.Errorf("cas: truncated manifest at offset %d", pos)
		}
		v := binary.LittleEndian.Uint64(body[pos:])
		pos += 8
		return v, nil
	}
	str := func(n uint32) (string, error) {
		if pos+int(n) > len(body) {
			return "", fmt.Errorf("cas: truncated string in manifest")
		}
		s := string(body[pos : pos+int(n)])
		pos += int(n)
		return s, nil
	}
	magic, err := next()
	if err != nil {
		return nil, err
	}
	m := &Manifest{}
	switch magic {
	case manifestMagic:
		m.Version = 1
		m.Chunking = ChunkingFixed
	case manifestMagicV2:
		version, err := next()
		if err != nil {
			return nil, err
		}
		if version != ManifestVersion {
			return nil, fmt.Errorf("cas: manifest version %d not supported (this build reads up to v%d)",
				version, ManifestVersion)
		}
		m.Version = int(version)
		chunking, err := next()
		if err != nil {
			return nil, err
		}
		m.Chunking = Chunking(chunking)
		if !m.Chunking.valid() {
			return nil, fmt.Errorf("cas: manifest declares unknown chunking mode %d", chunking)
		}
	default:
		return nil, fmt.Errorf("cas: bad manifest magic %#x", magic)
	}
	round, err := next()
	if err != nil {
		return nil, err
	}
	wlen, err := next()
	if err != nil {
		return nil, err
	}
	writer, err := str(wlen)
	if err != nil {
		return nil, err
	}
	count, err := next()
	if err != nil {
		return nil, err
	}
	m.Round = int(round)
	m.Writer = writer
	for i := uint32(0); i < count; i++ {
		klen, err := next()
		if err != nil {
			return nil, err
		}
		module, err := str(klen)
		if err != nil {
			return nil, err
		}
		// EncodeManifest writes entries in strictly ascending order, and
		// Lookup's binary search relies on it: out of order, a present
		// module would read as missing.
		if i > 0 && module <= m.Modules[i-1].Module {
			return nil, fmt.Errorf("cas: manifest entry %q out of order after %q", module, m.Modules[i-1].Module)
		}
		size, err := next64()
		if err != nil {
			return nil, err
		}
		nchunks, err := next()
		if err != nil {
			return nil, err
		}
		e := ModuleEntry{Module: module, Size: int64(size)}
		var sum int64
		for j := uint32(0); j < nchunks; j++ {
			var c ChunkRef
			if pos+len(c.Hash) > len(body) {
				return nil, fmt.Errorf("cas: truncated chunk hash in %q", module)
			}
			copy(c.Hash[:], body[pos:])
			pos += len(c.Hash)
			csize, err := next()
			if err != nil {
				return nil, err
			}
			c.Size = csize
			sum += int64(csize)
			e.Chunks = append(e.Chunks, c)
		}
		if sum != e.Size {
			return nil, fmt.Errorf("cas: manifest entry %q: chunks sum to %d bytes, payload is %d",
				module, sum, e.Size)
		}
		m.Modules = append(m.Modules, e)
	}
	if pos != len(body) {
		return nil, fmt.Errorf("cas: %d trailing manifest bytes", len(body)-pos)
	}
	return m, nil
}
