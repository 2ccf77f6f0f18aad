package cas

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// checkCut requires chunks to be blob cut in order: every chunk non-empty
// and a slice of blob at its own offset, together covering all of it.
func checkCut(t *testing.T, what string, blob []byte, chunks [][]byte) {
	t.Helper()
	if len(blob) == 0 && chunks != nil {
		t.Fatalf("%s: empty payload yielded %d chunks", what, len(chunks))
	}
	off := 0
	for i, c := range chunks {
		if len(c) == 0 || off+len(c) > len(blob) {
			t.Fatalf("%s: chunk %d of %d bytes at offset %d of a %d-byte payload", what, i, len(c), off, len(blob))
		}
		if &c[0] != &blob[off] {
			t.Fatalf("%s: chunk %d does not alias the payload at offset %d", what, i, off)
		}
		off += len(c)
	}
	if off != len(blob) {
		t.Fatalf("%s: chunks cover %d of %d bytes", what, off, len(blob))
	}
}

// sameCut requires two splits to have cut at the same offsets.
func sameCut(t *testing.T, what string, a, b [][]byte) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d chunks, then %d from a copy of the payload", what, len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("%s: chunk %d is %d bytes, then %d from a copy of the payload", what, i, len(a[i]), len(b[i]))
		}
	}
}

// FuzzSplitChunks: both chunkers cut any payload into chunks that
// concatenate to it and alias it, and cut a copy of it at the same
// offsets. Fixed chunks are exactly C but the last, which is in
// (0, 1.25C), at least C/4 unless it is the whole payload, and their count
// follows fixedChunkCount. CDC chunks are within [min, max] but the last,
// which is at most max.
func FuzzSplitChunks(f *testing.F) {
	for _, n := range []int{0, 1, 15, 16, 63, 64, 65, 79, 80, 193, 208, 4<<10 + 300} {
		f.Add(goldenCorpus(n), uint16(63), uint16(15), uint16(192))
	}
	f.Add(goldenCorpus(16<<10), uint16(2047), uint16(511), uint16(6143)) // a golden-boundary shape
	f.Add(goldenCorpus(1000), uint16(0), uint16(0), uint16(0))
	f.Fuzz(func(t *testing.T, blob []byte, size, lo, hi uint16) {
		// The mutator grows inputs towards a megabyte, a million one-byte
		// chunks at C=1; 16 KiB, four of the largest C, covers every
		// boundary case in a fraction of the time.
		blob = blob[:min(len(blob), 16<<10)]
		c := int(size)%4096 + 1
		fixed := splitChunks(blob, c)
		checkCut(t, "fixed", blob, fixed)
		sameCut(t, "fixed", fixed, splitChunks(bytes.Clone(blob), c))
		if want := fixedChunkCount(len(blob), c); len(fixed) != want {
			t.Fatalf("fixed: %d chunks of a %d-byte payload at C=%d, the count rule says %d", len(fixed), len(blob), c, want)
		}
		for i, ch := range fixed {
			last := i == len(fixed)-1
			if !last && len(ch) != c {
				t.Fatalf("fixed: chunk %d of %d is %d bytes, want C=%d", i, len(fixed), len(ch), c)
			}
			if last && (4*len(ch) >= 5*c || len(fixed) > 1 && len(ch) < c/4) {
				t.Fatalf("fixed: last of %d chunks is %d bytes at C=%d, want within [C/4, 1.25C)", len(fixed), len(ch), c)
			}
		}

		// CDC bounds 1 <= min <= avg <= max, the ones Options accepts.
		minC, maxC := int(lo)%c+1, c+int(hi)%(4*c)
		cdc := splitCDC(blob, minC, c, maxC)
		checkCut(t, "cdc", blob, cdc)
		sameCut(t, "cdc", cdc, splitCDC(bytes.Clone(blob), minC, c, maxC))
		for i, ch := range cdc {
			if len(ch) > maxC || len(ch) < minC && i != len(cdc)-1 {
				t.Fatalf("cdc: chunk %d of %d is %d bytes, want within [%d, %d]", i, len(cdc), len(ch), minC, maxC)
			}
		}
	})
}

// withCRC frames body with its CRC32, as EncodeManifest does.
func withCRC(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(bytes.Clone(body), crc32.ChecksumIEEE(body))
}

// checkManifestBlob: a blob DecodeManifest accepts re-encodes byte for
// byte, and is rejected with a byte flipped or cut short.
func checkManifestBlob(t *testing.T, what string, blob []byte, flip, trunc uint16) {
	t.Helper()
	m, err := DecodeManifest(blob)
	if err != nil {
		return
	}
	if re := EncodeManifest(m); !bytes.Equal(re, blob) {
		t.Fatalf("%s: a decoded %d-byte manifest re-encodes to %d different bytes", what, len(blob), len(re))
	}
	bad := bytes.Clone(blob)
	at := int(flip) % len(bad)
	bad[at] ^= byte(flip>>8) | 1
	if _, err := DecodeManifest(bad); err == nil {
		t.Fatalf("%s: byte %d flipped, still decodes", what, at)
	}
	n := int(trunc) % len(blob)
	if _, err := DecodeManifest(blob[:n]); err == nil {
		t.Fatalf("%s: cut to %d of %d bytes, still decodes", what, n, len(blob))
	}
}

// FuzzDecodeManifest: decoding never panics; a manifest that decodes
// re-encodes byte for byte, and with a byte flipped or cut short it is
// rejected. Each input is also tried as a body framed with its own CRC,
// so mutations reach the structural checks behind the checksum.
func FuzzDecodeManifest(f *testing.F) {
	h := func(s string) Hash { return HashBytes([]byte(s)) }
	// TestUnknownManifestVersionFailsCleanly's future-version frame.
	var future manifestWriter
	for _, v := range []uint32{manifestMagicV2, 99, uint32(ChunkingFixed), 7, 1} {
		future.put(v)
	}
	future.buf = append(future.buf, 'w')
	future.put(0)
	seeds := [][]byte{
		EncodeManifest(&Manifest{Round: 42, Writer: "w007", Modules: []ModuleEntry{
			{Module: "a/w", Size: 10, Chunks: []ChunkRef{{h("x"), 6}, {h("y"), 4}}},
			{Module: "empty"},
			{Module: "z/opt", Size: 3, Chunks: []ChunkRef{{h("z"), 3}}},
		}}),
		EncodeManifest(&Manifest{Round: 0, Writer: "legacy", Version: 1, Modules: []ModuleEntry{
			{Module: "gone", Size: 64, Chunks: []ChunkRef{{h("g"), 64}}},
			{Module: "m", Size: 69, Chunks: []ChunkRef{{h("m0"), 64}, {h("m1"), 5}}},
		}}),
		EncodeManifest(&Manifest{Round: 3, Writer: "w1", Chunking: ChunkingCDC, Modules: []ModuleEntry{
			{Module: "m", Size: 5, Chunks: []ChunkRef{{h("hello"), 5}}},
		}}),
		EncodeManifest(&Manifest{Round: 1, Writer: "w"}),
		withCRC(future.buf),
	}
	for i, blob := range seeds {
		f.Add(blob, uint16(7*i), uint16(len(blob)-1))
		f.Add(blob[:len(blob)-4], uint16(len(blob)/2), uint16(i))
	}
	f.Fuzz(func(t *testing.T, blob []byte, flip, trunc uint16) {
		checkManifestBlob(t, "as given", blob, flip, trunc)
		checkManifestBlob(t, "framed", withCRC(blob), flip, trunc)
	})
}
