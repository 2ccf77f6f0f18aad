// Package storage provides the checkpoint storage substrate: a binary
// codec for tensor state with integrity checksums, a CPU-memory snapshot
// store (one per simulated node), and persistent stores backed by memory
// (with optional simulated bandwidth) or the local filesystem — the stand-
// in for the distributed filesystem of the paper's clusters. Checkpointed
// modules are addressed by key-value pairs (§5.1) so both levels of the
// two-level management can retrieve them independently.
package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"sort"
)

// codecMagic guards against decoding foreign blobs.
const codecMagic = 0x4d6f4321 // "MoC!"

// Wire format, little-endian: magic, tensor count, then per tensor in
// ascending key order {key length, key, value count, float32 bits}, and a
// trailing CRC32 (IEEE) of everything before it.
const (
	codecHeader    = 8 // magic + count
	codecPerTensor = 8 // key length + value count
	codecTrailer   = 4 // crc
)

// Tensor is one named tensor of a blob. A []Tensor in ascending key order
// is a blob's layout: EncodeTensorList reads Data, DecodeTensorsInto
// writes it, so state moves between the owner's memory and the wire bytes
// in one pass with no intermediate copy.
type Tensor struct {
	Key  string
	Data []float32
}

// EncodeTensorList serializes tensors, which must be in ascending key
// order with distinct keys, into a self-describing blob with a trailing
// CRC32 checksum. The blob is a pooled buffer (GetBuf) the caller owns.
func EncodeTensorList(tensors []Tensor) []byte {
	size := codecHeader + codecTrailer
	for _, t := range tensors {
		size += codecPerTensor + len(t.Key) + 4*len(t.Data)
	}
	buf := GetBuf(size)
	le := binary.LittleEndian
	le.PutUint32(buf, codecMagic)
	le.PutUint32(buf[4:], uint32(len(tensors)))
	pos := codecHeader
	for _, t := range tensors {
		le.PutUint32(buf[pos:], uint32(len(t.Key)))
		pos += 4 + copy(buf[pos+4:], t.Key)
		le.PutUint32(buf[pos:], uint32(len(t.Data)))
		pos += 4
		pos += putFloat32s(buf[pos:], t.Data)
	}
	le.PutUint32(buf[pos:], crc32.ChecksumIEEE(buf[:pos]))
	return buf
}

// putFloat32s writes src's bits to dst, little-endian, and returns the
// byte count. It is the copy of a whole checkpoint, so it is unrolled over
// fixed-size windows the compiler needs no bounds checks for — twice the
// throughput of the element-at-a-time loop on a model that has left the
// cache.
func putFloat32s(dst []byte, src []float32) int {
	n := 4 * len(src)
	le := binary.LittleEndian
	for len(src) >= 4 && len(dst) >= 16 {
		le.PutUint32(dst[0:4], math.Float32bits(src[0]))
		le.PutUint32(dst[4:8], math.Float32bits(src[1]))
		le.PutUint32(dst[8:12], math.Float32bits(src[2]))
		le.PutUint32(dst[12:16], math.Float32bits(src[3]))
		src, dst = src[4:], dst[16:]
	}
	for i, f := range src {
		le.PutUint32(dst[4*i:], math.Float32bits(f))
	}
	return n
}

// getFloat32s is the inverse: it fills dst from src and returns the byte
// count.
func getFloat32s(dst []float32, src []byte) int {
	n := 4 * len(dst)
	le := binary.LittleEndian
	for len(dst) >= 4 && len(src) >= 16 {
		dst[0] = math.Float32frombits(le.Uint32(src[0:4]))
		dst[1] = math.Float32frombits(le.Uint32(src[4:8]))
		dst[2] = math.Float32frombits(le.Uint32(src[8:12]))
		dst[3] = math.Float32frombits(le.Uint32(src[12:16]))
		dst, src = dst[4:], src[16:]
	}
	for i := range dst {
		dst[i] = math.Float32frombits(le.Uint32(src[4*i:]))
	}
	return n
}

// EncodeTensors serializes named float32 tensors (see EncodeTensorList).
// Keys are written in sorted order so encoding is deterministic.
func EncodeTensors(tensors map[string][]float32) []byte {
	list := make([]Tensor, 0, len(tensors))
	for k, v := range tensors {
		list = append(list, Tensor{Key: k, Data: v})
	}
	sort.Slice(list, func(i, j int) bool { return list[i].Key < list[j].Key })
	return EncodeTensorList(list)
}

// blobReader reads a blob held as parts front to back, across part
// boundaries: a payload read from storage is decoded from its chunk
// views, never joined first. Callers bound every read by the blob's size.
type blobReader struct {
	parts   [][]byte
	cur     []byte // the unread rest of the current part
	scratch []byte // holds what take returns when it straddles parts
}

func (r *blobReader) fill() {
	for len(r.cur) == 0 && len(r.parts) > 0 {
		r.cur, r.parts = r.parts[0], r.parts[1:]
	}
}

// read fills dst with the next len(dst) bytes.
func (r *blobReader) read(dst []byte) {
	for len(dst) > 0 {
		r.fill()
		n := copy(dst, r.cur)
		r.cur, dst = r.cur[n:], dst[n:]
	}
}

// take returns the next n bytes: a view of the current part when they lie
// in it, else a copy in scratch, valid until the next take.
func (r *blobReader) take(n int) []byte {
	r.fill()
	if len(r.cur) >= n {
		b := r.cur[:n]
		r.cur = r.cur[n:]
		return b
	}
	r.scratch = slices.Grow(r.scratch[:0], n)[:n]
	r.read(r.scratch)
	return r.scratch
}

func (r *blobReader) u32() uint32 {
	r.fill()
	if len(r.cur) >= 4 {
		v := binary.LittleEndian.Uint32(r.cur)
		r.cur = r.cur[4:]
		return v
	}
	var b [4]byte
	r.read(b[:])
	return binary.LittleEndian.Uint32(b[:])
}

func (r *blobReader) skip(n int) {
	for n > 0 {
		r.fill()
		k := min(n, len(r.cur))
		r.cur = r.cur[k:]
		n -= k
	}
}

// floats fills dst straight from the parts; a float that content-defined
// chunking cut in two is put together from both sides.
func (r *blobReader) floats(dst []float32) {
	for len(dst) > 0 {
		r.fill()
		if n := min(len(r.cur)/4, len(dst)); n > 0 {
			r.cur = r.cur[getFloat32s(dst[:n], r.cur):]
			dst = dst[n:]
			continue
		}
		dst[0] = math.Float32frombits(r.u32())
		dst = dst[1:]
	}
}

// checkTensors is the decoder's check phase: the checksum, the magic and
// the whole structure of a blob held as parts, with every count the blob
// announces bounded by the bytes that remain before anything relies on
// it. A non-nil want is the layout the blob must hold — same keys, same
// order, same lengths; a nil want accepts any. visit, when set, sees each
// tensor's key (valid during the call) and value count once both passed.
// It writes nothing, so a blob it rejects leaves every destination as it
// was.
func checkTensors(parts [][]byte, want []Tensor, visit func(key []byte, n int)) error {
	size := 0
	for _, p := range parts {
		size += len(p)
	}
	// Minimum valid blob: magic + count + CRC (an empty tensor map).
	if size < codecHeader+codecTrailer {
		return fmt.Errorf("storage: blob too short (%d bytes)", size)
	}
	body := size - codecTrailer
	crc, rest := uint32(0), body
	for _, p := range parts {
		k := min(len(p), rest)
		crc = crc32.Update(crc, crc32.IEEETable, p[:k])
		rest -= k
	}
	r := blobReader{parts: parts}
	r.skip(body)
	if crc != r.u32() {
		return fmt.Errorf("storage: checksum mismatch")
	}
	r = blobReader{parts: parts}
	if magic := r.u32(); magic != codecMagic {
		return fmt.Errorf("storage: bad magic %#x", magic)
	}
	count := r.u32()
	if want != nil && uint64(count) != uint64(len(want)) {
		return fmt.Errorf("storage: blob holds %d tensors, want %d", count, len(want))
	}
	pos := codecHeader
	if uint64(count) > uint64(body-pos)/codecPerTensor {
		return fmt.Errorf("storage: blob of %d bytes cannot hold %d tensors", size, count)
	}
	for i := 0; i < int(count); i++ {
		if body-pos < codecPerTensor {
			return fmt.Errorf("storage: truncated blob at offset %d", pos)
		}
		klen := r.u32()
		pos += 4
		// The value count follows the key, so 4 bytes must remain after it.
		if uint64(klen) > uint64(body-pos-4) {
			return fmt.Errorf("storage: truncated key")
		}
		key := r.take(int(klen))
		if want != nil && string(key) != want[i].Key {
			return fmt.Errorf("storage: blob lacks tensor %q at offset %d", want[i].Key, pos-4)
		}
		pos += int(klen)
		vlen := r.u32()
		pos += 4
		if uint64(vlen) > uint64(body-pos)/4 {
			return fmt.Errorf("storage: truncated tensor %q", key)
		}
		if want != nil && uint64(vlen) != uint64(len(want[i].Data)) {
			return fmt.Errorf("storage: tensor %q holds %d values, want %d", key, vlen, len(want[i].Data))
		}
		if visit != nil {
			visit(key, int(vlen))
		}
		r.skip(4 * int(vlen))
		pos += 4 * int(vlen)
	}
	if pos != body {
		return fmt.Errorf("storage: %d trailing bytes", body-pos)
	}
	return nil
}

// CheckTensors verifies a blob held as parts — checksum and structure —
// without decoding it: what a read-back verification needs.
func CheckTensors(parts ...[]byte) error {
	return checkTensors(parts, nil, nil)
}

// DecodeTensors parses a blob produced by EncodeTensors, held whole or as
// parts, into fresh tensors once the checksum and the structure have
// passed. Every count the blob announces is checked against the bytes that
// remain before anything is allocated for it, so a crafted header cannot
// ask for more memory than the blob's size.
func DecodeTensors(parts ...[]byte) (map[string][]float32, error) {
	var layout []Tensor
	if err := checkTensors(parts, nil, func(key []byte, n int) {
		layout = append(layout, Tensor{Key: string(key), Data: make([]float32, n)})
	}); err != nil {
		return nil, err
	}
	decodeChecked(parts, layout)
	out := make(map[string][]float32, len(layout))
	for _, t := range layout {
		out[t.Key] = t.Data
	}
	return out, nil
}

// DecodeTensorsInto is the inverse of EncodeTensorList for a blob held as
// parts — a module's chunk views as storage returned them, or one whole
// blob: it checks that the blob holds exactly the tensors of the layout —
// same keys, same order, same lengths — and copies their values into the
// layout's Data straight from the parts. Nothing is written until the
// checksum and the whole structure have passed, so a rejected blob leaves
// the destination untouched.
func DecodeTensorsInto(parts [][]byte, tensors []Tensor) error {
	if tensors == nil {
		tensors = []Tensor{} // an empty layout, not checkTensors' "any"
	}
	if err := checkTensors(parts, tensors, nil); err != nil {
		return err
	}
	decodeChecked(parts, tensors)
	return nil
}

// decodeChecked is the decoder's copy phase, for a layout checkTensors
// has accepted the parts for.
func decodeChecked(parts [][]byte, tensors []Tensor) {
	r := blobReader{parts: parts}
	r.skip(codecHeader)
	for _, t := range tensors {
		r.skip(codecPerTensor + len(t.Key))
		r.floats(t.Data)
	}
}
