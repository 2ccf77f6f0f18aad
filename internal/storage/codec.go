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

// checkedBody verifies a blob's checksum and magic and returns the bytes
// the checksum covers plus the tensor count they announce.
func checkedBody(blob []byte) (body []byte, count uint32, err error) {
	// Minimum valid blob: magic + count + CRC (an empty tensor map).
	if len(blob) < codecHeader+codecTrailer {
		return nil, 0, fmt.Errorf("storage: blob too short (%d bytes)", len(blob))
	}
	body = blob[:len(blob)-codecTrailer]
	le := binary.LittleEndian
	if crc32.ChecksumIEEE(body) != le.Uint32(blob[len(body):]) {
		return nil, 0, fmt.Errorf("storage: checksum mismatch")
	}
	if magic := le.Uint32(body); magic != codecMagic {
		return nil, 0, fmt.Errorf("storage: bad magic %#x", magic)
	}
	return body, le.Uint32(body[4:]), nil
}

// DecodeTensors parses a blob produced by EncodeTensors, verifying the
// checksum and structural integrity. Every count the blob announces is
// checked against the bytes that remain before anything is allocated for
// it, so a crafted header cannot ask for more memory than the blob's size.
func DecodeTensors(blob []byte) (map[string][]float32, error) {
	body, count, err := checkedBody(blob)
	if err != nil {
		return nil, err
	}
	pos := codecHeader
	if uint64(count) > uint64(len(body)-pos)/codecPerTensor {
		return nil, fmt.Errorf("storage: blob of %d bytes cannot hold %d tensors", len(blob), count)
	}
	le := binary.LittleEndian
	out := make(map[string][]float32, count)
	for i := uint32(0); i < count; i++ {
		if len(body)-pos < codecPerTensor {
			return nil, fmt.Errorf("storage: truncated blob at offset %d", pos)
		}
		klen := le.Uint32(body[pos:])
		pos += 4
		// The value count follows the key, so 4 bytes must remain after it.
		if uint64(klen) > uint64(len(body)-pos-4) {
			return nil, fmt.Errorf("storage: truncated key")
		}
		key := string(body[pos : pos+int(klen)])
		pos += int(klen)
		vlen := le.Uint32(body[pos:])
		pos += 4
		if uint64(vlen) > uint64(len(body)-pos)/4 {
			return nil, fmt.Errorf("storage: truncated tensor %q", key)
		}
		vals := make([]float32, vlen)
		pos += getFloat32s(vals, body[pos:])
		out[key] = vals
	}
	if pos != len(body) {
		return nil, fmt.Errorf("storage: %d trailing bytes", len(body)-pos)
	}
	return out, nil
}

// DecodeTensorsInto is the inverse of EncodeTensorList: it checks that
// blob holds exactly the tensors of the layout — same keys, same order,
// same lengths — and copies their values into the layout's Data. Nothing
// is written until the checksum and the whole structure have passed, so a
// rejected blob leaves the destination untouched.
func DecodeTensorsInto(blob []byte, tensors []Tensor) error {
	body, count, err := checkedBody(blob)
	if err != nil {
		return err
	}
	if uint64(count) != uint64(len(tensors)) {
		return fmt.Errorf("storage: blob holds %d tensors, want %d", count, len(tensors))
	}
	le := binary.LittleEndian
	pos := codecHeader
	for _, t := range tensors {
		need := codecPerTensor + len(t.Key) + 4*len(t.Data)
		if len(body)-pos < need {
			return fmt.Errorf("storage: blob too short for tensor %q", t.Key)
		}
		// need bounds every read below once the key length is known to match.
		if klen := le.Uint32(body[pos:]); uint64(klen) != uint64(len(t.Key)) || string(body[pos+4:pos+4+len(t.Key)]) != t.Key {
			return fmt.Errorf("storage: blob lacks tensor %q at offset %d", t.Key, pos)
		}
		if vlen := le.Uint32(body[pos+4+len(t.Key):]); uint64(vlen) != uint64(len(t.Data)) {
			return fmt.Errorf("storage: tensor %q holds %d values, want %d", t.Key, vlen, len(t.Data))
		}
		pos += need
	}
	if pos != len(body) {
		return fmt.Errorf("storage: %d trailing bytes", len(body)-pos)
	}
	pos = codecHeader
	for _, t := range tensors {
		pos += codecPerTensor + len(t.Key)
		pos += getFloat32s(t.Data, body[pos:])
	}
	return nil
}
