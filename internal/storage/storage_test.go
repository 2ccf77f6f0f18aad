package storage

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"moc/internal/rng"
)

func TestCodecRoundTrip(t *testing.T) {
	in := map[string][]float32{
		"layer0.moe.expert1/w": {1, -2.5, 3.25},
		"embed.token/w":        {},
		"head/opt.m":           {math.MaxFloat32, -math.MaxFloat32, 0},
	}
	out, err := DecodeTensors(EncodeTensors(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d tensors, want %d", len(out), len(in))
	}
	for k, v := range in {
		got := out[k]
		if len(got) != len(v) {
			t.Fatalf("%s: length %d, want %d", k, len(got), len(v))
		}
		for i := range v {
			if got[i] != v[i] {
				t.Fatalf("%s[%d] = %v, want %v", k, i, got[i], v[i])
			}
		}
	}
}

func TestCodecDeterministic(t *testing.T) {
	in := map[string][]float32{"b": {2}, "a": {1}, "c": {3}}
	b1 := EncodeTensors(in)
	b2 := EncodeTensors(in)
	if !reflect.DeepEqual(b1, b2) {
		t.Fatal("encoding not deterministic")
	}
}

func TestCodecRejectsCorruption(t *testing.T) {
	blob := EncodeTensors(map[string][]float32{"x": {1, 2, 3}})
	for _, i := range []int{0, 5, len(blob) / 2, len(blob) - 1} {
		bad := append([]byte(nil), blob...)
		bad[i] ^= 0xff
		if _, err := DecodeTensors(bad); err == nil {
			t.Fatalf("corruption at byte %d undetected", i)
		}
	}
	if _, err := DecodeTensors(blob[:8]); err == nil {
		t.Fatal("short blob accepted")
	}
	if _, err := DecodeTensors(nil); err == nil {
		t.Fatal("nil blob accepted")
	}
}

func TestCodecPropertyRoundTrip(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		n := r.Intn(5) + 1
		in := make(map[string][]float32, n)
		for i := 0; i < n; i++ {
			name := string(rune('a'+i)) + "/tensor"
			vals := make([]float32, r.Intn(20))
			for j := range vals {
				vals[j] = r.NormFloat32(0, 100)
			}
			in[name] = vals
		}
		out, err := DecodeTensors(EncodeTensors(in))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(in, out)
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotStoreBasics(t *testing.T) {
	s := NewSnapshotStore()
	if err := s.Put("r0/moduleA", []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("r0/moduleB", []byte{4}); err != nil {
		t.Fatal(err)
	}
	if s.Bytes() != 4 {
		t.Fatalf("bytes = %d, want 4", s.Bytes())
	}
	got, err := s.Get("r0/moduleA")
	if err != nil || len(got) != 3 {
		t.Fatalf("Get: %v %v", got, err)
	}
	// Mutating the returned slice must not affect the store.
	got[0] = 99
	again, _ := s.Get("r0/moduleA")
	if again[0] != 1 {
		t.Fatal("Get returned aliased storage")
	}
	keys, _ := s.Keys("r0/")
	if len(keys) != 2 || keys[0] != "r0/moduleA" {
		t.Fatalf("Keys: %v", keys)
	}
	// Overwrite adjusts the byte count.
	s.Put("r0/moduleB", []byte{1, 2, 3, 4, 5})
	if s.Bytes() != 8 {
		t.Fatalf("bytes after overwrite = %d, want 8", s.Bytes())
	}
	s.Delete("r0/moduleA")
	if _, err := s.Get("r0/moduleA"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted key error = %v", err)
	}
	s.Delete("r0/moduleB")
	if s.Bytes() != 0 {
		t.Fatal("Delete left bytes behind")
	}
}

func TestMemStore(t *testing.T) {
	m := NewMemStore()
	if err := m.Put("ckpt/1/a", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := m.Put("ckpt/2/a", []byte("world!")); err != nil {
		t.Fatal(err)
	}
	b, err := m.Get("ckpt/1/a")
	if err != nil || string(b) != "hello" {
		t.Fatalf("Get: %q %v", b, err)
	}
	if _, err := m.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key error = %v", err)
	}
	keys, _ := m.Keys("ckpt/")
	if len(keys) != 2 {
		t.Fatalf("Keys: %v", keys)
	}
	puts, bytes := m.Stats()
	if puts != 2 || bytes != 11 {
		t.Fatalf("Stats: %d puts %d bytes", puts, bytes)
	}
	if err := m.Delete("ckpt/1/a"); err != nil {
		t.Fatal(err)
	}
	keys, _ = m.Keys("ckpt/")
	if len(keys) != 1 {
		t.Fatalf("Keys after delete: %v", keys)
	}
}

func TestFSStore(t *testing.T) {
	dir := t.TempDir()
	f, err := NewFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	blob := EncodeTensors(map[string][]float32{"w": {1, 2}})
	if err := f.Put("round0/rank0/expert1", blob); err != nil {
		t.Fatal(err)
	}
	got, err := f.Get("round0/rank0/expert1")
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeTensors(got)
	if err != nil || dec["w"][1] != 2 {
		t.Fatalf("round trip through FS failed: %v %v", dec, err)
	}
	keys, err := f.Keys("round0/")
	if err != nil || len(keys) != 1 || keys[0] != "round0/rank0/expert1" {
		t.Fatalf("Keys: %v %v", keys, err)
	}
	if _, err := f.Get("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key error = %v", err)
	}
	if err := f.Delete("round0/rank0/expert1"); err != nil {
		t.Fatal(err)
	}
	if err := f.Delete("round0/rank0/expert1"); err != nil {
		t.Fatal("double delete should be a no-op")
	}
	if _, err := f.Get("round0/rank0/expert1"); !errors.Is(err, ErrNotFound) {
		t.Fatal("key survived delete")
	}
}

// TestFSStoreKeysBesideConcurrentPutDelete: regression for a tier-1
// flake. Walk lstat-s entries after reading their directory, so a Put's
// temp file renamed away (or a key deleted) mid-walk used to fail the
// whole listing with "lstat ….tmp: no such file or directory". A listing
// beside writers must succeed, always hold the untouched keys, and never
// show a temp file.
func TestFSStoreKeysBesideConcurrentPutDelete(t *testing.T) {
	f, err := NewFSStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	stable := []string{"dir/stable0", "dir/stable1", "dir/stable2"}
	for _, k := range stable {
		if err := f.Put(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			blob := make([]byte, 512)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := fmt.Sprintf("dir/churn%d-%d", w, i%16)
				if err := f.Put(k, blob); err != nil {
					t.Errorf("put %s: %v", k, err)
					return
				}
				if err := f.Delete(k); err != nil {
					t.Errorf("delete %s: %v", k, err)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 400; i++ {
		keys, err := f.Keys("dir/")
		if err != nil {
			t.Errorf("listing %d beside writers: %v", i, err)
			break
		}
		have := make(map[string]bool, len(keys))
		for _, k := range keys {
			if strings.HasSuffix(k, ".tmp") {
				t.Errorf("listing %d shows temp file %s", i, k)
			}
			have[k] = true
		}
		for _, k := range stable {
			if !have[k] {
				t.Errorf("listing %d lost stable key %s", i, k)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestFSStorePutConcurrentSameKey(t *testing.T) {
	// Regression: Put used a shared "<path>.tmp" temp file, so two
	// concurrent writers to the same key could rename a torn or foreign
	// blob into place. With per-write unique temp files the final value
	// must be exactly one writer's complete payload.
	dir := t.TempDir()
	f, err := NewFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	const writers = 8
	const rounds = 50
	payloads := make([][]byte, writers)
	for w := range payloads {
		p := make([]byte, 4096)
		for i := range p {
			p[i] = byte(w)
		}
		payloads[w] = p
	}
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := f.Put("shared/key", payloads[w]); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	got, err := f.Get("shared/key")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4096 {
		t.Fatalf("torn blob: %d bytes", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] != got[0] {
			t.Fatalf("mixed blob: byte %d is %d, byte 0 is %d", i, got[i], got[0])
		}
	}
	// No temp files left behind, and Keys does not surface them.
	keys, err := f.Keys("")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != "shared/key" {
		t.Fatalf("unexpected keys after concurrent writes: %v", keys)
	}
	entries, err := os.ReadDir(filepath.Join(dir, "shared"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("leftover temp files: %v", entries)
	}
}

func TestCodecNaNAndSpecialValues(t *testing.T) {
	nan := math.Float32frombits(0x7fc00001) // quiet NaN with payload
	in := map[string][]float32{
		"nan":    {float32(math.NaN()), nan, 0},
		"inf":    {float32(math.Inf(1)), float32(math.Inf(-1))},
		"denorm": {math.Float32frombits(1)},
		"empty":  {},
	}
	out, err := DecodeTensors(EncodeTensors(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d tensors, want %d", len(out), len(in))
	}
	// NaN != NaN, so compare bit patterns.
	for k, v := range in {
		got := out[k]
		if len(got) != len(v) {
			t.Fatalf("%s: length %d, want %d", k, len(got), len(v))
		}
		for i := range v {
			if math.Float32bits(got[i]) != math.Float32bits(v[i]) {
				t.Fatalf("%s[%d]: bits %#x, want %#x", k, i,
					math.Float32bits(got[i]), math.Float32bits(v[i]))
			}
		}
	}
}

func TestCodecEmptyMap(t *testing.T) {
	out, err := DecodeTensors(EncodeTensors(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("decoded %d tensors from empty encode", len(out))
	}
}

func TestCodecBitFlipSweep(t *testing.T) {
	// Every single-byte corruption anywhere in the blob must be caught
	// (CRC32 detects all single-bit and single-byte errors).
	blob := EncodeTensors(map[string][]float32{
		"a/w": {1.5, -2.25, 3}, "b/opt": {0, 42},
	})
	for i := range blob {
		bad := append([]byte(nil), blob...)
		bad[i] ^= 0x01
		if _, err := DecodeTensors(bad); err == nil {
			t.Fatalf("single-bit corruption at byte %d undetected", i)
		}
	}
	// Truncation at every length must be caught too.
	for n := 0; n < len(blob); n++ {
		if _, err := DecodeTensors(blob[:n]); err == nil {
			t.Fatalf("truncation to %d bytes undetected", n)
		}
	}
}

func TestFSStoreRejectsEscapingKeys(t *testing.T) {
	f, err := NewFSStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"../evil", "/abs/path", "a/../../b"} {
		if err := f.Put(k, []byte("x")); err == nil {
			t.Errorf("key %q accepted", k)
		}
	}
}

func TestMemStoreBandwidthSimulation(t *testing.T) {
	m := NewMemStore()
	m.BandwidthBps = 1e12 // effectively instant, but exercises the path
	if err := m.Put("k", make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
}

func TestMemStoreBandwidthDebtChargesOnAverage(t *testing.T) {
	// Sub-quantum transfers must be charged their modeled time on
	// average (accrued as debt, slept in quanta) — not each rounded up
	// to timer granularity. 64 puts of 64 KiB at 100 MiB/s model 40 ms
	// total; the old per-put sleep cost ~1 ms x 64 regardless of size.
	m := NewMemStore()
	m.BandwidthBps = 100 << 20
	start := time.Now()
	for i := 0; i < 64; i++ {
		if err := m.Put(fmt.Sprintf("k%d", i), make([]byte, 64<<10)); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	if modeled := 40 * time.Millisecond; elapsed < modeled/2 {
		t.Fatalf("64 x 64KiB at 100MiB/s took %v, modeled %v — bandwidth not charged", elapsed, modeled)
	}
}

func TestSnapshotStoreConcurrency(t *testing.T) {
	s := NewSnapshotStore()
	done := make(chan struct{})
	go func() {
		for i := 0; i < 500; i++ {
			s.Put("a", []byte{byte(i)})
		}
		close(done)
	}()
	for i := 0; i < 500; i++ {
		s.Get("a")
		s.Keys("")
		s.Bytes()
	}
	<-done
}

//moc:allow bufpool this test exercises pool mechanics; dropping buffers is the point, not a leak
func TestBufPoolRecycles(t *testing.T) {
	b := GetBuf(1000)
	if len(b) != 1000 || cap(b) != 1024 {
		t.Fatalf("GetBuf(1000): len=%d cap=%d, want 1000/1024", len(b), cap(b))
	}
	for i := range b {
		b[i] = 0xAB
	}
	PutBuf(b)
	c := GetBuf(900) // same class: may be the recycled buffer
	if len(c) != 900 {
		t.Fatalf("GetBuf(900): len=%d", len(c))
	}
	// Odd capacities are dropped, not misfiled.
	PutBuf(make([]byte, 10, 1000))
	// Degenerate sizes must not panic.
	PutBuf(nil)
	if z := GetBuf(0); len(z) != 0 {
		t.Fatalf("GetBuf(0): len=%d", len(z))
	}
	if one := GetBuf(1); len(one) != 1 {
		t.Fatalf("GetBuf(1): len=%d", len(one))
	}
	cp := CopyBuf([]byte{1, 2, 3})
	if len(cp) != 3 || cp[0] != 1 || cp[2] != 3 {
		t.Fatalf("CopyBuf: %v", cp)
	}
}

func TestSnapshotStorePooledBuffersStayPrivate(t *testing.T) {
	// Get must return copies: recycling a replaced snapshot buffer can
	// never corrupt a blob a reader already holds.
	s := NewSnapshotStore()
	if err := s.Put("k", []byte("round-one-state")); err != nil {
		t.Fatal(err)
	}
	held, err := s.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite many times: the original buffer goes back to the pool
	// and gets reused/overwritten.
	for i := 0; i < 64; i++ {
		if err := s.Put("k", []byte(fmt.Sprintf("round-%03d-state", i))); err != nil {
			t.Fatal(err)
		}
	}
	if string(held) != "round-one-state" {
		t.Fatalf("reader's copy corrupted by pooled reuse: %q", held)
	}
	if s.Bytes() != int64(len("round-063-state")) {
		t.Fatalf("byte accounting drifted: %d", s.Bytes())
	}
	if err := s.Delete("k"); err != nil || s.Bytes() != 0 {
		t.Fatalf("delete: %v bytes=%d", err, s.Bytes())
	}
}

func TestMemStoreGetView(t *testing.T) {
	m := NewMemStore()
	if err := m.Put("k", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	v1, err := m.GetView("k")
	if err != nil || string(v1) != "abc" {
		t.Fatalf("view: %q %v", v1, err)
	}
	// Overwriting replaces the stored slice; the old view stays intact.
	if err := m.Put("k", []byte("xyz")); err != nil {
		t.Fatal(err)
	}
	if string(v1) != "abc" {
		t.Fatalf("outstanding view mutated by overwrite: %q", v1)
	}
	if _, err := m.GetView("absent"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("GetView(absent) = %v, want ErrNotFound", err)
	}
}

// codecGolden is what the map encoder this repository shipped before the
// one-pass list encoder produced for codecGoldenTensors: checkpoints
// written then must decode now, and chunk hashes and dedup must not move.
const codecGolden = "21436f4d040000000400000070302e6d000000000400000070302e76030000000000807f00000000000000be03000000703130020000000000c03f000010c002000000703201000000000040401857e706"

func codecGoldenTensors() map[string][]float32 {
	return map[string][]float32{
		"p10": {1.5, -2.25}, "p2": {3}, "p0.m": {}, "p0.v": {float32(math.Inf(1)), 0, -0.125},
	}
}

func TestCodecWireFormatIsPinned(t *testing.T) {
	got := EncodeTensors(codecGoldenTensors())
	if hex.EncodeToString(got) != codecGolden {
		t.Fatalf("wire bytes changed:\n got %x\nwant %s", got, codecGolden)
	}
	// The list encoder is the same format given the same order.
	list := []Tensor{
		{"p0.m", nil}, {"p0.v", []float32{float32(math.Inf(1)), 0, -0.125}},
		{"p10", []float32{1.5, -2.25}}, {"p2", []float32{3}},
	}
	if fromList := EncodeTensorList(list); !bytes.Equal(fromList, got) {
		t.Fatalf("list encoder differs from map encoder:\n%x\n%x", fromList, got)
	}
}

// craftBlob wraps a body in the codec's magic and a valid checksum, so
// only the structural checks stand between it and the decoder.
func craftBlob(afterMagic ...uint32) []byte {
	blob := binary.LittleEndian.AppendUint32(nil, codecMagic)
	for _, v := range afterMagic {
		blob = binary.LittleEndian.AppendUint32(blob, v)
	}
	return binary.LittleEndian.AppendUint32(blob, crc32.ChecksumIEEE(blob))
}

func TestDecodeBoundsCountsBeforeAllocating(t *testing.T) {
	// Well-formed checksum, absurd counts: the decoder must refuse from
	// the blob's size alone, not after reserving what the header asks for.
	crafted := map[string][]byte{
		"tensor count":      craftBlob(0xFFFFFFFF),
		"count over a body": craftBlob(0x10000000, 0, 0),
		"key length":        craftBlob(1, 0xFFFFFFFF, 0),
		"value count":       craftBlob(1, 0, 0xFFFFFFFF),
	}
	for name, blob := range crafted {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		_, err := DecodeTensors(blob)
		runtime.ReadMemStats(&m1)
		if err == nil {
			t.Errorf("%s: crafted blob decoded", name)
		}
		if grew := m1.TotalAlloc - m0.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: decoder allocated %d bytes for a %d-byte blob", name, grew, len(blob))
		}
		dst := []Tensor{{"k", make([]float32, 1)}}
		if err := DecodeTensorsInto([][]byte{blob}, dst); err == nil {
			t.Errorf("%s: crafted blob decoded into a layout", name)
		}
	}
}

func TestDecodeTensorsIntoRoundTrip(t *testing.T) {
	src := []Tensor{{"p0", []float32{1, 2, 3}}, {"p1", nil}, {"p10", []float32{-4.5}}, {"p2", []float32{6, 7}}}
	blob := EncodeTensorList(src)
	defer PutBuf(blob)
	dst := []Tensor{{"p0", make([]float32, 3)}, {"p1", nil}, {"p10", make([]float32, 1)}, {"p2", make([]float32, 2)}}
	if err := DecodeTensorsInto([][]byte{blob}, dst); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		for j, v := range src[i].Data {
			if dst[i].Data[j] != v {
				t.Fatalf("%s[%d] = %v, want %v", src[i].Key, j, dst[i].Data[j], v)
			}
		}
	}
	asMap, err := DecodeTensors(blob)
	if err != nil || len(asMap) != len(src) || asMap["p10"][0] != -4.5 {
		t.Fatalf("map decoder disagrees: %v %v", asMap, err)
	}
}

func TestDecodeTensorsIntoRejectsWithoutWriting(t *testing.T) {
	blob := EncodeTensors(map[string][]float32{"p0": {1, 2, 3}, "p1": {4, 5}})
	layout := func() []Tensor {
		return []Tensor{{"p0", []float32{-1, -1, -1}}, {"p1", []float32{-1, -1}}}
	}
	untouched := func(t *testing.T, dst []Tensor) {
		t.Helper()
		for _, d := range dst {
			for i, v := range d.Data {
				if v != -1 {
					t.Fatalf("%s[%d] written (%v) by a rejected decode", d.Key, i, v)
				}
			}
		}
	}
	cases := map[string]func() ([]byte, []Tensor){
		"wrong length": func() ([]byte, []Tensor) {
			dst := layout()
			dst[1].Data = []float32{-1, -1, -1}
			return blob, dst
		},
		"missing tensor": func() ([]byte, []Tensor) {
			return blob, append(layout(), Tensor{"p2", []float32{-1}})
		},
		"tensor the layout lacks": func() ([]byte, []Tensor) {
			return blob, layout()[:1]
		},
		"other key": func() ([]byte, []Tensor) {
			dst := layout()
			dst[1].Key = "p9"
			return blob, dst
		},
		"trailing bytes": func() ([]byte, []Tensor) {
			body := append(append([]byte(nil), blob[:len(blob)-4]...), 0, 0, 0, 0)
			return binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body)), layout()
		},
		"truncated": func() ([]byte, []Tensor) { return blob[:len(blob)-6], layout() },
	}
	for name, build := range cases {
		b, dst := build()
		if err := DecodeTensorsInto([][]byte{b}, dst); err == nil {
			t.Errorf("%s: accepted", name)
		}
		untouched(t, dst)
	}
	// A bad checksum anywhere — including in the last tensor, after the
	// first one would already have been copied by a streaming decoder.
	for i := range blob {
		bad := append([]byte(nil), blob...)
		bad[i] ^= 0x40
		dst := layout()
		if err := DecodeTensorsInto([][]byte{bad}, dst); err == nil {
			t.Fatalf("corruption at byte %d accepted", i)
		}
		untouched(t, dst)
	}
	dst := layout()
	if err := DecodeTensorsInto([][]byte{blob}, dst); err != nil || dst[0].Data[2] != 3 || dst[1].Data[1] != 5 {
		t.Fatalf("intact blob: %v %v", err, dst)
	}
}

func TestSnapshotStoreAdoptSharesAndReturnsTheOldBuffer(t *testing.T) {
	s := NewSnapshotStore()
	first := CopyBuf([]byte("round-0"))
	firstAt := &first[0]
	if old := s.Adopt("k", first); old != nil {
		t.Fatalf("first adopt replaced %q", old)
	}
	second := CopyBuf([]byte("round-01"))
	secondAt := &second[0]
	old := s.Adopt("k", second)
	if len(old) == 0 || &old[0] != firstAt {
		t.Fatal("adopt did not hand back the buffer it replaced")
	}
	// The replaced buffer is the caller's: nothing recycled it behind the
	// caller's back, so a reader still sharing it sees its bytes.
	if string(old) != "round-0" {
		t.Fatalf("replaced buffer changed: %q", old)
	}
	PutBuf(old)
	if got, _ := s.Get("k"); string(got) != "round-01" || s.Bytes() != 8 {
		t.Fatalf("store holds %q (%d bytes)", got, s.Bytes())
	}
	last := s.Adopt("k", CopyBuf([]byte("round-2")))
	if len(last) == 0 || &last[0] != secondAt || s.Bytes() != 7 {
		t.Fatalf("second replacement handed back the wrong buffer, %d bytes resident", s.Bytes())
	}
	PutBuf(last)
}

// TestSnapshotStoreNeverRecyclesALentBuffer: a buffer handed out by Lend
// is the stored one, and no way a slot lets go of it — Adopt, Put, Delete —
// returns or pools it while the loan is open; once EndLoans has
// been called the slot hands its buffer back as before.
func TestSnapshotStoreNeverRecyclesALentBuffer(t *testing.T) {
	s := NewSnapshotStore()
	at := map[string]*byte{}
	for _, k := range []string{"adopt", "put", "delete", "ended", "kept"} {
		b := CopyBuf([]byte("state-of-" + k))
		at[k] = &b[0]
		s.Adopt(k, b)
	}
	if _, err := s.Lend("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("lend of a missing key: %v", err)
	}
	lent := map[string][]byte{}
	for _, k := range []string{"adopt", "put", "delete"} {
		b, err := s.Lend(k)
		if err != nil || &b[0] != at[k] {
			t.Fatalf("%s: lend returned a copy (%v)", k, err)
		}
		lent[k] = b
	}

	old := s.Adopt("adopt", CopyBuf([]byte("next")))
	if old != nil {
		t.Fatal("Adopt handed a lent buffer to its caller")
	}
	old = s.Adopt("adopt", CopyBuf([]byte("next-2")))
	if string(old) != "next" {
		t.Fatalf("the buffer that replaced a lent one is not lent: Adopt returned %q", old)
	}
	PutBuf(old)
	if err := s.Put("put", []byte("overwritten!")); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("delete"); err != nil {
		t.Fatal(err)
	}
	// Whatever was pooled is handed out again and scribbled on.
	for i := 0; i < 256; i++ {
		b := GetBuf(len("state-of-delete"))
		for j := range b {
			b[j] = '#'
		}
		defer PutBuf(b)
	}
	for _, k := range []string{"adopt", "put", "delete"} {
		if string(lent[k]) != "state-of-"+k {
			t.Fatalf("%s: lent buffer recycled under its borrower: %q", k, lent[k])
		}
	}

	if _, err := s.Lend("ended"); err != nil {
		t.Fatal(err)
	}
	s.EndLoans()
	old = s.Adopt("ended", CopyBuf([]byte("next")))
	if len(old) == 0 || &old[0] != at["ended"] {
		t.Fatal("after EndLoans a replaced slot must hand its buffer back")
	}
	PutBuf(old)
}
