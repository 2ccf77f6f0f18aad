package storage

import (
	"math"
	"testing"
)

// cutParts cuts blob where the gaps say: each gap byte is the length of
// the next part (0 makes an empty part), and the rest of the blob is the
// last one. Gaps under 8 land cuts inside key lengths, keys, value counts
// and single floats.
func cutParts(blob, gaps []byte) [][]byte {
	var parts [][]byte
	for _, g := range gaps {
		n := min(int(g), len(blob))
		parts = append(parts, blob[:n])
		blob = blob[n:]
	}
	return append(parts, blob)
}

// blobLayout is the layout a blob holds, in blob order, with every value
// set to a sentinel a decode must overwrite; nil when the blob is
// rejected.
func blobLayout(blob []byte) []Tensor {
	layout := []Tensor{}
	if err := checkTensors([][]byte{blob}, nil, func(key []byte, n int) {
		data := make([]float32, n)
		for i := range data {
			data[i] = sentinel
		}
		layout = append(layout, Tensor{Key: string(key), Data: data})
	}); err != nil {
		return nil
	}
	return layout
}

var sentinel = math.Float32frombits(0x7fa5a5a5) // a NaN no blob below holds

func cloneLayout(layout []Tensor) []Tensor {
	out := make([]Tensor, len(layout))
	for i, t := range layout {
		out[i] = Tensor{Key: t.Key, Data: append([]float32(nil), t.Data...)}
	}
	return out
}

func untouched(t *testing.T, what string, dst []Tensor) {
	t.Helper()
	for _, d := range dst {
		for i, v := range d.Data {
			if math.Float32bits(v) != math.Float32bits(sentinel) {
				t.Fatalf("%s: %s[%d] written by a rejected decode", what, d.Key, i)
			}
		}
	}
}

// sameRejection decodes bad whole and cut by gaps into the layout and
// requires both to fail with one error and write nothing.
func sameRejection(t *testing.T, what string, bad, gaps []byte, layout []Tensor) {
	t.Helper()
	whole, cut := cloneLayout(layout), cloneLayout(layout)
	errWhole := DecodeTensorsInto([][]byte{bad}, whole)
	errCut := DecodeTensorsInto(cutParts(bad, gaps), cut)
	if errWhole == nil || errCut == nil || errWhole.Error() != errCut.Error() {
		t.Fatalf("%s: whole decode says %v, cut decode says %v", what, errWhole, errCut)
	}
	untouched(t, what+" (whole)", whole)
	untouched(t, what+" (cut)", cut)
}

// FuzzDecodeTensorsInto: a valid blob cut into parts anywhere decodes bit
// for bit as the one-part decode does (into a layout, and into the map
// DecodeTensors builds, keys included); with a byte flipped or cut short it
// is rejected with the one-part decode's error and no destination value is
// written; and a blob the decoder rejects whole it rejects cut too.
func FuzzDecodeTensorsInto(f *testing.F) {
	nan := math.Float32frombits(0x7fc00001)
	// The blobs of the codec tests above, and a module-shaped one with the
	// corruption the trainer's Restore test makes (byte len−9, bit 0x10).
	seeds := [][]byte{
		EncodeTensors(map[string][]float32{"layer0.moe.expert1/w": {1, -2.5, 3.25}, "embed.token/w": {}, "head/adam.m": {math.MaxFloat32, -math.MaxFloat32, 0}}),
		EncodeTensors(map[string][]float32{"nan": {float32(math.NaN()), nan, 0}, "inf": {float32(math.Inf(1)), float32(math.Inf(-1))}, "denorm": {math.Float32frombits(1)}, "empty": {}}),
		EncodeTensorList([]Tensor{{"p0", []float32{1, 2, 3}}, {"p1", nil}, {"p10", []float32{-4.5}}, {"p2", []float32{6, 7}}}),
		EncodeTensors(map[string][]float32{"a/w": {1.5, -2.25, 3}, "b/adam": {0, 42}}),
		EncodeTensors(nil),
		EncodeTensorList([]Tensor{{"w0", make([]float32, 37)}, {"w1", make([]float32, 5)}, {"w2", make([]float32, 64)}}),
		craftBlob(0xFFFFFFFF),
		craftBlob(0x10000000, 0, 0),
		craftBlob(1, 0xFFFFFFFF, 0),
		craftBlob(1, 0, 0xFFFFFFFF),
	}
	for i, blob := range seeds {
		f.Add(blob, []byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, uint16(i), uint16(7*i))
		f.Add(blob, []byte{0, 2, 0, 7, 1, 1, 1}, uint16(len(blob)-9), uint16(len(blob)-6))
	}
	f.Fuzz(func(t *testing.T, blob, gaps []byte, flip, trunc uint16) {
		layout := blobLayout(blob)
		if layout == nil {
			// Rejected whole: rejected cut with the same error, into any
			// layout, and by the map decoder alike.
			sameRejection(t, "invalid blob", blob, gaps, []Tensor{{Key: "k", Data: []float32{sentinel}}})
			_, errWhole := DecodeTensors(blob)
			_, errCut := DecodeTensors(cutParts(blob, gaps)...)
			if errWhole == nil || errCut == nil || errWhole.Error() != errCut.Error() {
				t.Fatalf("map decode: whole says %v, cut says %v", errWhole, errCut)
			}
			return
		}
		whole, cut := cloneLayout(layout), cloneLayout(layout)
		if err := DecodeTensorsInto([][]byte{blob}, whole); err != nil {
			t.Fatalf("whole decode of a checked blob: %v", err)
		}
		if err := DecodeTensorsInto(cutParts(blob, gaps), cut); err != nil {
			t.Fatalf("cut decode of a valid blob: %v", err)
		}
		for i := range whole {
			for j := range whole[i].Data {
				if math.Float32bits(whole[i].Data[j]) != math.Float32bits(cut[i].Data[j]) {
					t.Fatalf("%s[%d]: cut decode %#x, whole decode %#x", whole[i].Key, j,
						math.Float32bits(cut[i].Data[j]), math.Float32bits(whole[i].Data[j]))
				}
			}
		}
		mapWhole, errWhole := DecodeTensors(blob)
		mapCut, errCut := DecodeTensors(cutParts(blob, gaps)...)
		if errWhole != nil || errCut != nil || len(mapCut) != len(mapWhole) {
			t.Fatalf("map decode: whole %d tensors (%v), cut %d (%v)", len(mapWhole), errWhole, len(mapCut), errCut)
		}
		for k, v := range mapWhole {
			if w, ok := mapCut[k]; !ok || len(w) != len(v) {
				t.Fatalf("map decode: cut blob lacks %q or its length", k)
			}
		}
		bad := append([]byte(nil), blob...)
		bad[int(flip)%len(bad)] ^= byte(flip>>8) | 1
		sameRejection(t, "flipped byte", bad, gaps, layout)
		sameRejection(t, "truncated", blob[:int(trunc)%len(blob)], gaps, layout)
	})
}
