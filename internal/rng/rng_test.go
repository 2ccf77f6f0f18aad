package rng

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDistinctSeeds(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 produced %d identical outputs", same)
	}
}

func TestZeroSeedValid(t *testing.T) {
	r := New(0)
	saw := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		saw[r.Uint64()] = true
	}
	if len(saw) < 90 {
		t.Fatalf("seed 0 stream looks degenerate: %d distinct of 100", len(saw))
	}
}

func TestIntnRange(t *testing.T) {
	r := New(7)
	for n := 1; n <= 64; n++ {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(11)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(13)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestNormMoments(t *testing.T) {
	r := New(17)
	var sum, sumsq float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(23)
	child := parent.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("parent and split child matched %d times", same)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(29)
	err := quick.Check(func(seed uint64) bool {
		rr := New(seed)
		n := 1 + int(seed%50)
		p := rr.Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
	_ = r
}

func TestExpMean(t *testing.T) {
	r := New(31)
	const rate = 2.5
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Exp(rate)
	}
	mean := sum / n
	if math.Abs(mean-1/rate) > 0.01 {
		t.Fatalf("exp mean = %v, want ~%v", mean, 1/rate)
	}
}

func TestExpPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	New(1).Exp(0)
}

func TestNormFloat32Scale(t *testing.T) {
	r := New(37)
	var sum float64
	const n = 50000
	for i := 0; i < n; i++ {
		sum += float64(r.NormFloat32(3, 0.5))
	}
	mean := sum / n
	if math.Abs(mean-3) > 0.02 {
		t.Fatalf("NormFloat32 mean = %v, want ~3", mean)
	}
}

// sameStream fails unless a and b are in the same state — xoshiro words,
// pending Gaussian — and go on to produce the same draws.
func sameStream(t *testing.T, what string, a, b *RNG) {
	t.Helper()
	if a.s != b.s || a.hasNorm != b.hasNorm || a.hasNorm && a.gauss != b.gauss {
		t.Fatalf("%s: state differs: %+v vs %+v", what, *a, *b)
	}
	for i := 0; i < 5; i++ {
		if x, y := a.Norm(), b.Norm(); x != y {
			t.Fatalf("%s: Norm %d after: %v vs %v", what, i, x, y)
		}
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("%s: Uint64 %d after: %v vs %v", what, i, x, y)
		}
	}
}

func TestSkipNormMatchesNormCalls(t *testing.T) {
	for _, pending := range []bool{false, true} {
		for n := 0; n <= 9; n++ {
			drawn, skipped := New(41), New(41)
			if pending {
				drawn.Norm()
				skipped.Norm()
			}
			for i := 0; i < n; i++ {
				drawn.Norm()
			}
			skipped.SkipNorm(n)
			sameStream(t, fmt.Sprintf("pending=%v n=%d", pending, n), drawn, skipped)
		}
	}

	// Two odd skips in a row: the first leaves a Gaussian pending, which
	// the second must consume before it counts pairs.
	drawn, skipped := New(43), New(43)
	for i := 0; i < 3+5; i++ {
		drawn.Norm()
	}
	skipped.SkipNorm(3)
	skipped.SkipNorm(5)
	sameStream(t, "skips of 3 and 5", drawn, skipped)
}

func TestSkipNormRedrawsAZeroUniform(t *testing.T) {
	// With s[1] == 0 the next output is 0, the u Norm rejects and redraws;
	// a skip that took it as u would fall one draw behind.
	zeroFirst := RNG{s: [4]uint64{1, 0, 2, 3}}
	if probe := zeroFirst; probe.Float64() != 0 {
		t.Fatal("crafted state does not produce a zero uniform")
	}
	for _, n := range []int{1, 2, 5} {
		drawn, skipped := zeroFirst, zeroFirst
		for i := 0; i < n; i++ {
			drawn.Norm()
		}
		skipped.SkipNorm(n)
		sameStream(t, fmt.Sprintf("zero u, n=%d", n), &drawn, &skipped)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkNorm(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Norm()
	}
}

func TestFillDeterministicDistinctAndOddLengths(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 1023} {
		a, b := make([]byte, n), make([]byte, n)
		New(5).Fill(a)
		New(5).Fill(b)
		if !bytes.Equal(a, b) {
			t.Fatalf("len %d: same seed diverged", n)
		}
	}
	a, b := make([]byte, 256), make([]byte, 256)
	New(1).Fill(a)
	New(2).Fill(b)
	if bytes.Equal(a, b) {
		t.Fatal("distinct seeds produced identical fills")
	}
	// The tail path must actually write the trailing bytes.
	c := bytes.Repeat([]byte{0xAA}, 13)
	New(9).Fill(c)
	if c[12] == 0xAA && c[11] == 0xAA && c[10] == 0xAA {
		t.Fatal("tail bytes left unwritten")
	}
}

func TestZipfDeterministicAndBounded(t *testing.T) {
	const n = 64
	a := NewZipf(New(7), n, 1.1)
	b := NewZipf(New(7), n, 1.1)
	for i := 0; i < 4096; i++ {
		x, y := a.Next(), b.Next()
		if x != y {
			t.Fatalf("draw %d diverged: %d vs %d", i, x, y)
		}
		if x < 0 || x >= n {
			t.Fatalf("draw %d out of range: %d", i, x)
		}
	}
}

func TestZipfSkewFavorsLowRanks(t *testing.T) {
	// Under s=1.1 over 32 ranks, rank 0 should draw roughly a quarter of
	// the mass — strictly more than any other rank, and far more than
	// the tail.
	const n, draws = 32, 100000
	z := NewZipf(New(123), n, 1.1)
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[z.Next()]++
	}
	for r := 1; r < n; r++ {
		if counts[r] > counts[0] {
			t.Fatalf("rank %d drawn %d times, more than rank 0's %d", r, counts[r], counts[0])
		}
	}
	if counts[0] < draws/8 {
		t.Fatalf("rank 0 drew only %d of %d — not Zipf-skewed", counts[0], draws)
	}
	tail := 0
	for r := n / 2; r < n; r++ {
		tail += counts[r]
	}
	if tail >= counts[0] {
		t.Fatalf("tail half drew %d, rank 0 drew %d — skew too flat", tail, counts[0])
	}
}

func TestZipfRejectsBadParameters(t *testing.T) {
	for _, tc := range []struct {
		n int
		s float64
	}{{0, 1.1}, {-3, 1.1}, {8, 0}, {8, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewZipf(n=%d, s=%v) did not panic", tc.n, tc.s)
				}
			}()
			NewZipf(New(1), tc.n, tc.s)
		}()
	}
}

func BenchmarkSkipNorm(b *testing.B) {
	r := New(1)
	r.SkipNorm(b.N)
}
