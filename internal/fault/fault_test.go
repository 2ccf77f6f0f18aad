package fault

import "testing"

func TestEvery(t *testing.T) {
	p := Every(2000, 10000)
	want := []int{2000, 4000, 6000, 8000}
	got := p.Iterations()
	if len(got) != len(want) {
		t.Fatalf("iterations %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("iterations %v, want %v", got, want)
		}
	}
	if !p.IsFault(4000) || p.IsFault(4001) {
		t.Fatal("IsFault membership wrong")
	}
	if p.Count() != 4 {
		t.Fatalf("count %d", p.Count())
	}
}

func TestEveryDegenerate(t *testing.T) {
	if Every(0, 100).Count() != 0 {
		t.Fatal("zero interval should schedule nothing")
	}
	if Every(200, 100).Count() != 0 {
		t.Fatal("interval beyond horizon should schedule nothing")
	}
}

func TestAtDeduplicatesAndSorts(t *testing.T) {
	p := At(50, 10, 50, 0, -3)
	got := p.Iterations()
	if len(got) != 2 || got[0] != 10 || got[1] != 50 {
		t.Fatalf("iterations %v", got)
	}
}

func TestMidpoint(t *testing.T) {
	p := Midpoint(10000)
	if p.Count() != 1 || !p.IsFault(5000) {
		t.Fatalf("midpoint plan: %v", p.Iterations())
	}
}

func TestPoissonDeterministicAndPlausible(t *testing.T) {
	a := Poisson(0.01, 10000, 42)
	b := Poisson(0.01, 10000, 42)
	ga, gb := a.Iterations(), b.Iterations()
	if len(ga) != len(gb) {
		t.Fatal("Poisson not deterministic")
	}
	for i := range ga {
		if ga[i] != gb[i] {
			t.Fatal("Poisson not deterministic")
		}
	}
	// E[count] = 100; accept a wide band.
	if a.Count() < 50 || a.Count() > 160 {
		t.Fatalf("Poisson count %d far from expectation 100", a.Count())
	}
	for _, it := range ga {
		if it <= 0 || it >= 10000 {
			t.Fatalf("fault iteration %d out of range", it)
		}
	}
}

func TestPoissonDegenerate(t *testing.T) {
	if Poisson(0, 100, 1).Count() != 0 || Poisson(0.1, 0, 1).Count() != 0 {
		t.Fatal("degenerate Poisson should be empty")
	}
}

func TestNone(t *testing.T) {
	if None().Count() != 0 || None().IsFault(1) {
		t.Fatal("None plan not empty")
	}
}

// TestPoissonDeterministicAcrossRuns pins the exact arrival sequence of
// one (rate, total, seed) triple. TestPoissonDeterministicAndPlausible
// only proves two in-process draws agree; this golden sequence fails if
// the underlying RNG or the exponential sampler ever changes, which
// would silently re-shuffle every replayed fault scenario between
// binary versions.
func TestPoissonDeterministicAcrossRuns(t *testing.T) {
	got := Poisson(0.02, 500, 7).Iterations()
	want := []int{18, 82, 91, 92, 99, 239, 352, 397, 492}
	if len(got) != len(want) {
		t.Fatalf("iterations %v, want pinned %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("iterations %v, want pinned %v", got, want)
		}
	}
	// Different seeds must draw different processes.
	other := Poisson(0.02, 500, 8).Iterations()
	same := len(other) == len(want)
	if same {
		for i := range want {
			if other[i] != want[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("seed 8 drew seed 7's arrival sequence")
	}
}
