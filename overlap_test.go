package moc

import (
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func overlapConfig() Config {
	return Config{
		Layers: 2, Hidden: 16, Experts: 4, TopK: 2,
		Vocab: 32, Window: 4, BatchSize: 8,
		LR: 0.01, Seed: 5,
	}
}

func overlapSystem(t *testing.T, cfg Config) *System {
	t.Helper()
	s, err := NewSystem(cfg, NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func steps(t *testing.T, s *System, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStepWaitsForTheCaptureAtTheWeightUpdate holds a capture open and
// shows the checkpoint timeline: CheckpointNow returns at the hand-off,
// the next Step does not finish — it waits in the snapshot barrier, the
// iteration count untouched — and once the capture is let go the update
// follows at once. The checkpoint nevertheless holds the model as it was
// at CheckpointNow: the recovered model evaluates bit for bit like it.
func TestStepWaitsForTheCaptureAtTheWeightUpdate(t *testing.T) {
	for _, twoLevel := range []bool{false, true} {
		cfg := overlapConfig()
		cfg.TwoLevelRecovery = twoLevel
		s := overlapSystem(t, cfg)
		steps(t, s, 4)
		if err := s.CheckpointNow(); err != nil { // the bootstrap round, not held
			t.Fatal(err)
		}
		steps(t, s, 3)

		entered, release := make(chan struct{}), make(chan struct{})
		letGo := sync.OnceFunc(func() { close(release) })
		t.Cleanup(letGo) // before the system's Close, which waits for the capture
		s.captureHook = func() error {
			close(entered)
			<-release
			return nil
		}
		wantLoss, wantAcc, err := s.Evaluate(64)
		if err != nil {
			t.Fatal(err)
		}
		at := s.Iteration()
		if err := s.CheckpointNow(); err != nil {
			t.Fatal(err)
		}
		<-entered // CheckpointNow is back and the capture has not read a byte yet
		s.captureHook = nil
		waited := s.Stats().SnapshotWaitSeconds

		stepped := make(chan error, 1)
		go func() {
			_, err := s.Step()
			stepped <- err
		}()
		const hold = 150 * time.Millisecond
		select {
		case err := <-stepped:
			t.Fatalf("Step finished (%v) while the capture was still reading the weights", err)
		case <-time.After(hold): //moc:allow walltime the test holds a capture open for a real interval to show Step waits through it
		}
		if got := s.model.Iteration(); got != at {
			t.Fatalf("iteration advanced to %d behind an unfinished capture", got)
		}
		letGo()
		if err := <-stepped; err != nil {
			t.Fatal(err)
		}
		if got := s.Iteration(); got != at+1 {
			t.Fatalf("iteration %d after the released step, want %d", got, at+1)
		}
		// Forward and backward ran during the hold; what was left of it
		// was spent in the barrier, and the stats say so.
		if got := s.Stats().SnapshotWaitSeconds - waited; got < hold.Seconds()/2 {
			t.Fatalf("SnapshotWaitSeconds grew by %.3fs over a %.3fs hold", got, hold.Seconds())
		}

		if err := s.InjectFault(); err != nil {
			t.Fatal(err)
		}
		if got := s.Iteration(); got != at {
			t.Fatalf("twoLevel=%v: recovered to iteration %d, checkpoint was at %d", twoLevel, got, at)
		}
		loss, acc, err := s.Evaluate(64)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(loss) != math.Float64bits(wantLoss) || acc != wantAcc {
			t.Fatalf("twoLevel=%v: recovered model evaluates to %v/%v, the checkpointed one to %v/%v",
				twoLevel, loss, acc, wantLoss, wantAcc)
		}
	}
}

// TestCaptureErrorSurfacesAtTheNextBarrier: a capture that fails after
// CheckpointNow has returned is reported by whatever waits for it next,
// costs no buffer, and leaves round numbering and the PLT ledger exactly
// where a system that never triggered that round has them.
func TestCaptureErrorSurfacesAtTheNextBarrier(t *testing.T) {
	boom := errors.New("device copy failed")
	barriers := map[string]func(s *System) error{
		"Step":             func(s *System) error { _, err := s.Step(); return err },
		"FlushCheckpoints": func(s *System) error { return s.FlushCheckpoints() },
		"InjectFault":      func(s *System) error { return s.InjectFault() },
		"CheckpointNow":    func(s *System) error { return s.CheckpointNow() },
		"Close":            func(s *System) error { return s.Close() },
	}
	for name, barrier := range barriers {
		cfg := overlapConfig()
		cfg.KSnapshot, cfg.KPersist, cfg.Variant = 2, 1, VariantWO
		cfg.Buffers = 2 // a leaked buffer would refuse the very next trigger
		s, twin := overlapSystem(t, cfg), overlapSystem(t, cfg)
		for _, sys := range []*System{s, twin} {
			steps(t, sys, 3)
			if err := sys.CheckpointNow(); err != nil {
				t.Fatal(err)
			}
			steps(t, sys, 2)
		}

		s.captureHook = func() error { return boom }
		if err := s.CheckpointNow(); err != nil {
			t.Fatalf("%s: the hand-off itself failed: %v", name, err)
		}
		s.captureHook = nil
		err := barrier(s)
		if !errors.Is(err, boom) || !strings.Contains(err.Error(), "snapshot") {
			t.Fatalf("%s did not report the capture error: %v", name, err)
		}
		if name == "Close" {
			continue
		}
		if name == "Step" { // the iteration itself completed
			steps(t, twin, 1)
		}
		if s.Iteration() != twin.Iteration() {
			t.Fatalf("%s: iteration %d, twin %d", name, s.Iteration(), twin.Iteration())
		}
		if s.round != twin.round || s.pending != nil {
			t.Fatalf("%s: round %d (pending %v), twin %d", name, s.round, s.pending, twin.round)
		}
		// Both go on: the next rounds get the same numbers, the same PEC
		// selections and therefore the same lost-token ledger.
		for _, sys := range []*System{s, twin} {
			for i := 0; i < 3; i++ {
				steps(t, sys, 2)
				if err := sys.CheckpointNow(); err != nil {
					t.Fatalf("%s: checkpoint after the failed one: %v", name, err)
				}
			}
			if err := sys.FlushCheckpoints(); err != nil {
				t.Fatal(err)
			}
			if err := sys.InjectFault(); err != nil {
				t.Fatal(err)
			}
		}
		if s.PLT() != twin.PLT() || s.round != twin.round {
			t.Fatalf("%s: PLT %v round %d, twin PLT %v round %d", name, s.PLT(), s.round, twin.PLT(), twin.round)
		}
		if got, want := s.Stats().Checkpoints, twin.Stats().Checkpoints; got != want {
			t.Fatalf("%s: %d rounds persisted, twin %d", name, got, want)
		}
		if got, want := s.agent.LatestCompleteRound(), twin.agent.LatestCompleteRound(); got != want {
			t.Fatalf("%s: latest complete round %d, twin %d", name, got, want)
		}
	}
}
