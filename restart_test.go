package moc

import (
	"testing"

	"moc/internal/core"
	"moc/internal/storage"
	"moc/internal/train"
)

// initThenRestore is the reference a restarted or forked System must match
// bit for bit: a model initialized in full from its seed, then overwritten
// with the recovered state.
func initThenRestore(t *testing.T, tcfg train.Config, rec map[string]core.RecoveredModule) *train.Model {
	t.Helper()
	ref, err := train.New(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Restore(rec); err != nil {
		t.Fatal(err)
	}
	return ref
}

// sameNextLosses steps the system and the reference model ten iterations
// over the same batches; with gate noise on, equal losses mean equal
// weights, equal optimizer state and an equal seed stream.
func sameNextLosses(t *testing.T, what string, s *System, ref *train.Model) {
	t.Helper()
	tc := ref.Config()
	for i := 0; i < 10; i++ {
		batch := s.corpus.Batch(s.cfg.Seed, ref.Iteration(), tc.BatchSize, tc.Window)
		want, err := ref.TrainBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if got != want.Loss {
			t.Fatalf("%s: step %d loss %v, init-then-restore gives %v", what, i, got, want.Loss)
		}
	}
}

func TestResumeAndForkMatchInitThenRestore(t *testing.T) {
	cfg := overlapConfig()
	cfg.GateNoise = 0.1
	cfg.Interval, cfg.KSnapshot, cfg.KPersist = 5, 2, 1 // PEC: the newest round lacks experts
	store := NewMemStore()
	first, err := NewSystem(cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	steps(t, first, 23)
	if err := first.FlushCheckpoints(); err != nil {
		t.Fatal(err)
	}

	payload := first.model.Capture(nil, train.VariantFull())
	forkRec := make(map[string]core.RecoveredModule, len(payload))
	for k, b := range payload {
		forkRec[k] = core.RecoveredModule{Blob: b}
	}
	child, err := first.ForkOn(nil, Config{Interval: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer child.Close()
	if child.Iteration() != 23 {
		t.Fatalf("fork at iteration %d, want 23", child.Iteration())
	}
	sameNextLosses(t, "fork", child, initThenRestore(t, first.model.Config(), forkRec))
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}

	agent, err := core.NewAgent(storage.NewSnapshotStore(), store, 3)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := agent.Recover(nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := initThenRestore(t, first.model.Config(), rec)
	if err := agent.Close(); err != nil {
		t.Fatal(err)
	}
	cfg.Resume = true
	resumed, err := NewSystem(cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	if resumed.Iteration() != 20 {
		t.Fatalf("resumed at iteration %d, want 20", resumed.Iteration())
	}
	sameNextLosses(t, "resume", resumed, ref)
}
