package moc_test

import (
	"math"
	"runtime"
	"strings"
	"testing"

	moc "moc"
)

func tinySystemConfig() moc.Config {
	return moc.Config{
		Layers: 3, Hidden: 24, Experts: 4, TopK: 2,
		Vocab: 32, Window: 6, BatchSize: 16,
		LR: 0.01, CapacityFactor: 1.5, GateNoise: 0.1,
		Seed:     11,
		Interval: 10, KSnapshot: 2, KPersist: 1,
		Variant: moc.VariantWO, TwoLevelRecovery: true,
	}
}

func newSystem(t *testing.T, cfg moc.Config) *moc.System {
	t.Helper()
	s, err := moc.NewSystem(cfg, moc.NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestSystemTrainsAndCheckpoints(t *testing.T) {
	s := newSystem(t, tinySystemConfig())
	first, err := s.Step()
	if err != nil {
		t.Fatal(err)
	}
	last, err := s.RunTo(100)
	if err != nil {
		t.Fatal(err)
	}
	if last >= first {
		t.Fatalf("loss did not improve: %.4f -> %.4f", first, last)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Iteration != 100 {
		t.Fatalf("iteration = %d", st.Iteration)
	}
	if st.Checkpoints != 10 {
		t.Fatalf("checkpoints = %d, want 10", st.Checkpoints)
	}
	if st.PLT != 0 || st.Faults != 0 {
		t.Fatalf("fault-free run has PLT %.4f, faults %d", st.PLT, st.Faults)
	}
}

func TestSystemFaultRecoveryRewindsTraining(t *testing.T) {
	s := newSystem(t, tinySystemConfig())
	if _, err := s.RunTo(55); err != nil {
		t.Fatal(err)
	}
	if err := s.InjectFault(); err != nil {
		t.Fatal(err)
	}
	// Recovery rewinds to the latest complete checkpoint (iteration 50).
	if got := s.Iteration(); got != 50 {
		t.Fatalf("post-recovery iteration = %d, want 50", got)
	}
	if s.PLT() <= 0 {
		t.Fatal("PEC recovery should lose some expert updates (PLT > 0)")
	}
	// Training continues and still converges.
	if _, err := s.RunTo(120); err != nil {
		t.Fatal(err)
	}
	_, acc, err := s.Evaluate(128)
	if err != nil {
		t.Fatal(err)
	}
	if acc <= 1.0/32 {
		t.Fatalf("post-recovery accuracy %.4f at chance", acc)
	}
	if s.Stats().Faults != 1 {
		t.Fatalf("fault count %d", s.Stats().Faults)
	}
}

func TestSystemFaultWithoutCheckpointErrors(t *testing.T) {
	cfg := tinySystemConfig()
	cfg.Interval = 1000
	s := newSystem(t, cfg)
	if _, err := s.RunTo(5); err != nil {
		t.Fatal(err)
	}
	if err := s.InjectFault(); err == nil {
		t.Fatal("fault without any checkpoint should error")
	}
}

func TestFullCheckpointFaultLosesNothing(t *testing.T) {
	cfg := tinySystemConfig()
	cfg.KSnapshot, cfg.KPersist = 0, 0 // full
	cfg.Variant = moc.VariantFull
	s := newSystem(t, cfg)
	if _, err := s.RunTo(50); err != nil {
		t.Fatal(err)
	}
	// Fault lands exactly on a checkpoint boundary: zero loss.
	if err := s.InjectFault(); err != nil {
		t.Fatal(err)
	}
	if s.PLT() != 0 {
		t.Fatalf("full checkpoint at boundary lost tokens: PLT %.5f", s.PLT())
	}
	if s.Iteration() != 50 {
		t.Fatalf("iteration %d", s.Iteration())
	}
}

func TestTwoLevelRecoveryReducesPLTInSystem(t *testing.T) {
	run := func(twoLevel bool) float64 {
		cfg := tinySystemConfig()
		cfg.TwoLevelRecovery = twoLevel
		cfg.KSnapshot, cfg.KPersist = 3, 1
		s := newSystem(t, cfg)
		if _, err := s.RunTo(57); err != nil {
			t.Fatal(err)
		}
		if err := s.InjectFault(); err != nil {
			t.Fatal(err)
		}
		return s.PLT()
	}
	storage := run(false)
	twolevel := run(true)
	if storage <= 0 {
		t.Fatal("storage-only recovery should lose tokens")
	}
	if twolevel >= storage {
		t.Fatalf("two-level PLT %.5f not below storage-only %.5f", twolevel, storage)
	}
}

func TestDynamicKEscalates(t *testing.T) {
	cfg := tinySystemConfig()
	cfg.DynamicK = true
	cfg.KSnapshot, cfg.KPersist = 1, 1
	cfg.TwoLevelRecovery = false
	cfg.Interval = 5
	s := newSystem(t, cfg)
	if _, err := s.RunTo(30); err != nil {
		t.Fatal(err)
	}
	startK := s.Stats().KCurrent
	for f := 0; f < 12; f++ {
		if _, err := s.RunTo(s.Iteration() + 9); err != nil {
			t.Fatal(err)
		}
		if err := s.InjectFault(); err != nil {
			t.Fatal(err)
		}
	}
	endK := s.Stats().KCurrent
	if endK <= startK {
		t.Fatalf("Dynamic-K never escalated: %d -> %d (PLT %.4f)", startK, endK, s.PLT())
	}
}

func TestVariantsValidate(t *testing.T) {
	for _, v := range []moc.Variant{moc.VariantFull, moc.VariantW, moc.VariantO, moc.VariantWO} {
		cfg := tinySystemConfig()
		cfg.Variant = v
		s := newSystem(t, cfg)
		if _, err := s.RunTo(20); err != nil {
			t.Fatalf("variant %s: %v", v, err)
		}
		if err := s.InjectFault(); err != nil {
			t.Fatalf("variant %s fault: %v", v, err)
		}
	}
	cfg := tinySystemConfig()
	cfg.Variant = "bogus"
	if _, err := moc.NewSystem(cfg, moc.NewMemStore()); err == nil {
		t.Fatal("bogus variant accepted")
	}
}

func TestLoadAwareSelection(t *testing.T) {
	cfg := tinySystemConfig()
	cfg.Selection = moc.SelectLoadAware
	s := newSystem(t, cfg)
	if _, err := s.RunTo(40); err != nil {
		t.Fatal(err)
	}
	if err := s.InjectFault(); err != nil {
		t.Fatal(err)
	}
	if s.Iteration() != 40 {
		t.Fatalf("iteration %d", s.Iteration())
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []moc.Config{
		{Layers: 0, Hidden: 8, Experts: 4, TopK: 1},
		{Layers: 2, Hidden: 8, Experts: 4, TopK: 8},
		{Layers: 2, Hidden: 8, Experts: 4, TopK: 1, KSnapshot: 1, KPersist: 2},
		{Layers: 2, Hidden: 8, Experts: 4, TopK: 1, Interval: -1},
	}
	for i, c := range bad {
		if _, err := moc.NewSystem(c, moc.NewMemStore()); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestDownstreamSuite(t *testing.T) {
	s := newSystem(t, tinySystemConfig())
	if _, err := s.RunTo(60); err != nil {
		t.Fatal(err)
	}
	scores, avg, err := s.Downstream(64)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 8 {
		t.Fatalf("got %d tasks, want 8", len(scores))
	}
	if avg <= 0 || avg > 1 {
		t.Fatalf("average accuracy %.4f out of range", avg)
	}
	var sum float64
	for _, sc := range scores {
		if sc.Accuracy < 0 || sc.Accuracy > 1 {
			t.Fatalf("task %s accuracy %.4f", sc.Task, sc.Accuracy)
		}
		sum += sc.Accuracy
	}
	if math.Abs(sum/8-avg) > 1e-9 {
		t.Fatal("average inconsistent with per-task scores")
	}
}

func TestCustomCorpusAndEvaluateOn(t *testing.T) {
	ft := moc.NewCorpus("alpaca-proxy", 32, 515151)
	cfg := tinySystemConfig()
	s, err := moc.NewSystemOn(cfg, moc.NewMemStore(), ft)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.RunTo(30); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.EvaluateOn(ft, 64); err != nil {
		t.Fatal(err)
	}
	if ft.Name() != "alpaca-proxy" {
		t.Fatal("corpus name lost")
	}
}

func TestCheckpointNowAndFSStore(t *testing.T) {
	store, err := moc.NewFSStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinySystemConfig()
	cfg.Interval = 0 // manual checkpointing only
	s, err := moc.NewSystem(cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.RunTo(12); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunTo(20); err != nil {
		t.Fatal(err)
	}
	if err := s.InjectFault(); err != nil {
		t.Fatal(err)
	}
	if s.Iteration() != 12 {
		t.Fatalf("recovered iteration %d, want 12", s.Iteration())
	}
}

func TestStepAfterCloseErrors(t *testing.T) {
	s := newSystem(t, tinySystemConfig())
	s.Close()
	if _, err := s.Step(); err == nil {
		t.Fatal("step after close accepted")
	}
	if err := s.InjectFault(); err == nil {
		t.Fatal("fault after close accepted")
	}
}

func TestCompactAndVerifyStorage(t *testing.T) {
	cfg := tinySystemConfig()
	cfg.Interval = 5
	s := newSystem(t, cfg)
	if _, err := s.RunTo(60); err != nil {
		t.Fatal(err)
	}
	n, err := s.VerifyStorage()
	if err != nil || n == 0 {
		t.Fatalf("verify: n=%d err=%v", n, err)
	}
	deleted, err := s.CompactStorage()
	if err != nil {
		t.Fatal(err)
	}
	if deleted == 0 {
		t.Fatal("12 rounds with overlapping selections should leave superseded blobs")
	}
	// Recovery must still work after compaction.
	if err := s.InjectFault(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunTo(80); err != nil {
		t.Fatal(err)
	}
}

func TestForkOnPreservesModelState(t *testing.T) {
	cfg := tinySystemConfig()
	cfg.Interval = 0
	s := newSystem(t, cfg)
	if _, err := s.RunTo(40); err != nil {
		t.Fatal(err)
	}
	lossBefore, _, err := s.Evaluate(256)
	if err != nil {
		t.Fatal(err)
	}
	ft, err := s.ForkOn(nil, moc.Config{Interval: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer ft.Close()
	// The fork starts at the parent's iteration with identical weights:
	// its evaluation on the same corpus matches exactly.
	if ft.Iteration() != 40 {
		t.Fatalf("fork iteration %d, want 40", ft.Iteration())
	}
	lossAfter, _, err := ft.Evaluate(256)
	if err != nil {
		t.Fatal(err)
	}
	if lossAfter != lossBefore {
		t.Fatalf("fork changed model state: %v vs %v", lossAfter, lossBefore)
	}
}

func TestAuxLossConfigPassthrough(t *testing.T) {
	cfg := tinySystemConfig()
	cfg.AuxLossCoeff = 0.01
	s := newSystem(t, cfg)
	if _, err := s.RunTo(20); err != nil {
		t.Fatal(err)
	}
	// Smoke: training with the aux loss stays stable and checkpoints work.
	if err := s.InjectFault(); err != nil {
		t.Fatal(err)
	}
}

func TestResumeAfterProcessRestart(t *testing.T) {
	dir := t.TempDir()
	store, err := moc.NewFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Full checkpointing so the recovered state is bitwise the live state
	// at the checkpoint (with PEC the resume would correctly hold stale
	// experts instead).
	cfg := tinySystemConfig()
	cfg.KSnapshot, cfg.KPersist = 0, 0
	cfg.Variant = moc.VariantFull
	s1, err := moc.NewSystem(cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.RunTo(40); err != nil {
		t.Fatal(err)
	}
	wantLoss, _, err := s1.Evaluate(256)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// "Process restart": a brand-new System over the same store resumes
	// from the latest complete checkpoint (iteration 40).
	store2, err := moc.NewFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Resume = true
	s2, err := moc.NewSystem(cfg, store2)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Iteration() != 40 {
		t.Fatalf("resumed at iteration %d, want 40", s2.Iteration())
	}
	gotLoss, _, err := s2.Evaluate(256)
	if err != nil {
		t.Fatal(err)
	}
	if gotLoss != wantLoss {
		t.Fatalf("resumed model loss %v != saved %v", gotLoss, wantLoss)
	}
	// Training continues; new checkpoints do not collide with old rounds.
	if _, err := s2.RunTo(60); err != nil {
		t.Fatal(err)
	}
	if err := s2.InjectFault(); err != nil {
		t.Fatal(err)
	}
	if s2.Iteration() != 60 {
		t.Fatalf("post-resume recovery iteration %d, want 60", s2.Iteration())
	}
}

func TestResumeRequiresCheckpoint(t *testing.T) {
	cfg := tinySystemConfig()
	cfg.Resume = true
	if _, err := moc.NewSystem(cfg, moc.NewMemStore()); err == nil {
		t.Fatal("resume from empty store accepted")
	}
}

// TestConstructionFailsBeforeTheModelIsBuilt: an empty store under Resume
// and a misspelt variant are both known before anything model-sized
// exists, so neither may cost a model's allocation, let alone its
// initialization. The shape below takes ~25 MB to build.
func TestConstructionFailsBeforeTheModelIsBuilt(t *testing.T) {
	big := moc.Config{Layers: 2, Hidden: 128, Experts: 12, TopK: 2, Seed: 1}
	resume, misspelt := big, big
	resume.Resume = true
	misspelt.Variant = "OW"
	for want, cfg := range map[string]moc.Config{
		"Resume requested but the store holds no complete checkpoint": resume,
		"unknown variant": misspelt,
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := moc.NewSystem(cfg, moc.NewMemStore())
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("error %v, want %q", err, want)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 4<<20 {
			t.Errorf("%q cost %d MB of allocation: a model was built first", want, got>>20)
		}
	}
}

func TestChunkingCDCEndToEnd(t *testing.T) {
	// Training, checkpointing, fault recovery, verification, and resume
	// all work with the content-defined chunker; the chunking mode is a
	// storage detail, invisible to training semantics.
	store := moc.NewMemStore()
	cfg := tinySystemConfig()
	cfg.Chunking = moc.ChunkingCDC
	s, err := moc.NewSystem(cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.RunTo(50); err != nil {
		t.Fatal(err)
	}
	if err := s.InjectFault(); err != nil {
		t.Fatal(err)
	}
	if s.Iteration() != 50 {
		t.Fatalf("iteration %d after recovery, want 50", s.Iteration())
	}
	if _, err := s.VerifyStorage(); err != nil {
		t.Fatal(err)
	}
	// Re-checkpointing unchanged state dedups to zero new bytes under
	// CDC exactly as under fixed chunking (the chunker is deterministic).
	if err := s.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	if err := s.FlushCheckpoints(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Checkpoints == 0 || st.DedupRatio <= 0 {
		t.Fatalf("cdc run stats: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A fresh process resumes from the CDC-chunked store — and may even
	// switch back to fixed chunking; old rounds stay readable.
	cfg2 := cfg
	cfg2.Chunking = moc.ChunkingFixed
	cfg2.Resume = true
	s2, err := moc.NewSystem(cfg2, store)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Iteration() != 50 {
		t.Fatalf("resumed iteration %d, want 50", s2.Iteration())
	}
	if _, err := s2.RunTo(60); err != nil {
		t.Fatal(err)
	}
}

func TestChunkingValidation(t *testing.T) {
	cfg := tinySystemConfig()
	cfg.Chunking = moc.Chunking("zstd")
	if _, err := moc.NewSystem(cfg, moc.NewMemStore()); err == nil {
		t.Fatal("unknown chunking mode accepted")
	}
}
