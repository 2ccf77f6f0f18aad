package core

import (
	"bytes"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"moc/internal/rng"
	"moc/internal/storage"
	"moc/internal/storage/cas"
	"moc/internal/storage/storagetest"
)

func newTestAgent(t *testing.T, buffers int) (*Agent, *storage.SnapshotStore, *storage.MemStore) {
	t.Helper()
	snap := storage.NewSnapshotStore()
	persist := storage.NewMemStore()
	a, err := NewAgent(snap, persist, buffers)
	if err != nil {
		t.Fatal(err)
	}
	return a, snap, persist
}

// payload is a recovered module's bytes, whichever field holds them.
func payload(m RecoveredModule) []byte { return bytes.Join(m.Parts(), nil) }

func blobData(kv ...string) CheckpointData {
	d := CheckpointData{}
	for i := 0; i+1 < len(kv); i += 2 {
		d[kv[i]] = []byte(kv[i+1])
	}
	return d
}

func TestAgentSnapshotAndPersist(t *testing.T) {
	a, snap, persist := newTestAgent(t, 3)
	ok := a.TrySnapshot(0, func() (CheckpointData, error) {
		return blobData("m1", "v0-m1", "m2", "v0-m2"), nil
	}, nil)
	if !ok {
		t.Fatal("snapshot refused with free buffers")
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	// Snapshot level holds both modules.
	if b, err := snap.Get("m1"); err != nil || string(b) != "v0-m1" {
		t.Fatalf("snapshot m1: %q %v", b, err)
	}
	// Persist level committed one manifest listing both modules (manifest
	// presence is the round's completion marker).
	keys, _ := persist.Keys("cas/manifests/000000.")
	if len(keys) != 1 {
		t.Fatalf("manifest keys: %v", keys)
	}
	ms := a.Store().ManifestsForRound(0)
	if len(ms) != 1 || len(ms[0].Modules) != 2 {
		t.Fatalf("round 0 manifests: %+v", ms)
	}
	if a.LatestCompleteRound() != 0 {
		t.Fatalf("latest complete round = %d", a.LatestCompleteRound())
	}
	st := a.Stats()
	if st.SnapshotsDone != 1 || st.Persisted != 1 || st.Skipped != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestAgentPersistFilterImplementsPersistPEC(t *testing.T) {
	a, snap, _ := newTestAgent(t, 3)
	a.TrySnapshot(0, func() (CheckpointData, error) {
		return blobData("expert0", "e0", "expert1", "e1", "nonexpert", "ne"), nil
	}, func(module string) bool { return module != "expert1" })
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	// Snapshot level has all three; persist level lacks expert1.
	if _, err := snap.Get("expert1"); err != nil {
		t.Fatal("snapshot level should hold expert1")
	}
	if _, err := a.Store().ReadModule(0, "expert1"); err == nil {
		t.Fatal("persist level should not hold expert1")
	}
	if _, err := a.Store().ReadModule(0, "expert0"); err != nil {
		t.Fatal("persist level should hold expert0")
	}
}

func TestAgentRecoverUnionAcrossRounds(t *testing.T) {
	// PEC persists different experts in different rounds; recovery must
	// assemble the newest persisted version of each module.
	a, _, _ := newTestAgent(t, 3)
	steps := []struct {
		round int
		data  CheckpointData
	}{
		{0, blobData("ne", "ne@0", "e0", "e0@0")},
		{1, blobData("ne", "ne@1", "e1", "e1@1")},
		{2, blobData("ne", "ne@2", "e0", "e0@2")},
	}
	for _, s := range steps {
		if !a.TrySnapshot(s.round, func() (CheckpointData, error) { return s.data, nil }, nil) {
			t.Fatalf("round %d refused", s.round)
		}
		if err := a.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	defer a.Close()
	rec, err := a.Recover(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]struct {
		blob  string
		round int
	}{
		"ne": {"ne@2", 2}, "e0": {"e0@2", 2}, "e1": {"e1@1", 1},
	}
	for k, w := range want {
		got, ok := rec[k]
		if !ok {
			t.Fatalf("module %s missing from recovery", k)
		}
		if string(payload(got)) != w.blob || got.Round != w.round {
			t.Fatalf("%s: got %q@%d, want %q@%d", k, payload(got), got.Round, w.blob, w.round)
		}
		if got.FromSnapshot {
			t.Fatalf("%s: storage-only recovery used a snapshot", k)
		}
	}
}

func TestAgentTwoLevelRecoveryPrefersFreshSnapshots(t *testing.T) {
	a, _, _ := newTestAgent(t, 3)
	// Round 0: persist everything. Round 1: snapshot e0 fresh but persist
	// only ne (persist-PEC).
	a.TrySnapshot(0, func() (CheckpointData, error) {
		return blobData("ne", "ne@0", "e0", "e0@0"), nil
	}, nil)
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	a.TrySnapshot(1, func() (CheckpointData, error) {
		return blobData("ne", "ne@1", "e0", "e0@1"), nil
	}, func(m string) bool { return m == "ne" })
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	// Storage-only recovery: e0 rolls back to round 0.
	rec, err := a.Recover(nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(payload(rec["e0"])) != "e0@0" {
		t.Fatalf("storage recovery e0 = %q, want e0@0", payload(rec["e0"]))
	}
	// Two-level recovery with surviving snapshots: e0 restored at round 1.
	rec2, err := a.Recover(func(string) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if string(rec2["e0"].Blob) != "e0@1" || !rec2["e0"].FromSnapshot {
		t.Fatalf("two-level recovery e0 = %+v, want snapshot e0@1", rec2["e0"])
	}
}

func TestAgentSkipsWhenBusy(t *testing.T) {
	a, _, _ := newTestAgent(t, 2)
	release := make(chan struct{})
	a.TrySnapshot(0, func() (CheckpointData, error) {
		<-release
		return blobData("m", "v"), nil
	}, nil)
	// A second trigger while capturing must be skipped.
	if a.TrySnapshot(1, func() (CheckpointData, error) { return nil, nil }, nil) {
		t.Fatal("concurrent snapshot accepted")
	}
	close(release)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if st := a.Stats(); st.Skipped != 1 {
		t.Fatalf("skipped = %d, want 1", st.Skipped)
	}
}

func TestAgentBufferExhaustionSkips(t *testing.T) {
	// Two buffers: after one persisted checkpoint (recovery buffer held)
	// and one snapshot captured but stuck in a slow persist, a third
	// trigger must be refused.
	snap := storage.NewSnapshotStore()
	persist := &slowStore{MemStore: storage.NewMemStore(), gate: make(chan struct{})}
	a, err := NewAgent(snap, persist, 2)
	if err != nil {
		t.Fatal(err)
	}
	a.TrySnapshot(0, func() (CheckpointData, error) { return blobData("m", "v0"), nil }, nil)
	if err := a.WaitSnapshot(); err != nil {
		t.Fatal(err)
	}
	// Persist of round 0 is now blocked in the slow store. One buffer is
	// occupied by the persist-in-flight; with nbuf=2 one more trigger can
	// start, then further triggers are refused.
	started := a.TrySnapshot(1, func() (CheckpointData, error) { return blobData("m", "v1"), nil }, nil)
	if !started {
		t.Fatal("second snapshot should start (one free buffer)")
	}
	if err := a.WaitSnapshot(); err != nil {
		t.Fatal(err)
	}
	if a.TrySnapshot(2, func() (CheckpointData, error) { return blobData("m", "v2"), nil }, nil) {
		t.Fatal("third snapshot accepted with exhausted buffers")
	}
	close(persist.gate)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if st := a.Stats(); st.Persisted != 2 || st.Skipped != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// slowStore blocks the first Put until gated open.
type slowStore struct {
	*storage.MemStore
	gate chan struct{}
	once atomic.Bool
}

func (s *slowStore) Put(key string, data []byte) error {
	if s.once.CompareAndSwap(false, true) {
		<-s.gate
	}
	return s.MemStore.Put(key, data)
}

func TestAgentCaptureErrorSurfacesInWait(t *testing.T) {
	a, _, _ := newTestAgent(t, 3)
	a.TrySnapshot(0, func() (CheckpointData, error) {
		return nil, fmt.Errorf("CUDA OOM")
	}, nil)
	err := a.WaitSnapshot()
	if err == nil || !strings.Contains(err.Error(), "CUDA OOM") {
		t.Fatalf("capture error not surfaced: %v", err)
	}
	// The buffer must be released so later snapshots work.
	if !a.TrySnapshot(1, func() (CheckpointData, error) { return blobData("m", "v"), nil }, nil) {
		t.Fatal("agent stuck after capture error")
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestAgentReopenRecoversIndex(t *testing.T) {
	snap := storage.NewSnapshotStore()
	persist := storage.NewMemStore()
	a, err := NewAgent(snap, persist, 3)
	if err != nil {
		t.Fatal(err)
	}
	a.TrySnapshot(7, func() (CheckpointData, error) { return blobData("ne", "x"), nil }, nil)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	// A fresh agent over the same persist store (post-restart) must see
	// the completed round.
	b, err := NewAgent(storage.NewSnapshotStore(), persist, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if b.LatestCompleteRound() != 7 {
		t.Fatalf("reopened latest round = %d, want 7", b.LatestCompleteRound())
	}
	rec, err := b.Recover(nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(payload(rec["ne"])) != "x" {
		t.Fatalf("reopened recovery: %+v", rec)
	}
}

func TestAgentRejectsTooFewBuffers(t *testing.T) {
	_, err := NewAgent(storage.NewSnapshotStore(), storage.NewMemStore(), 1)
	if err == nil {
		t.Fatal("1 buffer accepted")
	}
}

func TestAgentSnapshotWaitMeasured(t *testing.T) {
	a, _, _ := newTestAgent(t, 3)
	a.TrySnapshot(0, func() (CheckpointData, error) {
		time.Sleep(30 * time.Millisecond) //moc:allow walltime deliberate slow snapshot (in-package test cannot import simtime: import cycle); the wait must be measured
		return blobData("m", "v"), nil
	}, nil)
	if err := a.WaitSnapshot(); err != nil {
		t.Fatal(err)
	}
	if st := a.Stats(); st.SnapshotWait < 20*time.Millisecond {
		t.Fatalf("snapshot wait %v not measured", st.SnapshotWait)
	}
	a.Close()
}

func TestAgentManyRoundsStress(t *testing.T) {
	a, _, _ := newTestAgent(t, 3)
	accepted := 0
	for r := 0; r < 50; r++ {
		data := blobData("ne", fmt.Sprintf("ne@%d", r), fmt.Sprintf("e%d", r%4), "x")
		if a.TrySnapshot(r, func() (CheckpointData, error) { return data, nil }, nil) {
			accepted++
		}
		if err := a.WaitSnapshot(); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if st.Persisted != accepted || accepted == 0 {
		t.Fatalf("persisted %d of %d accepted", st.Persisted, accepted)
	}
	rec, err := a.Recover(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(payload(rec["ne"])); got == "" {
		t.Fatal("non-expert module missing after stress run")
	}
}

// TestAgentRecoverIsOneFlatPlanAtReadWidth: a PEC-shaped recovery — 48
// modules of one to three chunks whose newest persisted copies spread
// over eight rounds, a third of them served from the snapshot level — is
// one read plan: a gate that lets chunk Gets through only in full waves
// of the read width proves the recovery reaches that width (it would
// never return otherwise), never exceeds it, fetches exactly the chunks
// of the modules read from storage, and restores every module
// bit-identically. No clock is involved.
func TestAgentRecoverIsOneFlatPlanAtReadWidth(t *testing.T) {
	const modules, rounds, width, chunk = 48, 8, 8, 64
	gate := storagetest.NewGate(storage.NewMemStore(), cas.ChunkPrefix)
	a, err := NewAgentWithOptions(storage.NewSnapshotStore(), gate, 3, cas.Options{ChunkSize: chunk, ReadWorkers: width})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	name := func(i int) string { return fmt.Sprintf("expert.%02d", i) }
	blobAt := func(i, round int) []byte {
		b := make([]byte, 40+(i%3)*chunk) // one, two or three chunks
		rng.New(uint64(round*modules+i) + 1).Fill(b)
		return b
	}
	// Every round snapshots all modules; round 0 persists all of them,
	// round r > 0 only the eighth with i%rounds == r (persist-PEC).
	for r := 0; r < rounds; r++ {
		data := CheckpointData{}
		for i := 0; i < modules; i++ {
			data[name(i)] = blobAt(i, r)
		}
		keep := func(m string) bool {
			var i int
			fmt.Sscanf(m, "expert.%d", &i)
			return r == 0 || i%rounds == r
		}
		if !a.TrySnapshot(r, func() (CheckpointData, error) { return data, nil }, keep) {
			t.Fatalf("round %d refused", r)
		}
		if err := a.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	survives := func(m string) bool {
		var i int
		fmt.Sscanf(m, "expert.%d", &i)
		return i%3 == 0
	}
	chunks, usedRounds := 0, map[int]bool{}
	for i := 0; i < modules; i++ {
		if i%3 != 0 {
			chunks += 1 + i%3
			usedRounds[i%rounds] = true
		}
	}
	if len(usedRounds) < 6 {
		t.Fatalf("plan spans %d rounds, want at least 6", len(usedRounds))
	}
	gate.Arm(width, chunks)
	rec, err := a.Recover(survives)
	if err != nil {
		t.Fatal(err)
	}
	if gate.Gets() != chunks || gate.Peak() != width {
		t.Fatalf("recovery issued %d chunk gets, peak %d in flight; want %d gets, peak %d", gate.Gets(), gate.Peak(), chunks, width)
	}
	for i := 0; i < modules; i++ {
		got, wantRound := rec[name(i)], i%rounds
		if survives(name(i)) {
			wantRound = rounds - 1
		}
		if got.Round != wantRound || got.FromSnapshot != survives(name(i)) || !bytes.Equal(payload(got), blobAt(i, wantRound)) {
			t.Fatalf("%s: recovered round %d (snapshot %v), want round %d bit-identical", name(i), got.Round, got.FromSnapshot, wantRound)
		}
	}
}

// roundBlob is module m's deterministic content in the given round.
func roundBlob(round, m, size int) []byte {
	b := make([]byte, size)
	rng.New(uint64(round*100+m) + 7).Fill(b)
	return b
}

// pooledCapture captures every module of a round the way the trainer
// does: straight into pooled buffers the agent takes over.
func pooledCapture(round, modules, size int) func() (CheckpointData, error) {
	return func() (CheckpointData, error) {
		d := make(CheckpointData, modules)
		for m := 0; m < modules; m++ {
			b := storage.GetBuf(size)
			copy(b, roundBlob(round, m, size))
			d[fmt.Sprintf("m%d", m)] = b
		}
		return d, nil
	}
}

// TestAgentBuffersOutliveTheirSnapshotSlots: a captured buffer is shared
// by the snapshot store and the round's persist job. With round 0's write
// held at the backend, three further rounds replace every snapshot slot
// and capture into whatever the pool hands out; had a replaced buffer gone
// back to the pool while round 0 was still reading it, the held puts would
// store a later round's bytes.
func TestAgentBuffersOutliveTheirSnapshotSlots(t *testing.T) {
	const modules, size = 6, 4096 // a pool class of its own, so recycling is certain
	hold := storagetest.NewPutHold(storage.NewMemStore(), cas.ChunkPrefix)
	a, err := NewAgentWithOptions(storage.NewSnapshotStore(), hold, 6, cas.Options{ChunkSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	snapshot := func(round int) {
		t.Helper()
		if !a.TrySnapshot(round, pooledCapture(round, modules, size), nil) {
			t.Fatalf("round %d refused", round)
		}
		if err := a.WaitSnapshot(); err != nil {
			t.Fatal(err)
		}
	}
	hold.Hold()
	snapshot(0)
	hold.AwaitHeld(1) // round 0 is hashed and its puts alias the shared buffers
	for r := 1; r <= 3; r++ {
		snapshot(r)
	}
	hold.Release()
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	for r := 0; r <= 3; r++ {
		for m := 0; m < modules; m++ {
			got, err := a.Store().ReadModule(r, fmt.Sprintf("m%d", m))
			if err != nil {
				t.Fatalf("round %d m%d: %v", r, m, err)
			}
			if !bytes.Equal(got, roundBlob(r, m, size)) {
				t.Fatalf("round %d m%d holds another round's bytes", r, m)
			}
		}
	}
	rec, err := a.Recover(func(string) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < modules; m++ {
		got := rec[fmt.Sprintf("m%d", m)]
		if !got.FromSnapshot || got.Round != 3 || !bytes.Equal(got.Blob, roundBlob(3, m, size)) {
			t.Fatalf("snapshot level serves m%d from round %d (snapshot=%v)", m, got.Round, got.FromSnapshot)
		}
	}
	a.mu.Lock()
	waiting := len(a.retired)
	a.mu.Unlock()
	if waiting != 0 {
		t.Fatalf("%d buffers still withheld from the pool with nothing in flight", waiting)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAgentPersistFilterRunsOutsideTheLock: the filter is the caller's
// code; run under the agent's mutex it would deadlock on any call back.
func TestAgentPersistFilterRunsOutsideTheLock(t *testing.T) {
	a, _, _ := newTestAgent(t, 3)
	keep := func(module string) bool {
		a.Stats() // takes the agent's mutex
		return module != "e1"
	}
	if !a.TrySnapshot(0, func() (CheckpointData, error) { return blobData("ne", "x", "e1", "y"), nil }, keep) {
		t.Fatal("snapshot refused")
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Store().ReadModule(0, "e1"); err == nil {
		t.Fatal("filtered module was persisted")
	}
}
