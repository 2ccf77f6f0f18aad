package cas

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"moc/internal/storage"
	"moc/internal/storage/storagetest"
)

// TestFanOutLowestErrorAndStop: every call from index 9 up fails, so each
// worker stops at its first failure — at most 9 + width calls run, none
// after that — and whatever the interleaving, the error reported is
// index 9's.
func TestFanOutLowestErrorAndStop(t *testing.T) {
	const n, width, firstBad = 200, 4, 9
	for run := 0; run < 50; run++ {
		var calls atomic.Int64
		err := fanOut(nil, "t", n, width, 0, func(i int) error {
			calls.Add(1)
			if i >= firstBad {
				return fmt.Errorf("task %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != fmt.Sprintf("task %d", firstBad) {
			t.Fatalf("run %d: error = %v, want task %d's", run, err, firstBad)
		}
		if got := calls.Load(); got > firstBad+width {
			t.Fatalf("run %d: %d calls ran, want at most %d", run, got, firstBad+width)
		}
	}
	// Below the small-batch threshold the calls run in order on the
	// calling goroutine and stop at the first failure.
	var order []int
	err := fanOut(nil, "t", minParallelTasks-1, width, minParallelBytes-1, func(i int) error {
		order = append(order, i)
		if i == 2 {
			return errors.New("boom")
		}
		return nil
	})
	if err == nil || fmt.Sprint(order) != "[0 1 2]" {
		t.Fatalf("inline fan-out: err %v, order %v", err, order)
	}
	// A batch as small carrying enough payload runs on workers: each call
	// waits for the other, so run one after the other they never return.
	var both sync.WaitGroup
	both.Add(2)
	if err := fanOut(nil, "t", 2, width, minParallelBytes, func(int) error {
		both.Done()
		both.Wait()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// listingRendezvous makes the backend's two listings meet: each Keys call
// waits until both prefixes have been asked for. A caller that lists one
// after the other never returns.
type listingRendezvous struct {
	storage.PersistStore
	both sync.WaitGroup
}

func (l *listingRendezvous) Keys(prefix string) ([]string, error) {
	l.both.Done()
	l.both.Wait()
	return l.PersistStore.Keys(prefix)
}

// TestOpenOverlapsManifestLoadsAndListings: Open and Refresh run the
// chunk listing beside the manifest listing, and load the manifests at
// the read width — proven by a gate that releases manifest Gets only in
// full waves, with no clock involved.
func TestOpenOverlapsManifestLoadsAndListings(t *testing.T) {
	const rounds, width = 12, 6
	mem := storage.NewMemStore()
	w, err := Open(mem, Options{ChunkSize: 256, Writer: "w"})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rounds; r++ {
		if _, err := w.WriteRound(r, map[string][]byte{"m": randBlob(t, uint64(r)+1, 300)}); err != nil {
			t.Fatal(err)
		}
	}
	gate := storagetest.NewGate(mem, ManifestPrefix)
	backend := &listingRendezvous{PersistStore: gate}

	gate.Arm(width, rounds)
	backend.both.Add(2)
	s, err := Open(backend, Options{ChunkSize: 256, ReadWorkers: width})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.Manifests()); got != rounds {
		t.Fatalf("Open saw %d manifests, want %d", got, rounds)
	}
	if gate.Peak() != width || gate.Gets() != rounds {
		t.Fatalf("Open: %d manifest gets, peak %d in flight; want %d, peak %d", gate.Gets(), gate.Peak(), rounds, width)
	}

	gate.Arm(width, rounds)
	backend.both.Add(2)
	if err := s.Refresh(); err != nil {
		t.Fatal(err)
	}
	if gate.Peak() != width || gate.Gets() != rounds {
		t.Fatalf("Refresh: %d manifest gets, peak %d in flight; want %d, peak %d", gate.Gets(), gate.Peak(), rounds, width)
	}
	got, err := s.ReadModule(rounds-1, "m")
	if err != nil || !bytes.Equal(got, randBlob(t, rounds, 300)) {
		t.Fatalf("read after refresh: %v", err)
	}
}

// TestFewManifestsLoadInOneWave: a manifest Get is a backend round trip,
// so even a batch under fanOut's serial threshold loads at once. A gate
// that releases manifest Gets only three at a time would hold a serial
// load forever.
func TestFewManifestsLoadInOneWave(t *testing.T) {
	const rounds = 3
	mem := storage.NewMemStore()
	w, err := Open(mem, Options{ChunkSize: 256, Writer: "w"})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rounds; r++ {
		if _, err := w.WriteRound(r, map[string][]byte{"m": randBlob(t, uint64(r)+1, 300)}); err != nil {
			t.Fatal(err)
		}
	}
	gate := storagetest.NewGate(mem, ManifestPrefix)
	gate.Arm(rounds, rounds)
	s, err := Open(gate, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if gate.Peak() != rounds || len(s.Manifests()) != rounds {
		t.Fatalf("Open: %d manifests, peak %d in flight; want %d in one wave", len(s.Manifests()), gate.Peak(), rounds)
	}
	gate.Arm(rounds, rounds)
	if err := s.Refresh(); err != nil {
		t.Fatal(err)
	}
	if gate.Peak() != rounds {
		t.Fatalf("Refresh: peak %d manifest Gets in flight, want %d", gate.Peak(), rounds)
	}
}

// TestCorruptManifestsFailLoadersWithLowestKeysError: with two of twelve
// manifests corrupt, every parallel loader — Open, Refresh, Retain,
// Audit — fails, and on every run with the error of the lower key.
func TestCorruptManifestsFailLoadersWithLowestKeysError(t *testing.T) {
	const rounds = 12
	s, backend := testStore(t, Options{ChunkSize: 64, Writer: "w", ReadWorkers: 4})
	for r := 0; r < rounds; r++ {
		if _, err := s.WriteRound(r, map[string][]byte{"m": payload(byte(r), 100)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []int{9, 3} {
		blob, err := backend.Get(manifestKey(r, "w"))
		if err != nil {
			t.Fatal(err)
		}
		blob[len(blob)/2] ^= 0x20
		if err := backend.Put(manifestKey(r, "w"), blob); err != nil {
			t.Fatal(err)
		}
	}
	lowest := manifestKey(3, "w")
	loaders := map[string]func() error{
		"Open":    func() error { _, err := Open(backend, Options{ReadWorkers: 4}); return err },
		"Refresh": s.Refresh,
		"Retain":  func() error { _, err := s.Retain(nil, rounds-1); return err },
		"Audit":   func() error { _, err := s.Audit(); return err },
	}
	for name, load := range loaders {
		for run := 0; run < 25; run++ {
			err := load()
			if err == nil || !strings.Contains(err.Error(), lowest) {
				t.Fatalf("%s run %d: error = %v, want one naming %s", name, run, err, lowest)
			}
		}
	}
}

// failingDeleter fails the k-th Delete of a chunk key (1-based; 0 never).
type failingDeleter struct {
	storage.PersistStore
	failAt  int64
	deletes atomic.Int64
}

func (f *failingDeleter) Delete(key string) error {
	if strings.HasPrefix(key, ChunkPrefix) && f.deletes.Add(1) == f.failAt {
		return errors.New("injected delete failure")
	}
	return f.PersistStore.Delete(key)
}

// TestRetainSweepFailureNeverOverClaims: a parallel sweep whose k-th
// Delete fails reports exact totals, leaves the presence index without
// any chunk it removed (so a later round rewrites rather than dedups
// against the void), and a second Retain finishes the job.
func TestRetainSweepFailureNeverOverClaims(t *testing.T) {
	mem := storage.NewMemStore()
	backend := &failingDeleter{PersistStore: mem, failAt: 7}
	s, err := Open(backend, Options{ChunkSize: 64, Writer: "w", ReadWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	old := map[string][]byte{}
	for i := 0; i < 12; i++ {
		old[fmt.Sprintf("m%02d", i)] = randBlob(t, uint64(i)+1, 150) // three chunks each
	}
	if _, err := s.WriteRound(0, old); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WriteRound(1, map[string][]byte{"m00": randBlob(t, 99, 150)}); err != nil {
		t.Fatal(err)
	}
	var garbage []Hash
	for _, e := range s.ManifestsForRound(0)[0].Modules {
		for _, c := range e.Chunks {
			garbage = append(garbage, c.Hash)
		}
	}
	newest := func(round int, _ string) bool { return round == 1 }

	st1, err := s.Retain(newest, 1)
	if err == nil || !strings.Contains(err.Error(), "injected delete failure") {
		t.Fatalf("first retain: %v, want the injected failure", err)
	}
	gone := 0
	for _, h := range garbage {
		if _, err := mem.Get(ChunkKey(h)); err != nil {
			gone++
			if s.present.Has(h) {
				t.Fatalf("presence index still claims swept chunk %s", h)
			}
		}
	}
	if st1.ChunksDeleted != gone || gone == 0 || gone == len(garbage) {
		t.Fatalf("first retain reports %d chunks deleted, backend lost %d of %d", st1.ChunksDeleted, gone, len(garbage))
	}

	st2, err := s.Retain(newest, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st1.ChunksDeleted+st2.ChunksDeleted != len(garbage) {
		t.Fatalf("two retains deleted %d+%d chunks, want %d", st1.ChunksDeleted, st2.ChunksDeleted, len(garbage))
	}
	if st1.BytesFreed+st2.BytesFreed != 12*150 {
		t.Fatalf("two retains freed %d+%d bytes, want %d", st1.BytesFreed, st2.BytesFreed, 12*150)
	}
	rep, err := s.Audit()
	if err != nil || len(rep.Orphans) != 0 || len(rep.Missing) != 0 {
		t.Fatalf("audit after second retain: %+v %v", rep, err)
	}
	// The swept bytes written again must land as real chunks.
	if _, err := s.WriteRound(2, old); err != nil {
		t.Fatal(err)
	}
	back, err := s.ReadRound(2)
	if err != nil {
		t.Fatal(err)
	}
	for name, blob := range old {
		if !bytes.Equal(back[name], blob) {
			t.Fatalf("module %s unreadable after re-persist", name)
		}
	}
}

// TestRetainSweepSizesFromManifests: the sweep reads no payload to size a
// chunk a manifest listed — the manifests it loaded already say — and
// exactly one per orphan; BytesFreed is what left the backend.
func TestRetainSweepSizesFromManifests(t *testing.T) {
	mem := storage.NewMemStore()
	counter := &chunkCounter{PersistStore: mem}
	s, err := Open(counter, Options{ChunkSize: 64, Writer: "w"})
	if err != nil {
		t.Fatal(err)
	}
	chunkBytes := func() (n int64) {
		keys, err := mem.Keys(ChunkPrefix)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			b, _ := mem.Get(k)
			n += int64(len(b))
		}
		return n
	}
	// Round 0: 12 modules of 150 bytes (chunks of 64, 64 and 22). Round 1
	// rewrites one; everything else of round 0 stays live through its entry.
	for r := 0; r < 2; r++ {
		mods := map[string][]byte{}
		for i := 0; i < 12; i++ {
			if r == 0 || i == 0 {
				mods[fmt.Sprintf("m%02d", i)] = randBlob(t, uint64(100*r+i+1), 150)
			}
		}
		if _, err := s.WriteRound(r, mods); err != nil {
			t.Fatal(err)
		}
	}
	newest := func(round int, module string) bool { return round == 1 || module != "m00" }
	before := chunkBytes()
	counter.chunkGets.Store(0)
	st, err := s.Retain(newest, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.EntriesDropped != 1 || st.ChunksDeleted != 3 || st.BytesFreed != 150 {
		t.Fatalf("retain removed %+v, want 1 entry, 3 chunks, 150 bytes", st)
	}
	if freed := before - chunkBytes(); freed != st.BytesFreed {
		t.Fatalf("BytesFreed %d, backend lost %d", st.BytesFreed, freed)
	}
	if n := counter.chunkGets.Load(); n != 0 {
		t.Fatalf("sweep of manifest-listed chunks cost %d chunk Gets, want 0", n)
	}

	// Two orphans no manifest ever listed, beside a whole dropped manifest
	// (round 0 has no live entry left).
	orphans := [][]byte{randBlob(t, 900, 31), randBlob(t, 901, 77)}
	for _, o := range orphans {
		if err := mem.Put(ChunkKey(HashBytes(o)), o); err != nil {
			t.Fatal(err)
		}
	}
	before = chunkBytes()
	counter.chunkGets.Store(0)
	st, err = s.Retain(func(round int, _ string) bool { return round == 1 }, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.ManifestsDeleted != 1 || st.ChunksDeleted != 11*3+2 || st.BytesFreed != 11*150+31+77 {
		t.Fatalf("retain removed %+v, want 1 manifest, 35 chunks, %d bytes", st, 11*150+31+77)
	}
	if freed := before - chunkBytes(); freed != st.BytesFreed {
		t.Fatalf("BytesFreed %d, backend lost %d", st.BytesFreed, freed)
	}
	if n := counter.chunkGets.Load(); n != int64(len(orphans)) {
		t.Fatalf("sweep cost %d chunk Gets, want one per orphan (%d)", n, len(orphans))
	}
	if got, err := s.ReadModule(1, "m00"); err != nil || !bytes.Equal(got, randBlob(t, 101, 150)) {
		t.Fatalf("surviving module unreadable: %v", err)
	}
}
