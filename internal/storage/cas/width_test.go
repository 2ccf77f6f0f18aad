package cas

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"moc/internal/obs"
	"moc/internal/storage"
	"moc/internal/storage/storagetest"
)

// newChunks returns n distinct chunkSize-byte chunks as one blob.
func newChunks(t *testing.T, seed uint64, n, chunkSize int) []byte {
	t.Helper()
	blob := randBlob(t, seed, n*chunkSize)
	if got := len(chunkSet(splitChunks(blob, chunkSize))); got != n {
		t.Fatalf("blob has %d distinct chunks, want %d", got, n)
	}
	return blob
}

// TestWriteRoundOffersTheDefaultWidth: with every chunk Put held at the
// backend, a round of 40 new chunks has exactly DefaultWorkers of them in
// flight — what a read offers the same backend — and Options.Workers still
// names the width when set.
func TestWriteRoundOffersTheDefaultWidth(t *testing.T) {
	if DefaultWorkers != DefaultReadWorkers {
		t.Fatalf("write width %d, read width %d: one default serves both directions", DefaultWorkers, DefaultReadWorkers)
	}
	for _, tc := range []struct{ workers, want int }{{0, DefaultWorkers}, {4, 4}} {
		hold := storagetest.NewPutHold(storage.NewMemStore(), ChunkPrefix)
		s, err := Open(hold, Options{ChunkSize: 64, Workers: tc.workers})
		if err != nil {
			t.Fatal(err)
		}
		blob := newChunks(t, 21, 40, 64)
		hold.Hold()
		done := make(chan error, 1)
		go func() {
			_, err := s.WriteRound(0, map[string][]byte{"m": blob})
			done <- err
		}()
		hold.AwaitHeld(tc.want) // a narrower put stage never gets here
		hold.Release()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if peak := hold.Peak(); peak != tc.want {
			t.Fatalf("Workers %d: %d puts in flight at once, want %d", tc.workers, peak, tc.want)
		}
		if got, err := s.ReadModule(0, "m"); err != nil || !bytes.Equal(got, blob) {
			t.Fatalf("Workers %d: round unreadable: %v", tc.workers, err)
		}
	}
}

// quadStore is a four-way storage.Sharder over holdable shards, routing by
// the key's last character. Each shard announces when it has taken all the
// chunk Puts the test expects of it.
type quadStore struct {
	storage.PersistStore // Get, Delete, Keys: one shared MemStore
	holds                [4]*storagetest.PutHold

	mu   sync.Mutex
	want [4]int
	got  [4]int
	full [4]chan struct{}
}

func (q *quadStore) ShardCount() int { return 4 }

func (q *quadStore) Locate(key string) int { return int(key[len(key)-1]) % 4 }

func (q *quadStore) Put(key string, data []byte) error {
	i := q.Locate(key)
	if err := q.holds[i].Put(key, data); err != nil {
		return err
	}
	if strings.HasPrefix(key, ChunkPrefix) {
		q.mu.Lock()
		if q.got[i]++; q.got[i] == q.want[i] {
			close(q.full[i])
		}
		q.mu.Unlock()
	}
	return nil
}

// TestWriteRoundSplitsTheWidthPerShard: against a 4-shard backend the width
// is split ceil(width/shards) per shard queue, and a shard that accepts
// nothing holds up its own queue only — the other three take every chunk
// routed to them while it is still stuck.
func TestWriteRoundSplitsTheWidthPerShard(t *testing.T) {
	for _, tc := range []struct{ workers, perShard int }{{0, (DefaultWorkers + 3) / 4}, {6, 2}} {
		mem := storage.NewMemStore()
		q := &quadStore{PersistStore: mem}
		for i := range q.holds {
			q.holds[i] = storagetest.NewPutHold(mem, ChunkPrefix)
			q.holds[i].Hold()
			q.full[i] = make(chan struct{})
		}
		blob := newChunks(t, 22, 64, 64)
		for _, c := range splitChunks(blob, 64) {
			q.want[q.Locate(ChunkKey(HashBytes(c)))]++
		}
		for i, n := range q.want {
			if n < tc.perShard {
				t.Fatalf("shard %d gets %d chunks, fewer than its %d workers: pick another seed", i, n, tc.perShard)
			}
		}
		s, err := Open(q, Options{ChunkSize: 64, Workers: tc.workers})
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := s.WriteRound(0, map[string][]byte{"m": blob})
			done <- err
		}()
		for i := range q.holds {
			q.holds[i].AwaitHeld(tc.perShard)
		}
		for i := 1; i < 4; i++ {
			q.holds[i].Release()
		}
		for i := 1; i < 4; i++ {
			<-q.full[i] // hangs if the stuck shard's backlog blocks this one
		}
		select {
		case err := <-done:
			t.Fatalf("round returned (%v) with shard 0 accepting nothing", err)
		case <-q.full[0]:
			t.Fatal("shard 0 took its chunks while held")
		default:
		}
		q.holds[0].Release()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		for i, h := range q.holds {
			if peak := h.Peak(); peak != tc.perShard {
				t.Fatalf("Workers %d: shard %d saw %d puts at once, want %d", tc.workers, i, peak, tc.perShard)
			}
		}
		if got, err := s.ReadModule(0, "m"); err != nil || !bytes.Equal(got, blob) {
			t.Fatalf("Workers %d: round unreadable: %v", tc.workers, err)
		}
	}
}

// TestWideRoundFailureCommitsNothing: at the default width a Put failing
// mid-round still fails the round, writes no manifest and leaves the
// presence index without a single chunk of it, accepted or not — presence
// follows the commit, and there was none.
func TestWideRoundFailureCommitsNothing(t *testing.T) {
	mem := storage.NewMemStore()
	failing := &failAfterStore{MemStore: mem}
	failing.allow.Store(20)
	s, err := Open(failing, Options{ChunkSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	blob := newChunks(t, 23, 40, 64)
	if _, err := s.WriteRound(0, map[string][]byte{"m": blob}); err == nil || !strings.Contains(err.Error(), "backend lost") {
		t.Fatalf("round error = %v, want the backend's", err)
	}
	if keys, _ := mem.Keys(manifestPrefix); len(keys) != 0 || len(s.Rounds()) != 0 {
		t.Fatalf("failed round committed: manifests %v, rounds %v", keys, s.Rounds())
	}
	if n := s.present.Len(); n != 0 {
		t.Fatalf("presence index holds %d chunks of a round that never committed", n)
	}
	// The same bytes again, backend healed: every chunk is written, none
	// deduplicated against the failed attempt.
	failing.allow.Store(1 << 20)
	if _, err := s.WriteRound(0, map[string][]byte{"m": blob}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.ChunksWritten != 40 || st.ChunksDeduped != 0 {
		t.Fatalf("retry wrote %d chunks and deduplicated %d, want 40 and 0", st.ChunksWritten, st.ChunksDeduped)
	}
}

// TestMemoRoundStartsNoWorkers: every stage worker opens a span on its own
// lane, so the trace counts them. A round of new chunks runs HashWorkers
// hash workers and the default width of put workers; the same payload
// again hits the unchanged-module memo and starts none of either.
func TestMemoRoundStartsNoWorkers(t *testing.T) {
	obs.Enable(1 << 12)
	defer obs.Disable()
	s, err := Open(storage.NewMemStore(), Options{ChunkSize: 64, HashWorkers: 3})
	if err != nil {
		t.Fatal(err)
	}
	mods := map[string][]byte{"m": newChunks(t, 24, 40, 64)}
	lanes := func() map[string]int {
		n := map[string]int{}
		for _, r := range obs.Snapshot() {
			if r.Op == "hash" || r.Op == "put" {
				n[r.Track]++
			}
		}
		return n
	}
	if _, err := s.WriteRound(0, mods); err != nil {
		t.Fatal(err)
	}
	first := lanes()
	if len(first) != 3+DefaultWorkers {
		t.Fatalf("first round ran workers on %d lanes, want %d: %v", len(first), 3+DefaultWorkers, first)
	}
	for _, lane := range []string{"cas/hash-w0", "cas/hash-w2", "cas/put-s0-w0", fmt.Sprintf("cas/put-s0-w%d", DefaultWorkers-1)} {
		if first[lane] != 1 {
			t.Fatalf("lane %s ran %d workers, want 1: %v", lane, first[lane], first)
		}
	}
	if _, err := s.WriteRound(1, mods); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.ModulesUnchanged != 1 || st.RoundsWritten != 2 {
		t.Fatalf("second round missed the memo: %+v", st)
	}
	for lane, n := range lanes() {
		if n != first[lane] {
			t.Fatalf("memo round started a worker on %s", lane)
		}
	}
}

// TestMemoRoundCostsNoPutQueues: the put queues are as deep as the width is
// wide, so they are made with the workers — a round that hits the memo
// allocates the same at any width.
func TestMemoRoundCostsNoPutQueues(t *testing.T) {
	perRound := func(workers int) float64 {
		s, err := Open(storage.NewMemStore(), Options{ChunkSize: 64, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		mods := map[string][]byte{"m": newChunks(t, 25, 8, 64)}
		if _, err := s.WriteRound(0, mods); err != nil {
			t.Fatal(err)
		}
		const rounds = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for r := 1; r <= rounds; r++ {
			if _, err := s.WriteRound(r, mods); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if st := s.Stats(); st.ModulesUnchanged != rounds {
			t.Fatalf("%d of %d rounds hit the memo", st.ModulesUnchanged, rounds)
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / rounds
	}
	narrow, wide := perRound(1), perRound(256)
	if wide > narrow+256 {
		t.Fatalf("a memo round allocates %.0f B at Workers 256, %.0f B at Workers 1", wide, narrow)
	}
}
