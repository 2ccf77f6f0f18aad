package core

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"moc/internal/storage"
	"moc/internal/storage/cas"
	"moc/internal/storage/storagetest"
)

// tensorBlob is module m's state in a round as the trainer would capture
// it: a CRC-framed tensor blob, so storage.DecodeTensors notices one
// foreign byte.
func tensorBlob(round, m int) []byte {
	w := make([]float32, 1000) // 4 KB and a bit: every blob in one pool class
	for i := range w {
		w[i] = float32(round*1000+m) + float32(i)/1024
	}
	return storage.EncodeTensors(map[string][]float32{"w": w})
}

// tensorCapture captures a round into pooled buffers the agent takes over.
func tensorCapture(round, modules int) func() (CheckpointData, error) {
	return func() (CheckpointData, error) {
		d := make(CheckpointData, modules)
		for m := 0; m < modules; m++ {
			d[fmt.Sprintf("m%d", m)] = storage.CopyBuf(tensorBlob(round, m))
		}
		return d, nil
	}
}

func snapshotRound(t *testing.T, a *Agent, round, modules int) {
	t.Helper()
	if !a.TrySnapshot(round, tensorCapture(round, modules), nil) {
		t.Fatalf("round %d refused", round)
	}
	if err := a.WaitSnapshot(); err != nil {
		t.Fatal(err)
	}
}

func allSurvive(string) bool { return true }

// TestRecoverLendsTheSnapshotBuffers: what two-level recovery hands out
// for a surviving module is the snapshot store's own buffer — the bytes
// SnapshotStore.Get would copy, without the copy.
func TestRecoverLendsTheSnapshotBuffers(t *testing.T) {
	const modules = 5
	a, snap, _ := newTestAgent(t, 3)
	defer a.Close()
	snapshotRound(t, a, 0, modules)
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	rec, err := a.Recover(func(module string) bool { return module != "m1" })
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < modules; m++ {
		name := fmt.Sprintf("m%d", m)
		got := rec[name]
		cp, err := snap.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		lent, _ := snap.Lend(name)
		if !bytes.Equal(payload(got), cp) || got.Round != 0 {
			t.Fatalf("%s: recovered round %d, bytes differ from SnapshotStore.Get", name, got.Round)
		}
		aliases := len(got.Blob) > 0 && &got.Blob[0] == &lent[0]
		if got.FromSnapshot != (m != 1) || aliases != got.FromSnapshot {
			t.Fatalf("%s: FromSnapshot %v, aliases the snapshot buffer %v", name, got.FromSnapshot, aliases)
		}
		if &cp[0] == &lent[0] {
			t.Fatalf("%s: SnapshotStore.Get returned the stored buffer", name)
		}
	}
}

// TestOpenLoanSurvivesReplacementAndPoolStorm: a caller that never ends
// its loan keeps intact blobs. Twice as many rounds as there are buffers
// replace every snapshot slot while goroutines cycle the pool's buffers of
// the same class and scribble on them; had a lent buffer been recycled,
// the scribbles would land in a recovered blob (a CRC failure here, a data
// race under -race).
func TestOpenLoanSurvivesReplacementAndPoolStorm(t *testing.T) {
	const modules, buffers = 6, 3
	a, _, _ := newTestAgent(t, buffers)
	snapshotRound(t, a, 0, modules)
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	rec, err := a.Recover(allSurvive)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var storm sync.WaitGroup
	for g := 0; g < 4; g++ {
		storm.Add(1)
		go func(g int) {
			defer storm.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				b := storage.GetBuf(len(rec["m0"].Blob))
				for i := range b {
					b[i] = byte(0xA0 + g)
				}
				storage.PutBuf(b)
			}
		}(g)
	}
	for r := 1; r <= 2*buffers; r++ {
		snapshotRound(t, a, r, modules)
		if err := a.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	storm.Wait()

	for m := 0; m < modules; m++ {
		got := rec[fmt.Sprintf("m%d", m)]
		if _, err := storage.DecodeTensors(got.Blob); err != nil {
			t.Fatalf("lent m%d no longer decodes: %v", m, err)
		}
		if !got.FromSnapshot || !bytes.Equal(got.Blob, tensorBlob(0, m)) {
			t.Fatalf("lent m%d (snapshot=%v) changed under an open loan", m, got.FromSnapshot)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestEndedLoanReturnsBuffersToThePool: a slot replaced while its buffer
// is on loan leaves the buffer to the garbage collector; once the loan is
// ended a replacement retires it towards the pool like any other buffer —
// withheld while a persist job may still read it, pooled when that job
// returns.
func TestEndedLoanReturnsBuffersToThePool(t *testing.T) {
	const modules = 4
	hold := storagetest.NewPutHold(storage.NewMemStore(), cas.ChunkPrefix)
	a, err := NewAgentWithOptions(storage.NewSnapshotStore(), hold, 4, cas.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer hold.Release()
	snapshotRound(t, a, 0, modules)
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, ended := range []bool{false, true} {
		round := 1
		if ended {
			round = 3
		}
		// The round's writes are held at the backend, so its job stays
		// outstanding and whatever the next round retires waits in
		// a.retired, where it can be counted.
		hold.Hold()
		snapshotRound(t, a, round, modules)
		hold.AwaitHeld(1)
		rec, err := a.Recover(allSurvive)
		if err != nil {
			t.Fatal(err)
		}
		if ended {
			a.ReleaseRecovered()
		}
		snapshotRound(t, a, round+1, modules)
		a.mu.Lock()
		queued := 0
		for _, r := range a.retired {
			for _, m := range rec {
				if m.Round != round || !m.FromSnapshot {
					t.Errorf("recovered round %d (snapshot=%v), want the snapshot of round %d", m.Round, m.FromSnapshot, round)
				}
				if &r.buf[:1][0] == &m.Blob[0] {
					queued++
				}
			}
		}
		a.mu.Unlock()
		want := 0
		if ended {
			want = modules
		}
		if queued != want {
			t.Fatalf("loan ended=%v: %d of the %d lent buffers queued for the pool, want %d", ended, queued, modules, want)
		}
		hold.Release()
		if err := a.Flush(); err != nil {
			t.Fatal(err)
		}
		a.mu.Lock()
		waiting := len(a.retired)
		a.mu.Unlock()
		if waiting != 0 {
			t.Fatalf("%d buffers still withheld from the pool with nothing in flight", waiting)
		}
	}
}

// BenchmarkRecoveryLoan measures what ReleaseRecovered is for: a recovery
// that borrows every snapshot buffer, then the checkpoint round that
// replaces them. With the loan ended the round's captures find the replaced
// buffers in the pool; left open, each lent buffer is one pool miss (the
// KB/fault column: total allocation of recovery plus round).
func BenchmarkRecoveryLoan(b *testing.B) {
	const modules = 64
	for _, released := range []bool{true, false} {
		name := "open"
		if released {
			name = "released"
		}
		b.Run(name, func(b *testing.B) {
			a, err := NewAgentWithOptions(storage.NewSnapshotStore(), storage.NewMemStore(), 3, cas.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer a.Close()
			round := 0
			next := func() {
				if !a.TrySnapshot(round, tensorCapture(round, modules), nil) {
					b.Fatalf("round %d refused", round)
				}
				if err := a.Flush(); err != nil {
					b.Fatal(err)
				}
				round++
			}
			next()
			next() // the pool now holds a round's worth of retired buffers
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec, err := a.Recover(allSurvive)
				if err != nil || len(rec) != modules {
					b.Fatalf("recovered %d modules: %v", len(rec), err)
				}
				if released {
					a.ReleaseRecovered()
				}
				next()
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N)/1024, "KB/fault")
		})
	}
}
