package cas_test

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"moc/internal/rng"
	"moc/internal/storage"
	"moc/internal/storage/cas"
	"moc/internal/storage/storagetest"
)

// pecRounds writes a PEC-shaped history — modules of one to three chunks,
// every module in round 0, then a rotating eighth of them per round — and
// returns the read plan of each module's newest copy with the bytes it
// must yield.
func pecRounds(t *testing.T, s *cas.Store, modules, rounds int) ([]cas.ModuleAt, [][]byte) {
	t.Helper()
	plan := make([]cas.ModuleAt, modules)
	want := make([][]byte, modules)
	for r := 0; r < rounds; r++ {
		round := make(map[string][]byte)
		for i := 0; i < modules; i++ {
			if r > 0 && i%rounds != r {
				continue
			}
			name := fmt.Sprintf("expert.%03d", i)
			blob := make([]byte, 40+(i%3)*64)
			rng.New(uint64(r*modules+i) + 1).Fill(blob)
			round[name] = blob
			plan[i], want[i] = cas.ModuleAt{Round: r, Module: name}, blob
		}
		if _, err := s.WriteRound(r, round); err != nil {
			t.Fatal(err)
		}
	}
	return plan, want
}

// stopProbe counts the chunk Gets issued after the victim chunk has been
// asked for, and holds each of them until a fetch worker has exited —
// which, before the plan is exhausted, only the worker that met the
// damage does, after recording the failure. A plan that stops handing out
// work therefore issues at most one late Get per other worker, exactly,
// with no clock involved.
type stopProbe struct {
	storage.PersistStore
	victim  string
	running int // goroutine count while all fetch workers are alive
	tripped atomic.Bool
	late    atomic.Int64
}

func (p *stopProbe) Get(key string) ([]byte, error) {
	if p.tripped.Load() {
		p.late.Add(1)
		for runtime.NumGoroutine() >= p.running {
			runtime.Gosched()
		}
	}
	if key == p.victim {
		p.tripped.Store(true)
	}
	return p.PersistStore.Get(key)
}

// TestReadAcrossFailureNamesChunkAndStops: a chunk missing or bit-flipped
// in the middle of a many-round plan fails the read with an error naming
// module@round chunk i, tasks past the failure stop being issued, and the
// fetch workers are gone once the call has returned.
func TestReadAcrossFailureNamesChunkAndStops(t *testing.T) {
	damage := map[string]func(*storage.MemStore, string) error{
		"missing": func(b *storage.MemStore, key string) error { return b.Delete(key) },
		"bit-flipped": func(b *storage.MemStore, key string) error {
			blob, err := b.Get(key)
			if err != nil {
				return err
			}
			blob[0] ^= 1
			return b.Put(key, blob)
		},
	}
	for name, hurt := range damage {
		t.Run(name, func(t *testing.T) {
			const width = 4
			mem := storage.NewMemStore()
			probe := &stopProbe{PersistStore: mem}
			s, err := cas.Open(probe, cas.Options{ChunkSize: 64, ReadWorkers: width})
			if err != nil {
				t.Fatal(err)
			}
			plan, want := pecRounds(t, s, 256, 8)
			got, err := s.ReadAcross(plan)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if !bytes.Equal(bytes.Join(got[i], nil), want[i]) {
					t.Fatalf("%s@%d: recovered bytes differ", plan[i].Module, plan[i].Round)
				}
			}

			const victim = 22 // 104 B, two chunks: the second is task 45 of 511
			entry := s.ManifestsForRound(plan[victim].Round)[0].Lookup(plan[victim].Module)
			if len(entry.Chunks) != 2 {
				t.Fatalf("victim has %d chunks, want 2", len(entry.Chunks))
			}
			probe.victim = cas.ChunkKey(entry.Chunks[1].Hash)
			if err := hurt(mem, probe.victim); err != nil {
				t.Fatal(err)
			}

			base := runtime.NumGoroutine()
			probe.running = base + width
			wantErr := fmt.Sprintf("%s@%06d chunk 1", plan[victim].Module, plan[victim].Round)
			if _, err := s.ReadAcross(plan); err == nil || !strings.Contains(err.Error(), wantErr) {
				t.Fatalf("error = %v, want one naming %q", err, wantErr)
			}
			if late := probe.late.Load(); late > width-1 {
				t.Fatalf("%d chunk gets issued after the damaged one, want at most %d: the plan did not stop", late, width-1)
			}
			// Every worker was past its last task when the call returned; one
			// may still be between its wg.Done and its exit.
			if !storagetest.Eventually(10*time.Second, time.Millisecond, func() bool { return runtime.NumGoroutine() <= base }) {
				t.Fatalf("%d goroutines after the failed read, %d before", runtime.NumGoroutine(), base)
			}
		})
	}
}

// TestReadAcrossReturnsTheBackendsViews: over a storage.Viewer backend a
// recovered module is the backend's own chunk views, in order — nothing is
// joined or copied after the hash — and over a backend with only Get the
// parts are its copies, with the same bytes.
func TestReadAcrossReturnsTheBackendsViews(t *testing.T) {
	mem := storage.NewMemStore()
	backends := map[string]storage.PersistStore{
		"viewer": mem,
		"get":    struct{ storage.PersistStore }{mem},
	}
	for name, backend := range backends {
		t.Run(name, func(t *testing.T) {
			s, err := cas.Open(backend, cas.Options{ChunkSize: 64})
			if err != nil {
				t.Fatal(err)
			}
			plan, want := pecRounds(t, s, 24, 4)
			got, err := s.ReadAcross(plan)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range plan {
				if !bytes.Equal(bytes.Join(got[i], nil), want[i]) {
					t.Fatalf("%s@%d: recovered bytes differ", r.Module, r.Round)
				}
				entry := s.Entry(r.Round, r.Module)
				if len(got[i]) != len(entry.Chunks) {
					t.Fatalf("%s@%d: %d parts for %d chunks", r.Module, r.Round, len(got[i]), len(entry.Chunks))
				}
				for j, part := range got[i] {
					view, err := mem.GetView(cas.ChunkKey(entry.Chunks[j].Hash))
					if err != nil {
						t.Fatal(err)
					}
					if shared := &part[0] == &view[0]; shared != (name == "viewer") {
						t.Fatalf("%s@%d chunk %d: part is the backend's view = %v", r.Module, r.Round, j, shared)
					}
				}
			}
		})
	}
}
