//go:build goexperiment.synctest

package moc_test

// Virtual-time gates for the latency-modelled paths. Inside a
// testing/synctest bubble the clock moves only when every goroutine is
// blocked, so the remote store's SleepScale 1 sleeps cost no wall time
// and CPU work costs no virtual time: a bubble measures the I/O critical
// path under the remote cost model, the same in every run and on every
// host. Run with
//
//	GOEXPERIMENT=synctest go test -run Virtual -count=1 .

import (
	"testing"
	"testing/synctest"
	"time"

	moc "moc"
	"moc/internal/storage/cas"
)

// virtualRTT and virtualWidth are the modelled remote's request latency
// and endpoint width; virtualBps its per-stream bandwidth both ways.
const (
	virtualRTT   = 4 * time.Millisecond
	virtualWidth = 8
	virtualBps   = 1 << 30
)

// virtualStack is the benchmark's cold_recover shape: a 256 MiB cache
// over a 4 ms remote that serves 8 requests at once, really sleeping the
// modelled cost (virtual time inside the bubble).
func virtualStack(t *testing.T) (moc.RemoteStore, moc.CachedStore) {
	t.Helper()
	remote, err := moc.NewRemoteStoreOver(moc.NewMemStore(), moc.RemoteConfig{
		LatencySeconds: virtualRTT.Seconds(), UploadBps: virtualBps, DownloadBps: virtualBps,
		MaxConcurrent: virtualWidth, SleepScale: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cached, err := moc.NewCachedStore(remote, 256<<20)
	if err != nil {
		t.Fatal(err)
	}
	return remote, cached
}

// waves is the request floor of n requests against the endpoint: each
// costs at least one RTT, and at most virtualWidth run at once.
func waves(n int64) int64 { return (n + virtualWidth - 1) / virtualWidth }

// transfer is the longest transfer one request of size bytes adds to its
// wave's RTT, request overhead included.
func transfer(size int64) time.Duration {
	return time.Duration(float64(size+512) / virtualBps * float64(time.Second))
}

// matchesWaves checks a measured virtual time against the wave
// prediction: at least nWaves RTTs, and no more than that plus each
// wave's longest transfer (xfer). The transfer terms are a few percent
// of an RTT, so the check pins the wave count exactly.
func matchesWaves(t *testing.T, what string, got time.Duration, nWaves int64, xfer time.Duration) {
	t.Helper()
	floor := time.Duration(nWaves) * virtualRTT
	if xfer >= virtualRTT {
		t.Fatalf("%s: transfer terms %v reach an RTT; the wave count is not pinned", what, xfer)
	}
	if got < floor || got > floor+xfer {
		t.Fatalf("%s took %v virtual; %d waves predict %v + at most %v of transfer", what, got, nWaves, floor, xfer)
	}
	t.Logf("%s: %v virtual = %d waves × %v + %v of transfer (bound %v)", what, got, nWaves, virtualRTT, got-floor, xfer)
}

// TestVirtualColdResumeAndRoundFollowWaves trains the cold_recover shape
// for a bootstrap round and ten PEC rounds (eleven manifests, no
// retention), times the tenth round's persist and then a cold resume,
// and checks both against the waves the committed manifests predict:
//   - a round is ⌈chunk puts/8⌉ waves, then the manifest commit;
//   - a resume is the listing wave, ⌈manifests/8⌉ waves of manifest
//     Gets (the chunk listing runs beside them), then ⌈chunks/8⌉ waves
//     of chunk Gets.
//
// Over this remote the System cuts one chunk per module (the
// bandwidth-delay rule), so the resume is 1 + 2 + 10 waves; at 64 KiB
// chunks it would be 1 + 2 + 14.
func TestVirtualColdResumeAndRoundFollowWaves(t *testing.T) {
	synctest.Run(func() {
		remote, cached := virtualStack(t)
		cfg := moc.Config{
			Layers: 2, Hidden: 64, Experts: 16, TopK: 2, BatchSize: 8, AuxLossCoeff: 0.01,
			KSnapshot: 4, KPersist: 2, TwoLevelRecovery: true, Interval: 4, Seed: 7,
		}
		corpus := moc.PretrainCorpus(256)
		sys, err := moc.NewSystemOn(cfg, cached, corpus)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.CheckpointNow(); err != nil { // the full bootstrap round
			t.Fatal(err)
		}
		if _, err := sys.RunTo(36); err != nil {
			t.Fatal(err)
		}
		if err := sys.FlushCheckpoints(); err != nil {
			t.Fatal(err)
		}

		// The tenth PEC round: training costs no virtual time, so the
		// clock moves only for the persist.
		remote.ResetMetrics()
		start := time.Now()
		if _, err := sys.RunTo(40); err != nil {
			t.Fatal(err)
		}
		if err := sys.FlushCheckpoints(); err != nil {
			t.Fatal(err)
		}
		round := time.Since(start)
		puts := remote.Metrics().PutOps
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}

		store, err := cas.Open(cached, cas.Options{})
		if err != nil {
			t.Fatal(err)
		}
		manifests := store.Manifests()
		last := manifests[len(manifests)-1]
		var largestPut int64
		for _, e := range last.Modules {
			for _, c := range e.Chunks {
				largestPut = max(largestPut, int64(c.Size))
			}
		}
		written := puts - 1 // every put but the manifest is a chunk
		matchesWaves(t, "persisted round", round, waves(written)+1,
			time.Duration(waves(written))*transfer(largestPut)+transfer(int64(len(cas.EncodeManifest(last)))))

		// The cold resume: an empty cache, so every read is a remote Get.
		newest := map[string]int{}
		chunks := map[string]int{}
		var largestChunk, largestManifest int64
		for _, m := range manifests {
			largestManifest = max(largestManifest, int64(len(cas.EncodeManifest(m))))
			for _, e := range m.Modules {
				if r, ok := newest[e.Module]; !ok || m.Round > r {
					newest[e.Module], chunks[e.Module] = m.Round, len(e.Chunks)
					for _, c := range e.Chunks {
						largestChunk = max(largestChunk, int64(c.Size))
					}
				}
			}
		}
		var nChunks int64
		for _, n := range chunks {
			nChunks += int64(n)
		}
		if nChunks != int64(len(chunks)) {
			t.Fatalf("the newest copies of %d modules are %d chunks: the System did not size chunks to this remote", len(chunks), nChunks)
		}
		nManifests := int64(len(manifests))
		cached.Drop()
		remote.ResetMetrics()
		cfg.Resume = true
		start = time.Now()
		fresh, err := moc.NewSystemOn(cfg, cached, corpus)
		if err != nil {
			t.Fatal(err)
		}
		resume := time.Since(start)
		if err := fresh.Close(); err != nil {
			t.Fatal(err)
		}
		if gets := remote.Metrics().GetOps; gets != nManifests+nChunks {
			t.Fatalf("cold resume issued %d remote Gets; %d manifests and %d chunks predict %d", gets, nManifests, nChunks, nManifests+nChunks)
		}
		matchesWaves(t, "cold resume", resume, 1+waves(nManifests)+waves(nChunks),
			transfer(0)+time.Duration(waves(nManifests))*transfer(largestManifest)+time.Duration(waves(nChunks))*transfer(largestChunk))
		t.Logf("%d manifests, %d chunks, %d puts in the round", nManifests, nChunks, puts)
	})
}
