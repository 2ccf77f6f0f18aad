package remote

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"moc/internal/rng"
	"moc/internal/storage"
	"moc/internal/storage/cas"
	"moc/internal/storage/storagetest"
)

func mustNew(t *testing.T, cfg Config) *Store {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTripAndCostModel(t *testing.T) {
	s := mustNew(t, Config{
		LatencySeconds: 0.01, UploadBps: 1 << 20, DownloadBps: 2 << 20,
		RequestOverheadBytes: 100,
	})
	payload := bytes.Repeat([]byte{7}, 1<<16)
	if err := s.Put("a/b", payload); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("a/b")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload mismatch")
	}
	m := s.Metrics()
	if m.PutOps != 1 || m.GetOps != 1 {
		t.Fatalf("ops: %+v", m)
	}
	if m.BytesUploaded != int64(len(payload))+100 {
		t.Fatalf("uploaded %d, want %d", m.BytesUploaded, len(payload)+100)
	}
	if m.BytesDownloaded != int64(len(payload))+100 {
		t.Fatalf("downloaded %d, want %d", m.BytesDownloaded, len(payload)+100)
	}
	// Put: latency + (bytes+overhead)/up. Get: latency + overhead/down + bytes/down.
	want := 0.01 + float64(len(payload)+100)/float64(1<<20) +
		0.01 + float64(100)/float64(2<<20) + float64(len(payload))/float64(2<<20)
	if diff := m.SimSeconds - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("sim seconds %v, want %v", m.SimSeconds, want)
	}
}

func TestGetMissIsNotFound(t *testing.T) {
	s := mustNew(t, Config{})
	if _, err := s.Get("nope"); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestMultipartPutThresholdAndParts(t *testing.T) {
	s := mustNew(t, Config{PartSize: 1 << 10, PartWorkers: 3})
	small := make([]byte, 1<<10-1)
	if err := s.Put("small", small); err != nil {
		t.Fatal(err)
	}
	if m := s.Metrics(); m.MultipartPuts != 0 {
		t.Fatalf("small payload took multipart path: %+v", m)
	}
	big := make([]byte, 10<<10+17) // 11 parts: 10 full + 1 short
	for i := range big {
		big[i] = byte(i)
	}
	if err := s.Put("big", big); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	if m.MultipartPuts != 1 {
		t.Fatalf("multipart puts %d, want 1", m.MultipartPuts)
	}
	if m.PartsUploaded != 11 {
		t.Fatalf("parts %d, want 11", m.PartsUploaded)
	}
	got, err := s.Get("big")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big) {
		t.Fatal("multipart object corrupted")
	}
}

func TestTransientFailuresRetryAndSucceed(t *testing.T) {
	s := mustNew(t, Config{FailureRate: 0.4, Seed: 7, MaxRetries: 50})
	payload := []byte("retry me")
	var retries int64
	for i := 0; i < 200; i++ {
		if err := s.Put("k", payload); err != nil {
			t.Fatalf("put %d failed despite retry budget: %v", i, err)
		}
	}
	m := s.Metrics()
	retries = m.Retries
	if retries == 0 || m.InjectedFailures == 0 {
		t.Fatalf("no failures injected at rate 0.4: %+v", m)
	}
	if m.PutOps != 200 {
		t.Fatalf("put ops %d, want 200", m.PutOps)
	}
	// Backoff waits must show up in the simulated clock.
	if m.SimSeconds <= 0 {
		t.Fatal("no simulated time charged")
	}
}

func TestRetryBudgetExhaustionFailsWithErrTransient(t *testing.T) {
	// FailureRate near 1 with a tiny budget: the first Put must exhaust
	// its retries and surface ErrTransient, never hang or panic.
	s := mustNew(t, Config{FailureRate: 0.999, Seed: 3, MaxRetries: 2})
	err := s.Put("k", []byte("x"))
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("err = %v, want ErrTransient", err)
	}
	m := s.Metrics()
	if m.Retries != 2 {
		t.Fatalf("retries %d, want 2 (the budget)", m.Retries)
	}
	if m.PutOps != 0 {
		t.Fatalf("failed put counted as success: %+v", m)
	}
}

func TestMultipartAbortLeavesNoObject(t *testing.T) {
	// Every request fails: the multipart upload must abort and the key
	// must not exist (complete/abort semantics — no partial object).
	inner := storage.NewMemStore()
	s := mustNew(t, Config{Inner: inner, PartSize: 1 << 10, FailureRate: 0.999, Seed: 5, MaxRetries: 1})
	err := s.Put("big", make([]byte, 4<<10))
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("err = %v, want ErrTransient", err)
	}
	if m := s.Metrics(); m.AbortedUploads == 0 {
		t.Fatalf("no abort recorded: %+v", m)
	}
	if _, err := inner.Get("big"); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("aborted object visible in the backing store: err = %v", err)
	}
}

func TestDeterministicFailureStream(t *testing.T) {
	run := func() Metrics {
		s := mustNew(t, Config{FailureRate: 0.3, Seed: 42, MaxRetries: 20})
		for i := 0; i < 50; i++ {
			if err := s.Put("k", []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		return s.Metrics()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
}

func TestKeysDeleteAndInnerLayering(t *testing.T) {
	inner := storage.NewMemStore()
	s := mustNew(t, Config{Inner: inner})
	for _, k := range []string{"p/a", "p/b", "q/c"} {
		if err := s.Put(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	keys, err := s.Keys("p/")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys[0] != "p/a" || keys[1] != "p/b" {
		t.Fatalf("keys %v", keys)
	}
	if err := s.Delete("p/a"); err != nil {
		t.Fatal(err)
	}
	if _, err := inner.Get("p/a"); !errors.Is(err, storage.ErrNotFound) {
		t.Fatal("delete did not reach the inner store")
	}
	if _, err := inner.Get("q/c"); err != nil {
		t.Fatal("objects not visible in the inner store")
	}
	m := s.Metrics()
	if m.ListOps != 1 || m.DeleteOps != 1 {
		t.Fatalf("ops %+v", m)
	}
}

// TestPersistRoundFillsTheEndpoint: a checkpoint round at the store's
// default width offers the endpoint more puts than it admits, so the
// endpoint's own limit — 8, the bench's cold_recover remote — is what runs:
// with writes held inside the endpoint exactly 8 are in flight.
func TestPersistRoundFillsTheEndpoint(t *testing.T) {
	hold := storagetest.NewPutHold(storage.NewMemStore(), cas.ChunkPrefix)
	s := mustNew(t, Config{Inner: hold, LatencySeconds: 0.004, MaxConcurrent: 8})
	cs, err := cas.Open(s, cas.Options{ChunkSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	blob := make([]byte, 40*64)
	rng.New(31).Fill(blob)
	hold.Hold()
	done := make(chan error, 1)
	go func() {
		_, err := cs.WriteRound(0, map[string][]byte{"m": blob})
		done <- err
	}()
	hold.AwaitHeld(8) // a put stage narrower than the endpoint never gets here
	hold.Release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if peak := hold.Peak(); peak != 8 {
		t.Fatalf("%d puts inside the endpoint at once, want its MaxConcurrent of 8", peak)
	}
	if m := s.Metrics(); m.PutOps != 41 {
		t.Fatalf("%d puts for 40 chunks and a manifest", m.PutOps)
	}
}

func TestCalibrateDerivesPersistSeconds(t *testing.T) {
	cfg := Config{LatencySeconds: 0.01, UploadBps: 64 << 20}
	cal, err := Calibrate(cfg, 4<<20, cas.Options{ChunkSize: 64 << 10, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if cal.PersistSeconds <= 0 || cal.OpSeconds <= 0 {
		t.Fatalf("calibration empty: %+v", cal)
	}
	if cal.PersistSeconds >= cal.OpSeconds {
		t.Fatalf("fan-out did not reduce wall estimate: %+v", cal)
	}
	// The transfer floor: 4 MiB over 64 MiB/s is 1/16 s of pure stream
	// time, split over 4 workers. The estimate must sit above per-worker
	// transfer time and below the un-parallelized op total.
	if cal.PersistSeconds < (1.0/16)/4 {
		t.Fatalf("persist estimate %v below the bandwidth floor", cal.PersistSeconds)
	}
	// More workers must not cost more.
	cal8, err := Calibrate(cfg, 4<<20, cas.Options{ChunkSize: 64 << 10, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if cal8.PersistSeconds > cal.PersistSeconds {
		t.Fatalf("8 workers slower than 4: %v > %v", cal8.PersistSeconds, cal.PersistSeconds)
	}
	// The endpoint's admission caps the divisor: 16 writers offered to an
	// endpoint that serves 8 at once persist no faster than 8 writers do.
	capped := cfg
	capped.MaxConcurrent = 8
	cal16, err := Calibrate(capped, 4<<20, cas.Options{ChunkSize: 64 << 10, Workers: 16})
	if err != nil {
		t.Fatal(err)
	}
	if cal16.Workers != 8 || cal16.PersistSeconds != cal16.OpSeconds/8 {
		t.Fatalf("16 workers against MaxConcurrent 8: %+v, want Workers 8 and OpSeconds/8", cal16)
	}
	// Same requests, so the same op-seconds up to float summation order.
	if d := cal16.PersistSeconds - cal8.PersistSeconds; math.Abs(d) > 1e-9*cal8.PersistSeconds {
		t.Fatalf("capped estimate %v differs from 8 workers' %v", cal16.PersistSeconds, cal8.PersistSeconds)
	}
	if wide, err := Calibrate(cfg, 4<<20, cas.Options{ChunkSize: 64 << 10, Workers: 16}); err != nil || wide.Workers != 16 {
		t.Fatalf("uncapped endpoint: Workers %d, err %v, want 16", wide.Workers, err)
	}
	// Apply slots the measurement into a simtime config.
	sc := cal.Apply(simtimeConfigForTest())
	if sc.Persist != cal.PersistSeconds {
		t.Fatalf("Apply did not set Persist: %+v", sc)
	}
}

// Calibrating with chunk size 0 cuts the probe as a System writing
// through the remote would: 4 MiB at 10 ms × 64 MiB/s (a 671 089 B
// product) is four 1 MiB chunks and a manifest. An explicit size wins.
func TestCalibrateSizesChunksToTheCostModel(t *testing.T) {
	cfg := Config{LatencySeconds: 0.01, UploadBps: 64 << 20}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if lat, bps := s.RequestCost(); lat != 0.01 || bps != 64<<20 {
		t.Fatalf("RequestCost() = %v, %v; want the configured latency and the slower direction", lat, bps)
	}
	if err := s.Degrade(4, 4); err != nil {
		t.Fatal(err)
	}
	if lat, bps := s.RequestCost(); lat != 0.01 || bps != 64<<20 {
		t.Fatalf("degraded RequestCost() = %v, %v; the report must not move mid-run", lat, bps)
	}
	for _, tc := range []struct {
		opts cas.Options
		ops  int64
	}{
		{cas.Options{}, 4 + 1},
		{cas.Options{ChunkSize: 1 << 20}, 4 + 1},
		{cas.Options{ChunkSize: cas.DefaultChunkSize}, 64 + 1},
	} {
		cal, err := Calibrate(cfg, 4<<20, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if cal.Ops != tc.ops {
			t.Fatalf("chunk size %d: %d requests, want %d", tc.opts.ChunkSize, cal.Ops, tc.ops)
		}
	}
}

func TestDeterministicFailureStreamConcurrentMultipart(t *testing.T) {
	// Failure decisions are keyed by (seed, request identity, occurrence),
	// so goroutine scheduling — across parallel parts AND parallel callers
	// — must not change which requests fail. Integer counters must match
	// exactly across runs; SimSeconds only to float-summation-order
	// tolerance (the addends are identical, their order is not).
	run := func() Metrics {
		s := mustNew(t, Config{
			PartSize: 1 << 10, PartWorkers: 4,
			FailureRate: 0.3, Seed: 42, MaxRetries: 20,
		})
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					if err := s.Put(fmt.Sprintf("k%d-%d", g, i), make([]byte, 8<<10)); err != nil {
						t.Error(err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		return s.Metrics()
	}
	a, b := run(), run()
	simA, simB := a.SimSeconds, b.SimSeconds
	a.SimSeconds, b.SimSeconds = 0, 0
	if a != b {
		t.Fatalf("same seed diverged under concurrency:\n%+v\n%+v", a, b)
	}
	if diff := simA - simB; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("sim seconds diverged: %v vs %v", simA, simB)
	}
	if a.InjectedFailures == 0 || a.MultipartPuts != 40 {
		t.Fatalf("scenario not exercised: %+v", a)
	}
}

func TestColdRepeatGetSplit(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("chunk")
	if err := s.Put("k", payload); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Get("k"); err != nil {
			t.Fatal(err)
		}
	}
	m := s.Metrics()
	if m.GetOps != 3 || m.ColdGets != 1 || m.RepeatGets != 2 {
		t.Fatalf("get split = %d cold / %d repeat of %d, want 1/2 of 3", m.ColdGets, m.RepeatGets, m.GetOps)
	}
	// Byte volumes carry the same per-request overhead as
	// BytesDownloaded, and the split must tile it exactly.
	if m.ColdGetBytes+m.RepeatGetBytes != m.BytesDownloaded {
		t.Fatalf("cold %d + repeat %d != downloaded %d", m.ColdGetBytes, m.RepeatGetBytes, m.BytesDownloaded)
	}
	if m.RepeatGetBytes != 2*m.ColdGetBytes {
		t.Fatalf("repeat bytes %d, want 2x cold bytes %d", m.RepeatGetBytes, m.ColdGetBytes)
	}

	// The served index outlives a metrics reset: a once-served key never
	// reads as cold again within this store's lifetime.
	s.ResetMetrics()
	if _, err := s.Get("k"); err != nil {
		t.Fatal(err)
	}
	m = s.Metrics()
	if m.ColdGets != 0 || m.RepeatGets != 1 {
		t.Fatalf("post-reset split = %d cold / %d repeat, want 0/1", m.ColdGets, m.RepeatGets)
	}

	// A fresh key is cold even after the reset.
	if err := s.Put("k2", payload); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("k2"); err != nil {
		t.Fatal(err)
	}
	if m := s.Metrics(); m.ColdGets != 1 {
		t.Fatalf("fresh key not counted cold: %+v", m)
	}
}

func TestDegradedModeMultipliesCostMidRun(t *testing.T) {
	s := mustNew(t, Config{
		LatencySeconds: 0.01, UploadBps: 1 << 20, DownloadBps: 2 << 20,
		RequestOverheadBytes: 100,
	})
	payload := bytes.Repeat([]byte{3}, 1<<16)
	if err := s.Put("k", payload); err != nil {
		t.Fatal(err)
	}
	healthy := s.Metrics().SimSeconds

	if err := s.Degrade(0.5, 1); err == nil {
		t.Fatal("sub-unity latency multiplier accepted")
	}
	if err := s.Degrade(1, 0.9); err == nil {
		t.Fatal("sub-unity bandwidth multiplier accepted")
	}
	if err := s.Degrade(4, 8); err != nil {
		t.Fatal(err)
	}
	if lat, bw, deg := s.DegradeFactors(); !deg || lat != 4 || bw != 8 {
		t.Fatalf("factors %v/%v degraded=%v", lat, bw, deg)
	}
	if err := s.Put("k2", payload); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	degraded := m.SimSeconds - healthy
	// Degraded put: 4x latency + bytes at 1/8 bandwidth.
	want := 4*0.01 + float64(len(payload)+100)/float64((1<<20)/8)
	if diff := degraded - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("degraded put cost %v, want %v", degraded, want)
	}
	if m.DegradedOps != 1 {
		t.Fatalf("DegradedOps %d, want 1", m.DegradedOps)
	}

	// Degraded gets charge the transfer at the throttled rate too.
	before := m.SimSeconds
	if _, err := s.Get("k"); err != nil {
		t.Fatal(err)
	}
	m = s.Metrics()
	gotCost := m.SimSeconds - before
	wantGet := 4*0.01 + float64(100)/float64((2<<20)/8) + float64(len(payload))/float64((2<<20)/8)
	if diff := gotCost - wantGet; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("degraded get cost %v, want %v", gotCost, wantGet)
	}

	// Healing mid-run restores the configured cost model exactly.
	s.ClearDegrade()
	if _, _, deg := s.DegradeFactors(); deg {
		t.Fatal("still degraded after ClearDegrade")
	}
	before = m.SimSeconds
	if err := s.Put("k3", payload); err != nil {
		t.Fatal(err)
	}
	m = s.Metrics()
	healedCost := m.SimSeconds - before
	wantHealed := 0.01 + float64(len(payload)+100)/float64(1<<20)
	if diff := healedCost - wantHealed; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("healed put cost %v, want %v", healedCost, wantHealed)
	}
	if m.DegradedOps != 2 {
		t.Fatalf("DegradedOps %d, want 2 (put + get during the window)", m.DegradedOps)
	}
}

// An upload consumes its bytes on the wire: neither the single-request
// nor the multipart path keeps the caller's buffer.
func TestPutDoesNotRetain(t *testing.T) {
	single := mustNew(t, Config{})
	storagetest.CheckPutDoesNotRetain(t, single)
	if m := single.Metrics(); m.PutOps != 2 || m.MultipartPuts != 0 {
		t.Errorf("default PartSize: %+v, want 2 single-request puts", m)
	}
	multi := mustNew(t, Config{PartSize: 1 << 10})
	storagetest.CheckPutDoesNotRetain(t, multi)
	if m := multi.Metrics(); m.MultipartPuts != 2 {
		t.Errorf("PartSize 1 KiB: %+v, want 2 multipart puts", m)
	}
}
