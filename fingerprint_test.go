package moc

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"moc/internal/storage"
	"moc/internal/storage/cas"
	"moc/internal/train"
)

var updateFingerprint = flag.Bool("update", false, "rewrite testdata/fingerprint.golden")

const fingerprintGolden = "testdata/fingerprint.golden"

// fingerprintShape is one single-job bench workload at smoke size: the
// workload's model and store stack, a short warm-up, a bootstrap round and
// two checkpoint groups. The remote never sleeps (SleepScale 0), so the
// shapes issue the same requests as the bench without its wall time.
type fingerprintShape struct {
	name     string
	cfg      Config
	interval int
	// stack returns the store the System writes through and the bottom
	// store whose keys and bytes are fingerprinted.
	stack func(t *testing.T) (top, leaf PersistStore)
}

func fingerprintPEC(layers, batch int) Config {
	return Config{
		Layers: layers, Hidden: 64, Experts: 16, TopK: 2, BatchSize: batch, AuxLossCoeff: 0.01,
		KSnapshot: 4, KPersist: 2, TwoLevelRecovery: true,
	}
}

func memStack(*testing.T) (PersistStore, PersistStore) {
	mem := NewMemStore()
	return mem, mem
}

// remoteStack is cold_recover's stack: a cache over a 4 ms, 1 GiB/s
// remote with eight request slots.
func remoteStack(t *testing.T) (PersistStore, PersistStore) {
	mem := NewMemStore()
	remote, err := NewRemoteStoreOver(mem, RemoteConfig{
		LatencySeconds: 0.004, UploadBps: 1 << 30, DownloadBps: 1 << 30, MaxConcurrent: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	cached, err := NewCachedStore(remote, 256<<20)
	if err != nil {
		t.Fatal(err)
	}
	return cached, mem
}

var fingerprintShapes = []fingerprintShape{
	{name: "pec_train", cfg: fingerprintPEC(3, 32), interval: 4, stack: memStack},
	{
		name:     "full_persist",
		cfg:      Config{Layers: 3, Hidden: 96, Experts: 8, TopK: 2, BatchSize: 4, AuxLossCoeff: 0.01},
		interval: 2, stack: memStack,
	},
	{name: "cold_recover", cfg: fingerprintPEC(2, 8), interval: 4, stack: remoteStack},
}

// TestBehaviourFingerprint pins what the system stores and computes per
// seed: one line per run, compared with testdata/fingerprint.golden
// (-update rewrites it). A refactor that claims to change no behaviour
// leaves every line as it is; a change that moves a line names it.
// fleet_mixed is left out: its stored bytes do not repeat per seed.
func TestBehaviourFingerprint(t *testing.T) {
	var lines []string
	for _, shape := range fingerprintShapes {
		for seed := uint64(1); seed <= 3; seed++ {
			lines = append(lines, fingerprintShapeRun(t, shape, seed))
		}
	}
	lines = append(lines, fingerprintScript(t)...)

	if *updateFingerprint {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fingerprintGolden, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(fingerprintGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	defer f.Close()
	var want []string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		want = append(want, sc.Text())
	}
	if len(want) != len(lines) {
		t.Fatalf("golden has %d lines, the run gives %d", len(want), len(lines))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Errorf("fingerprint moved:\n got  %s\n want %s", lines[i], want[i])
		}
	}
}

func fingerprintShapeRun(t *testing.T, shape fingerprintShape, seed uint64) string {
	t.Helper()
	top, leaf := shape.stack(t)
	cfg := shape.cfg
	cfg.Seed = seed
	s := fingerprintStart(t, cfg, top)
	defer s.Close()
	fingerprintGroups(t, s, shape.interval, 2)
	return fingerprintLine(t, fmt.Sprintf("%s/seed%d", shape.name, seed), s, leaf)
}

// fingerprintScript drives the recovery and GC paths over cold_recover's
// stack: a fault with two-level recovery, training on, a compaction, then
// a restart that resumes from the store and trains again. It gives one
// line for the faulted System and one for the resumed one.
func fingerprintScript(t *testing.T) []string {
	t.Helper()
	top, leaf := remoteStack(t)
	cfg := fingerprintPEC(2, 8)
	cfg.Seed = 1
	s := fingerprintStart(t, cfg, top)
	fingerprintGroups(t, s, 4, 2)
	if err := s.InjectFault(); err != nil {
		t.Fatal(err)
	}
	fingerprintGroups(t, s, 4, 2)
	if _, err := s.CompactStorage(); err != nil {
		t.Fatal(err)
	}
	faulted := fingerprintLine(t, "script/fault-compact", s, leaf)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	top.(CachedStore).Drop()
	cfg.Resume = true
	r, err := NewSystemOn(cfg, top, PretrainCorpus(256))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	fingerprintGroups(t, r, 4, 2)
	return []string{faulted, fingerprintLine(t, "script/resume", r, leaf)}
}

// fingerprintStart builds the System, warms it up and writes the
// bootstrap (full) round, as the bench rig does at smoke size.
func fingerprintStart(t *testing.T, cfg Config, store PersistStore) *System {
	t.Helper()
	s, err := NewSystemOn(cfg, store, PretrainCorpus(256))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	if err := s.FlushCheckpoints(); err != nil {
		t.Fatal(err)
	}
	return s
}

// fingerprintGroups runs groups of interval steps, each followed by a
// checkpoint, and waits for every round to be durable.
func fingerprintGroups(t *testing.T, s *System, interval, groups int) {
	t.Helper()
	for g := 0; g < groups; g++ {
		for i := 0; i < interval; i++ {
			if _, err := s.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.CheckpointNow(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.FlushCheckpoints(); err != nil {
		t.Fatal(err)
	}
}

// fingerprintNoSkips fails a run whose checkpoint triggers found no free
// buffer: which round is dropped then depends on timing, and the digests
// would move for that reason alone.
func fingerprintNoSkips(t *testing.T, name string, s *System) {
	t.Helper()
	if n := s.Stats().Skipped; n != 0 {
		t.Fatalf("%s: %d checkpoint triggers skipped for lack of a free buffer; the run depends on timing", name, n)
	}
}

// fingerprintLine hashes one finished run. Stored objects: the sorted
// chunk keys and bytes, and every manifest with its writer tag (a
// process- and open-unique id) renamed by order of first appearance. The
// model: the full capture's keys and bytes, the PLT and the eval loss,
// each as exact bits. The counters: every Stats field that does not
// depend on timing (not SnapshotWaitSeconds; not Skipped, which must be
// 0; not DedupRatio, a ratio of two counters already here).
func fingerprintLine(t *testing.T, name string, s *System, leaf PersistStore) string {
	t.Helper()
	if err := s.FlushCheckpoints(); err != nil {
		t.Fatal(err)
	}
	fingerprintNoSkips(t, name, s)

	keys, err := leaf.Keys("")
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(keys)
	chunks, manifests := sha256.New(), sha256.New()
	var nChunks, nManifests int
	writers := map[string]string{}
	for _, key := range keys {
		blob, err := leaf.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case strings.HasPrefix(key, cas.ChunkPrefix):
			nChunks++
			fingerprintEntry(chunks, key, blob)
		case strings.HasPrefix(key, cas.ManifestPrefix):
			nManifests++
			m, err := cas.DecodeManifest(blob)
			if err != nil {
				t.Fatalf("%s: %s: %v", name, key, err)
			}
			tag, ok := writers[m.Writer]
			if !ok {
				tag = fmt.Sprintf("w%d", len(writers))
				writers[m.Writer] = tag
			}
			if !strings.HasSuffix(key, "."+m.Writer) {
				t.Fatalf("%s: manifest key %s does not end in its writer %q", name, key, m.Writer)
			}
			renamed := strings.TrimSuffix(key, m.Writer) + tag
			m.Writer = tag
			fingerprintEntry(manifests, renamed, cas.EncodeManifest(m))
		default:
			t.Fatalf("%s: unexpected key %s in the store", name, key)
		}
	}

	capture := s.model.Capture(nil, train.VariantFull())
	names := make([]string, 0, len(capture))
	for k := range capture {
		names = append(names, k)
	}
	sort.Strings(names)
	model := sha256.New()
	for _, k := range names {
		fingerprintEntry(model, k, capture[k])
		storage.PutBuf(capture[k])
	}
	loss, _, err := s.Evaluate(32)
	if err != nil {
		t.Fatal(err)
	}

	st := s.Stats()
	return fmt.Sprintf("%s chunks %d:%s manifests %d:%s model %s plt %016x loss %016x "+
		"iter %d ckpts %d faults %d k %d logical %d physical %d hashed %d unchanged %d",
		name, nChunks, fingerprintSum(chunks), nManifests, fingerprintSum(manifests),
		fingerprintSum(model), math.Float64bits(st.PLT), math.Float64bits(loss),
		st.Iteration, st.Checkpoints, st.Faults, st.KCurrent,
		st.LogicalBytesPersisted, st.PhysicalBytesPersisted, st.ChunksHashed, st.ModulesUnchanged)
}

// fingerprintEntry feeds one length-prefixed key and value to h, so no
// two different listings hash alike.
func fingerprintEntry(h hash.Hash, key string, value []byte) {
	fmt.Fprintf(h, "%d:%s%d:", len(key), key, len(value))
	h.Write(value)
}

func fingerprintSum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)[:8]) }
