package fleet

import (
	"reflect"
	"testing"

	"moc/internal/storage"
	"moc/internal/storage/cas"
	"moc/internal/storage/replica"
	"moc/internal/storage/shard"
)

// scrubPass is what one Scrub pass and the Stats read after it report.
type scrubPass struct {
	// From the ScrubReport (kept on a failed pass too: the probe half
	// runs before the audit that fails).
	scrubErr                           bool
	backends, down, healed, syncCopies int
	shards                             []ShardScrub
	// From Stats (zero when statsErr).
	statsErr       bool
	backendsDown   int
	syncOwed       bool
	heals, copies  int64
	repairs        int64
	shardStatsDown []int
	// stretch is the cadence controller's stretch after the pass: the
	// HealthSignal the pass fed it, under the default tuning. A failed
	// pass feeds nothing. The signal's shard imbalance is the balance the
	// previous Stats cached (none before the first pass); a few chunks
	// over four shards land either side of the 1.5 threshold.
	stretch float64
}

// plainShards names the shard reports of a 4-shard router whose every
// shard is one backend, with the given Down/Healed on shard 1.
func plainShards(down, healed int) []ShardScrub {
	out := []ShardScrub{
		{Name: "shard-000", Backends: 1},
		{Name: "shard-001", Backends: 1, Down: down, Healed: healed},
		{Name: "shard-002", Backends: 1},
		{Name: "shard-003", Backends: 1},
	}
	return out
}

// replicatedShard is plainShards with shard 1 a replica pair.
func replicatedShard(down, healed, copies int) []ShardScrub {
	out := plainShards(down, healed)
	out[1].Backends = 2
	out[1].SyncCopies = copies
	return out
}

// TestScrubAcrossBackendShapes drives one failable backend down and back
// up across Scrub passes under each shape the service scrubs: a plain
// backend (never probed; its outage fails the audit), a replica set (one
// probed target with owed anti-entropy), a router over plain shards
// (probed per shard, no repair path) and a router with a replicated shard
// (per-shard probe and repair). Each pass is one round written, one Scrub,
// one Stats.
func TestScrubAcrossBackendShapes(t *testing.T) {
	for _, tc := range []struct {
		name string
		// build returns the service's backend and the backend that fails.
		build func() (storage.PersistStore, *replica.Flaky)
		// writesWhileDown: the outage leaves a healthy write path.
		writesWhileDown bool
		passes          [4]scrubPass // healthy, down, healed, steady
	}{
		{
			name: "plain",
			build: func() (storage.PersistStore, *replica.Flaky) {
				f := replica.NewFlaky(storage.NewMemStore())
				return f, f
			},
			passes: [4]scrubPass{
				{stretch: 1},
				{scrubErr: true, statsErr: true, stretch: 1},
				{stretch: 1},
				{stretch: 1},
			},
		},
		{
			name: "replicated",
			build: func() (storage.PersistStore, *replica.Flaky) {
				f := replica.NewFlaky(storage.NewMemStore())
				r, err := replica.New(storage.NewMemStore(), f)
				if err != nil {
					t.Fatal(err)
				}
				return r, f
			},
			writesWhileDown: true,
			passes: [4]scrubPass{
				{backends: 2, stretch: 1},
				{backends: 2, down: 1, backendsDown: 1, syncOwed: true, stretch: 3},
				{backends: 2, healed: 1, syncCopies: 9, heals: 1, copies: 9, stretch: 2},
				{backends: 2, heals: 1, copies: 9, stretch: 1.5},
			},
		},
		{
			name: "sharded-plain",
			build: func() (storage.PersistStore, *replica.Flaky) {
				f := replica.NewFlaky(storage.NewMemStore())
				r, err := shard.New(shard.Config{Stores: []storage.PersistStore{
					storage.NewMemStore(), f, storage.NewMemStore(), storage.NewMemStore(),
				}})
				if err != nil {
					t.Fatal(err)
				}
				return r, f
			},
			passes: [4]scrubPass{
				{backends: 4, shards: plainShards(0, 0), shardStatsDown: []int{0, 0, 0, 0}, stretch: 1},
				{scrubErr: true, backends: 4, down: 1, shards: plainShards(1, 0), statsErr: true, stretch: 1},
				{backends: 4, healed: 1, shards: plainShards(0, 1), heals: 1, shardStatsDown: []int{0, 0, 0, 0}, stretch: 1.5},
				{backends: 4, shards: plainShards(0, 0), heals: 1, shardStatsDown: []int{0, 0, 0, 0}, stretch: 1.5},
			},
		},
		{
			name: "sharded-replicated",
			build: func() (storage.PersistStore, *replica.Flaky) {
				f := replica.NewFlaky(storage.NewMemStore())
				pair, err := replica.New(storage.NewMemStore(), f)
				if err != nil {
					t.Fatal(err)
				}
				r, err := shard.New(shard.Config{Stores: []storage.PersistStore{
					storage.NewMemStore(), pair, storage.NewMemStore(), storage.NewMemStore(),
				}})
				if err != nil {
					t.Fatal(err)
				}
				return r, f
			},
			writesWhileDown: true,
			passes: [4]scrubPass{
				{backends: 5, shards: replicatedShard(0, 0, 0), shardStatsDown: []int{0, 0, 0, 0}, stretch: 1},
				{backends: 5, down: 1, shards: replicatedShard(1, 0, 0), backendsDown: 1, syncOwed: true, shardStatsDown: []int{0, 1, 0, 0}, stretch: 4.5},
				{backends: 5, healed: 1, syncCopies: 2, shards: replicatedShard(0, 1, 2), heals: 1, copies: 2, shardStatsDown: []int{0, 0, 0, 0}, stretch: 2.75},
				{backends: 5, shards: replicatedShard(0, 0, 0), heals: 1, copies: 2, shardStatsDown: []int{0, 0, 0, 0}, stretch: 1.875},
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			backend, flaky := tc.build()
			svc, err := Open(backend, Config{})
			if err != nil {
				t.Fatal(err)
			}
			ctl := svc.SetCadence()
			sess, err := svc.AcquireOrRegister("job", "")
			if err != nil {
				t.Fatal(err)
			}
			store, err := sess.Open(cas.Options{ChunkSize: 1 << 10})
			if err != nil {
				t.Fatal(err)
			}
			for i, want := range tc.passes {
				switch i {
				case 1:
					flaky.Fail()
				case 2:
					flaky.Heal()
				}
				if i != 1 || tc.writesWhileDown {
					if _, err := store.WriteRound(i, map[string][]byte{"w": blob(uint64(i), 8<<10)}); err != nil {
						t.Fatalf("pass %d: write: %v", i, err)
					}
				}
				rep, err := svc.Scrub()
				got := scrubPass{
					scrubErr: err != nil,
					backends: rep.Backends, down: rep.Down, healed: rep.Healed, syncCopies: rep.SyncCopies,
					shards:  rep.Shards,
					stretch: ctl.Stretch(),
				}
				if st, err := svc.Stats(); err != nil {
					got.statsErr = true
				} else {
					got.backendsDown, got.syncOwed = st.BackendsDown, st.SyncOwed
					got.heals, got.copies, got.repairs = st.HealsDetected, st.SyncCopies, st.Repairs
					for _, ss := range st.Shards {
						got.shardStatsDown = append(got.shardStatsDown, ss.BackendsDown)
					}
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("pass %d:\n got %+v\nwant %+v", i, got, want)
				}
			}
		})
	}
}
