package moc

// Public API for the sharded storage tier: a consistent-hash router
// spreading the checkpoint keyspace over N backend shards, so persist
// bandwidth and capacity scale with shard count while membership
// changes (grow/shrink) move only ~1/N of the keys. Each shard is an
// ordinary PersistStore, so shards compose with the rest of the stack —
// e.g. NewShardedStore over NewReplicatedStore shards gives a store
// that scales out AND survives backend loss, and remote shards
// (NewRemoteStore) model independent object-store buckets.

import "moc/internal/storage/shard"

// ShardConfig describes a sharded store.
type ShardConfig struct {
	// Shards are the backend stores (at least one); each may itself be
	// replicated, cached, or remote.
	Shards []PersistStore
	// Names identify the shards on the hash ring. A shard's ring
	// positions derive from its name, so names must be stable across
	// restarts for keys to keep routing to the same backends. Empty =
	// shard-000, shard-001, ...
	Names []string
	// VirtualNodes is the per-shard point count on the ring (0 = 128).
	// More points even out the key distribution at the cost of a larger
	// ring.
	VirtualNodes int
}

// ShardRebalanceStats describes one completed shard migration; its
// MovedFraction stays near 1/N after growing to N shards, instead of the
// ~100% a modulo placement would reshuffle.
type ShardRebalanceStats = shard.RebalanceStats

// ShardedStore is a PersistStore routing each key to one of N shards by
// consistent hashing. Membership changes online in two steps: AddShard
// or RemoveShard installs the new ring (writes follow it immediately;
// reads fall back to the old placement), then Rebalance migrates the
// remapped keys copy-then-delete — concurrent reads succeed from either
// location throughout. Under a Fleet, the migration is additionally
// serialized against checkpoint writers and the garbage collector.
type ShardedStore interface {
	PersistStore
	// ShardCount returns the ring's member count; Locate the shard index
	// a key routes to; ShardName a shard's ring name.
	ShardCount() int
	Locate(key string) int
	ShardName(i int) string
	// Health reports the most recent error per shard (nil = healthy);
	// Probe actively round-trips every shard.
	Health() []error
	Probe() []error
	// Sync runs anti-entropy on every replicated shard; Repairs sums
	// their read-repair write-backs. Both are zero-work when no shard is
	// replicated.
	Sync() (copied int, err error)
	Repairs() int64
	// AddShard / RemoveShard change ring membership; Rebalance completes
	// the pending change by migrating remapped keys. Migrating reports a
	// change awaiting Rebalance.
	AddShard(name string, store PersistStore) error
	RemoveShard(name string) error
	Rebalance() (ShardRebalanceStats, error)
	Migrating() bool
}

// NewShardedStore builds a consistent-hash sharded store over
// cfg.Shards. Passing it to NewFleet enables the fleet's per-shard
// scrub: each shard is probed independently, replicated shards get
// per-shard repair, and FleetStats reports the per-shard chunk
// distribution and balance factor.
func NewShardedStore(cfg ShardConfig) (ShardedStore, error) {
	return shard.New(shard.Config{
		Stores:       cfg.Shards,
		Names:        cfg.Names,
		VirtualNodes: cfg.VirtualNodes,
	})
}
